"""Paged KV storage with per-(layer, head) block tables.

Each (layer, head) keeps its live entries as rows [0, n) of one array set in
birth order: keys, values, births, betas and slots, the only record of the
cache; `gather` returns read-only views of it. A slot is `page_id * page_size
+ index in page` in a shared pool of fixed-size pages, and a head's block
table (its page ids in logical order) is derived from its slot column.
Eviction moves the survivors down in place and returns emptied pages to a LIFO
free list; `compact` repacks a head's survivors into the fewest pages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Array, as_vector

DEFAULT_PAGE_SIZE = 16


class CacheCapacityError(RuntimeError):
    """The page allocator ran out of pages (max_pages reached)."""


@dataclass
class GatherResult:
    keys: Array        # [n, d] in birth order
    values: Array      # [n, d]
    births: np.ndarray
    betas: np.ndarray

    def __len__(self) -> int:
        return self.births.shape[0]


class _Head:
    """A head's live entries in birth order: rows [0, n) of its columns."""

    __slots__ = ("cols", "readonly", "n", "max_birth", "last_slot")

    def __init__(self, capacity: int, dim: int):
        # keys, values, births, betas, slots
        self.cols = (np.empty((capacity, dim)), np.empty((capacity, dim)),
                     np.empty(capacity, dtype=np.int64), np.empty(capacity),
                     np.empty(capacity, dtype=np.int64))
        self.readonly = tuple(a.view() for a in self.cols)
        for a in self.readonly:
            a.flags.writeable = False
        self.n = 0
        self.max_birth = -1
        # slot of the latest placed entry while its page is held, else -1;
        # holes left by eviction are never refilled, so slots follow births
        self.last_slot = -1

    @property
    def slots(self) -> np.ndarray:
        return self.cols[4][:self.n]

    def push(self, key: Array, value: Array, birth: int, beta: float, slot: int) -> None:
        i = self.n
        if i == self.cols[2].shape[0]:
            fresh = _Head(2 * i, key.shape[0])
            for dst, src in zip(fresh.cols, self.cols):
                dst[:i] = src
            self.cols, self.readonly = fresh.cols, fresh.readonly
        for col, x in zip(self.cols, (key, value, birth, beta, slot)):
            col[i] = x
        self.n = i + 1

    def drop(self, rows: list[int]) -> None:
        """Remove rows (ascending): each run of kept rows moves down over the
        dropped rows before it, so only rows after the first dropped one move."""
        for shift, (r, end) in enumerate(zip(rows, rows[1:] + [self.n]), 1):
            if end > r + 1:
                for col in self.cols:
                    col[r + 1 - shift:end - shift] = col[r + 1:end]
        self.n -= len(rows)


class PagedKVStore:
    """Fixed-size pages, per-(layer, head) block tables, per-head logical lengths.

    Single writer per (layer, head). A `gather` result stays valid across
    appends (they write past the end of every view already returned, or into
    new arrays), compactions and evictions of other heads; an `evict` of the
    same head moves its rows and invalidates it.
    """

    def __init__(self, layers: int, heads: int, dim: int,
                 page_size: int = DEFAULT_PAGE_SIZE, max_pages: int | None = None):
        if layers < 1 or heads < 1 or dim < 1 or page_size < 1:
            raise ValueError("layers, heads, dim and page_size must be positive")
        self.layers = layers
        self.heads = heads
        self.dim = dim
        self.page_size = page_size
        self.max_pages = max_pages
        self._live: list[int] = []      # live entries per page id, one per allocated page
        self._free: list[int] = []      # LIFO reuse for reproducible traces
        self._heads = {(l, h): _Head(page_size, dim) for l in range(layers) for h in range(heads)}

    # -- allocation ---------------------------------------------------------

    def _alloc_page(self) -> int:
        if self._free:
            pid = self._free.pop()
        elif self.max_pages is not None and len(self._live) >= self.max_pages:
            raise CacheCapacityError(f"page pool exhausted (max_pages={self.max_pages})")
        else:
            pid = len(self._live)
            self._live.append(0)
        return pid

    def _free_page(self, hd: _Head, pid: int) -> None:
        self._live[pid] = 0
        self._free.append(pid)
        if pid == hd.last_slot // self.page_size:
            hd.last_slot = -1

    def _head(self, layer: int, head: int) -> _Head:
        try:
            return self._heads[(layer, head)]
        except KeyError:
            raise IndexError(f"no such (layer, head): ({layer}, {head})") from None

    def _block_table(self, hd: _Head) -> list[int]:
        """The head's page ids in logical order, one per run of its slot column."""
        pages = hd.slots // self.page_size
        return pages[np.diff(pages, prepend=-1) != 0].tolist()

    # -- operations ---------------------------------------------------------

    def append(self, layer: int, head: int, key, value, birth: int, beta: float) -> tuple[int, int]:
        """Append one entry at the tail of a head's logical sequence.

        Returns the (page_id, slot) address. Births must be strictly
        increasing per head and may never revive an evicted birth index.
        """
        hd = self._head(layer, head)
        birth = int(birth)
        if birth <= hd.max_birth:
            raise ValueError(f"birth {birth} not after previous max {hd.max_birth}")
        k = as_vector(key, "key")
        v = as_vector(value, "value")
        if k.shape[0] != self.dim or v.shape[0] != self.dim:
            raise ValueError(f"entry dim must be {self.dim}")
        if not (0.0 <= beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")

        slot = hd.last_slot + 1     # the tail page's next slot, unless it is full or gone
        if slot % self.page_size == 0:
            slot = self._alloc_page() * self.page_size
        hd.push(k, v, birth, beta, slot)
        hd.max_birth = birth
        hd.last_slot = slot
        self._live[slot // self.page_size] += 1
        return divmod(slot, self.page_size)

    def evict(self, layer: int, head: int, births) -> None:
        """Remove the given birth indices; free pages that become empty."""
        hd = self._head(layer, head)
        gone = [int(b) for b in births]
        stored = hd.cols[2][:hd.n]
        present = set(stored.tolist())
        for birth in gone:
            if birth not in present:     # missing, or named twice
                raise KeyError(f"birth {birth} not present in ({layer}, {head})")
            present.remove(birth)
        rows = stored.searchsorted(gone)
        for slot in hd.slots[rows].tolist():
            pid = slot // self.page_size
            self._live[pid] -= 1
            if self._live[pid] == 0:
                self._free_page(hd, pid)
        hd.drop(sorted(rows.tolist()))

    def gather(self, layer: int, head: int) -> GatherResult:
        """A head's live entries in logical (birth) order, as read-only views
        of the store's arrays (no copy)."""
        hd = self._head(layer, head)
        n = hd.n
        keys, values, births, betas, _ = hd.readonly
        return GatherResult(keys[:n], values[:n], births[:n], betas[:n])

    def live_entries(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Every head's live entry count in (layer, head) order, and the births
        and betas of all live entries in (layer, head, birth) order (copies)."""
        heads = self._heads.values()     # built in (layer, head) order
        return ([hd.n for hd in heads],
                np.concatenate([hd.cols[2][:hd.n] for hd in heads]),
                np.concatenate([hd.cols[3][:hd.n] for hd in heads]))

    def compact(self, layer: int, head: int) -> None:
        """Repack a head's survivors into ceil(n / page_size) pages.

        Gather output is unchanged bit-for-bit; only the page layout moves.
        """
        hd = self._head(layer, head)
        n, ps = hd.n, self.page_size
        table = self._block_table(hd)
        occupancy = [self._live[pid] for pid in table]
        # packed: every page is full but the tail, which is full up to its cursor
        if not n or occupancy == [ps] * (len(table) - 1) + [hd.last_slot % ps + 1]:
            return
        for pid in table:
            self._free_page(hd, pid)
        for i in range(-(-n // ps)):
            pid = self._alloc_page()
            self._live[pid] = min(ps, n - i * ps)
            hd.slots[i * ps:(i + 1) * ps] = pid * ps + np.arange(self._live[pid])
        hd.last_slot = int(hd.slots[-1])

    # -- accounting ---------------------------------------------------------

    def total_entries(self) -> int:
        return sum(hd.n for hd in self._heads.values())

    def pages_in_use(self) -> int:
        return len(self._live) - len(self._free)

    def occupied_slots(self) -> int:
        return sum(self._live)

    def check_accounting(self) -> None:
        """Internal consistency: page occupancy recounted from the stored
        entries matches the page counts, no page aliasing."""
        seen: set[int] = set()
        for key, hd in self._heads.items():
            if np.unique(hd.slots).shape[0] != hd.n or np.any(np.diff(hd.cols[2][:hd.n]) <= 0):
                raise AssertionError(f"stored entries of {key} repeat a slot or a birth")
            for pid in self._block_table(hd):
                if pid in seen:
                    raise AssertionError(f"page {pid} appears in two block tables")
                seen.add(pid)
        pages = np.concatenate([hd.slots // self.page_size for hd in self._heads.values()])
        if np.bincount(pages, minlength=len(self._live)).tolist() != self._live:
            raise AssertionError("page occupancy disagrees with the stored entries")
        if len(seen) != self.pages_in_use():
            raise AssertionError("pages in use disagree with the block tables")
        if seen & set(self._free):
            raise AssertionError("free page still referenced by a block table")

    def snapshot(self) -> dict:
        """JSON-serializable view of block tables and occupancy, for inspection."""
        tables = {}
        for (l, h), hd in sorted(self._heads.items()):
            pages = self._block_table(hd)
            tables[f"{l},{h}"] = {
                "pages": pages,
                "logical_length": hd.n,
                "occupancy": [self._live[pid] for pid in pages],
            }
        return {
            "page_size": self.page_size,
            "pages_allocated": len(self._live),
            "free_pages": list(self._free),
            "tables": tables,
        }
