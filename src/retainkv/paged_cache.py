"""Paged KV storage with per-(layer, head) block tables.

Each (layer, head) keeps its live entries as rows [0, n) of one array set in
birth order: keys, values, births and betas, the only record of the cache;
`gather` returns read-only views of it. The rows sit in fixed-size pages of a
shared pool, and a head's block table says where they are: its page `i` holds
rows [i * page_size, (i + 1) * page_size), so a head holds
ceil(n / page_size) pages. Eviction moves the survivors down in place, so the
rows stay packed, and returns the emptied tail pages to a LIFO free list.
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
    """A head's live entries in birth order: rows [0, n) of its columns, and
    its block table."""

    __slots__ = ("cols", "readonly", "n", "max_birth", "pages")

    def __init__(self, capacity: int, dim: int):
        # keys, values, births, betas
        self.cols = (np.empty((capacity, dim)), np.empty((capacity, dim)),
                     np.empty(capacity, dtype=np.int64), np.empty(capacity))
        self.readonly = tuple(a.view() for a in self.cols)
        for a in self.readonly:
            a.flags.writeable = False
        self.n = 0
        self.max_birth = -1
        self.pages: list[int] = []

    def push(self, key: Array, value: Array, birth: int, beta: float) -> None:
        i = self.n
        if i == self.cols[2].shape[0]:
            fresh = _Head(2 * i, key.shape[0])
            for dst, src in zip(fresh.cols, self.cols):
                dst[:i] = src
            self.cols, self.readonly = fresh.cols, fresh.readonly
        for col, x in zip(self.cols, (key, value, birth, beta)):
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
    new arrays) and evictions of other heads; an `evict` of the same head
    moves its rows and invalidates it.
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
        self._allocated = 0             # page ids handed out so far: 0 .. _allocated - 1
        self._free: list[int] = []      # LIFO reuse for reproducible traces
        self._heads = {(l, h): _Head(page_size, dim) for l in range(layers) for h in range(heads)}

    # -- allocation ---------------------------------------------------------

    def _alloc_page(self) -> int:
        if self._free:
            return self._free.pop()
        if self.max_pages is not None and self._allocated >= self.max_pages:
            raise CacheCapacityError(f"page pool exhausted (max_pages={self.max_pages})")
        self._allocated += 1
        return self._allocated - 1

    def _head(self, layer: int, head: int) -> _Head:
        try:
            return self._heads[(layer, head)]
        except KeyError:
            raise IndexError(f"no such (layer, head): ({layer}, {head})") from None

    # -- operations ---------------------------------------------------------

    def append(self, layer: int, head: int, key, value, birth: int, beta: float) -> tuple[int, int]:
        """Append one entry at the tail of a head's logical sequence.

        Returns the (page_id, index in page) address. Births must be strictly
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

        i = hd.n
        if i == len(hd.pages) * self.page_size:     # every held page is full
            hd.pages.append(self._alloc_page())
        hd.push(k, v, birth, beta)
        hd.max_birth = birth
        return hd.pages[-1], i % self.page_size

    def evict(self, layer: int, head: int, births) -> None:
        """Remove the given birth indices; free the tail pages left empty.

        Raises KeyError, and changes nothing, if a birth is not live or is
        named twice; the message names the first such birth in argument order.
        """
        hd = self._head(layer, head)
        gone = [int(b) for b in births]
        stored = hd.cols[2][:hd.n]
        rows = stored.searchsorted(gone)
        present = stored.searchsorted(gone, side="right") > rows
        named: set[int] = set()
        for birth, ok in zip(gone, present.tolist()):
            if not ok or birth in named:     # missing, or named twice
                raise KeyError(f"birth {birth} not present in ({layer}, {head})")
            named.add(birth)
        hd.drop(sorted(rows.tolist()))
        keep = -(-hd.n // self.page_size)
        self._free.extend(reversed(hd.pages[keep:]))
        del hd.pages[keep:]

    def gather(self, layer: int, head: int) -> GatherResult:
        """A head's live entries in logical (birth) order, as read-only views
        of the store's arrays (no copy)."""
        hd = self._head(layer, head)
        n = hd.n
        keys, values, births, betas = hd.readonly
        return GatherResult(keys[:n], values[:n], births[:n], betas[:n])

    def live_entries(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Every head's live entry count in (layer, head) order, and the births
        and betas of all live entries in (layer, head, birth) order (copies)."""
        heads = self._heads.values()     # built in (layer, head) order
        return ([hd.n for hd in heads],
                np.concatenate([hd.cols[2][:hd.n] for hd in heads]),
                np.concatenate([hd.cols[3][:hd.n] for hd in heads]))

    # -- accounting ---------------------------------------------------------

    def total_entries(self) -> int:
        return sum(hd.n for hd in self._heads.values())

    def pages_in_use(self) -> int:
        return self._allocated - len(self._free)

    def check_accounting(self) -> None:
        """Internal consistency: each head's births strictly increase and it
        holds ceil(n / page_size) pages; no page is in two block tables, or in
        one and on the free list; `pages_in_use()` counts the tables' pages."""
        seen: set[int] = set()
        for key, hd in self._heads.items():
            if np.any(np.diff(hd.cols[2][:hd.n]) <= 0):
                raise AssertionError(f"stored entries of {key} repeat a birth")
            if len(hd.pages) != -(-hd.n // self.page_size):
                raise AssertionError(f"{key} holds {len(hd.pages)} pages for {hd.n} rows")
            for pid in hd.pages:
                if pid in seen:
                    raise AssertionError(f"page {pid} appears in two block tables")
                seen.add(pid)
        if seen & set(self._free):
            raise AssertionError("free page still referenced by a block table")
        if len(seen) != self.pages_in_use():
            raise AssertionError("pages in use disagree with the block tables")

    def snapshot(self) -> dict:
        """JSON-serializable view of block tables and occupancy, for inspection."""
        ps = self.page_size
        tables = {}
        for (l, h), hd in sorted(self._heads.items()):
            tables[f"{l},{h}"] = {
                "pages": list(hd.pages),
                "logical_length": hd.n,
                "occupancy": [min(ps, hd.n - i * ps) for i in range(len(hd.pages))],
            }
        return {
            "page_size": ps,
            "pages_allocated": self._allocated,
            "free_pages": list(self._free),
            "tables": tables,
        }
