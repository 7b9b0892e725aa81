"""Paged KV storage with per-(layer, head) block tables.

Each (layer, head) keeps its live keys, values, births and betas in compacted
arrays in birth order; that is the only copy of the cache, and `gather`
returns views of it without copying. Pages account for that storage: entries
occupy slots of fixed-size pages drawn from a shared pool, and each head owns
an ordered block table of page ids forming a variable-length logical
sequence. Eviction tombstones slots in place and returns fully emptied pages
to a LIFO free list, so page use follows the paged layout exactly; `compact`
repacks a head's survivors into the minimal number of pages.
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


class _Page:
    __slots__ = ("occupied", "live", "cursor")

    def __init__(self, page_size: int):
        self.occupied = np.zeros(page_size, dtype=bool)
        self.live = 0
        # next append slot; holes left by eviction are never refilled, which
        # keeps slot order identical to birth order
        self.cursor = 0

    def reset(self) -> None:
        self.occupied[:] = False
        self.live = 0
        self.cursor = 0


class _HeadData:
    """A head's live entries in birth order: rows [start, stop) of its arrays.

    A row is never rewritten once a view of it may exist: appends go past
    `stop`, evicting the oldest rows only advances `start`, and any other
    eviction copies the survivors into new arrays.
    """

    __slots__ = ("arrays", "readonly", "start", "stop")

    def __init__(self, capacity: int, dim: int):
        # keys, values, births, betas
        self.arrays = (np.empty((capacity, dim)), np.empty((capacity, dim)),
                       np.empty(capacity, dtype=np.int64), np.empty(capacity))
        self.readonly = tuple(a.view() for a in self.arrays)
        for a in self.readonly:
            a.flags.writeable = False
        self.start = self.stop = 0

    def views(self) -> tuple[Array, Array, np.ndarray, np.ndarray]:
        """Read-only views of the live rows."""
        s, e = self.start, self.stop
        keys, values, births, betas = self.readonly
        return keys[s:e], values[s:e], births[s:e], betas[s:e]

    def append(self, key: Array, value: Array, birth: int, beta: float, spare: int) -> None:
        if self.stop == self.arrays[2].shape[0]:
            self._rebuild(None, max(spare, self.stop - self.start))
        i = self.stop
        keys, values, births, betas = self.arrays
        keys[i] = key
        values[i] = value
        births[i] = birth
        betas[i] = beta
        self.stop = i + 1

    def drop(self, births: list[int], spare: int) -> None:
        """Remove live births (each present once)."""
        pos = np.searchsorted(self.arrays[2][self.start:self.stop], births)
        if pos.max() == len(births) - 1:    # exactly the oldest rows
            self.start += len(births)
            return
        keep = np.ones(self.stop - self.start, dtype=bool)
        keep[pos] = False
        self._rebuild(keep, spare)

    def _rebuild(self, keep: np.ndarray | None, spare: int) -> None:
        """Copy the live rows, or those `keep` selects, into new arrays."""
        live = self.views()
        n = live[2].shape[0] if keep is None else int(np.count_nonzero(keep))
        fresh = _HeadData(n + spare, live[0].shape[1])
        for dst, src in zip(fresh.arrays, live):
            if keep is None:
                dst[:n] = src
            else:
                src.compress(keep, axis=0, out=dst[:n])
        self.arrays, self.readonly = fresh.arrays, fresh.readonly
        self.start, self.stop = 0, n


class _BlockTable:
    __slots__ = ("page_ids", "logical_length", "slot_of_birth", "max_birth")

    def __init__(self):
        self.page_ids: list[int] = []
        self.logical_length = 0
        self.slot_of_birth: dict[int, tuple[int, int]] = {}
        self.max_birth = -1


class PagedKVStore:
    """Fixed-size pages, per-(layer, head) block tables, per-head logical lengths.

    Single writer per (layer, head). A `gather` snapshot never changes:
    `append` writes past the end of every view already returned, and `evict`
    either drops the oldest rows from the live range or rebuilds the survivors
    into new arrays.
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
        self._pages: dict[int, _Page] = {}
        self._free: list[int] = []      # LIFO reuse for reproducible traces
        self._next_page_id = 0
        self._tables = {(l, h): _BlockTable() for l in range(layers) for h in range(heads)}
        self._data = {key: _HeadData(page_size, dim) for key in self._tables}

    # -- allocation ---------------------------------------------------------

    def _alloc_page(self) -> int:
        if self._free:
            pid = self._free.pop()
            self._pages[pid].reset()
            return pid
        if self.max_pages is not None and len(self._pages) >= self.max_pages:
            raise CacheCapacityError(f"page pool exhausted (max_pages={self.max_pages})")
        pid = self._next_page_id
        self._next_page_id += 1
        self._pages[pid] = _Page(self.page_size)
        return pid

    def _table(self, layer: int, head: int) -> _BlockTable:
        try:
            return self._tables[(layer, head)]
        except KeyError:
            raise IndexError(f"no such (layer, head): ({layer}, {head})") from None

    def _place(self, table: _BlockTable, birth: int) -> None:
        """Occupy the next slot of the head's tail page, opening a page if full."""
        if table.page_ids and self._pages[table.page_ids[-1]].cursor < self.page_size:
            pid = table.page_ids[-1]
        else:
            pid = self._alloc_page()
            table.page_ids.append(pid)
        page = self._pages[pid]
        slot = page.cursor
        page.occupied[slot] = True
        page.live += 1
        page.cursor += 1
        table.slot_of_birth[birth] = (pid, slot)

    # -- operations ---------------------------------------------------------

    def append(self, layer: int, head: int, key, value, birth: int, beta: float) -> tuple[int, int]:
        """Append one entry at the tail of a head's logical sequence.

        Returns the (page_id, slot) address. Births must be strictly
        increasing per head and may never revive an evicted birth index.
        """
        table = self._table(layer, head)
        birth = int(birth)
        if birth <= table.max_birth:
            raise ValueError(f"birth {birth} not after previous max {table.max_birth}")
        k = as_vector(key, "key")
        v = as_vector(value, "value")
        if k.shape[0] != self.dim or v.shape[0] != self.dim:
            raise ValueError(f"entry dim must be {self.dim}")
        if not (0.0 <= beta <= 1.0):
            raise ValueError("beta must lie in [0, 1]")

        self._place(table, birth)
        table.logical_length += 1
        table.max_birth = birth
        self._data[(layer, head)].append(k, v, birth, beta, self.page_size)
        return table.slot_of_birth[birth]

    def evict(self, layer: int, head: int, births) -> None:
        """Tombstone the given birth indices; free pages that become empty."""
        table = self._table(layer, head)
        gone = [int(b) for b in births]
        seen: set[int] = set()
        for birth in gone:
            if birth not in table.slot_of_birth or birth in seen:
                raise KeyError(f"birth {birth} not present in ({layer}, {head})")
            seen.add(birth)
        for birth in gone:
            pid, slot = table.slot_of_birth.pop(birth)
            page = self._pages[pid]
            page.occupied[slot] = False
            page.live -= 1
            table.logical_length -= 1
            if page.live == 0:
                table.page_ids.remove(pid)
                self._free.append(pid)
        if not gone:
            return
        self._data[(layer, head)].drop(gone, self.page_size)

    def gather(self, layer: int, head: int) -> GatherResult:
        """A head's live entries in logical (birth) order, as read-only views
        of the store's arrays (no copy)."""
        self._table(layer, head)
        return GatherResult(*self._data[(layer, head)].views())

    def compact(self, layer: int, head: int) -> None:
        """Repack a head's survivors into ceil(n / page_size) pages.

        Gather output is unchanged bit-for-bit; only the page layout moves.
        """
        table = self._table(layer, head)
        dense = all(self._pages[pid].live == self._pages[pid].cursor for pid in table.page_ids)
        full_prefix = all(self._pages[pid].live == self.page_size for pid in table.page_ids[:-1])
        if dense and full_prefix:
            return
        births = sorted(table.slot_of_birth)
        for pid in table.page_ids:
            self._free.append(pid)
        table.page_ids = []
        table.slot_of_birth = {}
        for birth in births:
            self._place(table, birth)

    # -- accounting ---------------------------------------------------------

    def logical_length(self, layer: int, head: int) -> int:
        return self._table(layer, head).logical_length

    def total_entries(self) -> int:
        return sum(t.logical_length for t in self._tables.values())

    def pages_in_use(self) -> int:
        return sum(len(t.page_ids) for t in self._tables.values())

    def occupied_slots(self) -> int:
        return sum(int(self._pages[pid].occupied.sum())
                   for t in self._tables.values() for pid in t.page_ids)

    def check_accounting(self) -> None:
        """Internal consistency: occupancy matches lengths and the stored
        entries, no page aliasing."""
        if self.occupied_slots() != self.total_entries():
            raise AssertionError("occupied slots disagree with logical lengths")
        for key, t in self._tables.items():
            births = self._data[key].views()[2]
            if births.tolist() != sorted(t.slot_of_birth):
                raise AssertionError(f"stored entries of {key} disagree with its block table")
        seen: set[int] = set()
        for t in self._tables.values():
            for pid in t.page_ids:
                if pid in seen:
                    raise AssertionError(f"page {pid} appears in two block tables")
                seen.add(pid)
        if seen & set(self._free):
            raise AssertionError("free page still referenced by a block table")

    def snapshot(self) -> dict:
        """JSON-serializable view of block tables and occupancy, for inspection."""
        tables = {}
        for (l, h), t in sorted(self._tables.items()):
            tables[f"{l},{h}"] = {
                "pages": list(t.page_ids),
                "logical_length": t.logical_length,
                "occupancy": [self._pages[pid].live for pid in t.page_ids],
            }
        return {
            "page_size": self.page_size,
            "pages_allocated": len(self._pages),
            "free_pages": list(self._free),
            "tables": tables,
        }
