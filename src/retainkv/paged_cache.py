"""Per-(layer, head) KV storage, counted in fixed-size pages.

Each (layer, head) keeps its live entries as rows [0, n) of one array set in
birth order: keys, values, births and betas, the only record of the cache;
`gather` returns read-only views of it. Memory is accounted in pages of
`page_size` rows: page `i` of a head holds rows
[i * page_size, (i + 1) * page_size), so a head holds ceil(n / page_size)
pages, a count derived from n. Eviction removes rows by position
(`evict_rows`), or by birth (`evict`, which looks the rows up): the survivors
move down in place, so the rows stay packed and the emptied tail pages are no
longer held. The store keeps a running count of its live entries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .numerics import Array

DEFAULT_PAGE_SIZE = 16


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

    __slots__ = ("cols", "readonly", "n", "max_birth")

    def __init__(self, capacity: int, dim: int):
        # keys, values, births, betas
        self.cols = (np.empty((capacity, dim)), np.empty((capacity, dim)),
                     np.empty(capacity, dtype=np.int64), np.empty(capacity))
        self.readonly = tuple(a.view() for a in self.cols)
        for a in self.readonly:
            a.flags.writeable = False
        self.n = 0
        self.max_birth = -1

    def push(self, key: Array, value: Array, birth: int, beta: float) -> None:
        i = self.n
        if i == self.cols[2].shape[0]:
            fresh = _Head(2 * i, key.shape[0])
            for dst, src in zip(fresh.cols, self.cols):
                dst[:i] = src
            self.cols, self.readonly = fresh.cols, fresh.readonly
        keys, values, births, betas = self.cols
        keys[i], values[i], births[i], betas[i] = key, value, birth, beta
        self.n = i + 1
        self.max_birth = birth

    def drop(self, rows: list[int]) -> None:
        """Remove rows (ascending): each run of kept rows moves down over the
        dropped rows before it, so only rows after the first dropped one move."""
        for shift, (r, end) in enumerate(zip(rows, rows[1:] + [self.n]), 1):
            if end > r + 1:
                for col in self.cols:
                    col[r + 1 - shift:end - shift] = col[r + 1:end]
        self.n -= len(rows)


class PagedKVStore:
    """Per-(layer, head) rows in birth order, held in fixed-size pages.

    `evict_rows` removes rows by position and `evict` by birth; both keep
    the running entry count that `total_entries` returns.

    Single writer per (layer, head). A `gather` result stays valid across
    appends (they write past the end of every view already returned, or into
    new arrays) and evictions of other heads; an `evict` or `evict_rows` of
    the same head moves its rows and invalidates it.
    """

    def __init__(self, layers: int, heads: int, dim: int,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if layers < 1 or heads < 1 or dim < 1 or page_size < 1:
            raise ValueError("layers, heads, dim and page_size must be positive")
        self.layers = layers
        self.heads = heads
        self.dim = dim
        self.page_size = page_size
        self._heads = {(l, h): _Head(page_size, dim) for l in range(layers) for h in range(heads)}
        self._total = 0     # live entries over all heads

    def _head(self, layer: int, head: int) -> _Head:
        try:
            return self._heads[(layer, head)]
        except KeyError:
            raise IndexError(f"no such (layer, head): ({layer}, {head})") from None

    # -- operations ---------------------------------------------------------

    def append(self, layer: int, head: int | None, key, value, birth: int, beta) -> None:
        """Append one entry at the tail of a head's logical sequence: key and
        value [dim], one beta. With `head=None` every head of the layer gets
        one entry at `birth`: keys and values [heads, dim], betas [heads].

        Births must be strictly increasing per head and may never revive an
        evicted birth index. Every check runs before any head is written, so a
        rejected append changes no head.
        """
        hds = [self._head(layer, h) for h in (range(self.heads) if head is None else (head,))]
        k, v = np.asarray(key, dtype=np.float64), np.asarray(value, dtype=np.float64)
        b = np.asarray(beta, dtype=np.float64)
        rows, beta_shape = (((self.heads, self.dim), (self.heads,)) if head is None
                            else ((self.dim,), ()))
        if k.shape != rows or v.shape != rows or b.shape != beta_shape:
            raise ValueError(f"need keys and values {rows} and betas {beta_shape}; got "
                             f"{k.shape}, {v.shape} and {b.shape}")
        if head is not None:
            k, v, b = k[None], v[None], b[None]
        # count_nonzero costs a fraction of a reduction such as all()
        if np.count_nonzero(np.isfinite(k)) + np.count_nonzero(np.isfinite(v)) != 2 * k.size:
            raise ValueError("key or value contains non-finite entries")
        birth = int(birth)
        last = max(hd.max_birth for hd in hds)
        if birth <= last:
            raise ValueError(f"birth {birth} not after previous max {last}")
        betas = b.tolist()
        if not all(0.0 <= x <= 1.0 for x in betas):
            raise ValueError("beta must lie in [0, 1]")
        for hd, k_row, v_row, beta_row in zip(hds, k, v, betas):
            hd.push(k_row, v_row, birth, beta_row)
        self._total += len(hds)

    def evict(self, layer: int, head: int, births) -> None:
        """Remove the given birth indices; the survivors move down in place.

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
        self.evict_rows(layer, head, sorted(rows.tolist()))

    def evict_rows(self, layer: int, head: int, rows) -> None:
        """Remove rows of a head by position, given strictly increasing in
        [0, n); the survivors move down in place.

        Raises ValueError, and changes nothing, if the rows are not strictly
        increasing or one lies outside [0, n).
        """
        hd = self._head(layer, head)
        rows = [operator.index(r) for r in rows]
        if not rows:
            return
        if rows[0] < 0 or rows[-1] >= hd.n or any(a >= b for a, b in zip(rows, rows[1:])):
            raise ValueError(f"rows of ({layer}, {head}) must strictly increase "
                             f"within [0, {hd.n}); got {rows}")
        hd.drop(rows)
        self._total -= len(rows)

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
        return self._total

    def pages_in_use(self) -> int:
        """Pages held over all heads: each head holds ceil(n / page_size)."""
        ps = self.page_size
        return sum(-(-hd.n // ps) for hd in self._heads.values())

    def check_accounting(self) -> None:
        """Internal consistency: each head's stored births strictly increase,
        and the running entry count is the sum of the heads' lengths."""
        for key, hd in self._heads.items():
            if np.any(np.diff(hd.cols[2][:hd.n]) <= 0):
                raise AssertionError(f"stored entries of {key} repeat a birth")
        if self._total != sum(hd.n for hd in self._heads.values()):
            raise AssertionError(f"entry count {self._total} is not the heads' total")

    def snapshot(self) -> dict:
        """JSON-serializable view of each head's length and pages held, for inspection."""
        ps = self.page_size
        tables = {f"{l},{h}": {"logical_length": hd.n, "pages": -(-hd.n // ps)}
                  for (l, h), hd in self._heads.items()}
        return {"page_size": ps, "tables": tables}
