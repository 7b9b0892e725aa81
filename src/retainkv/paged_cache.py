"""Per-(layer, head) KV storage, layer-major, counted in fixed-size pages.

The store is four layer-major arrays, the only record of the cache: keys and
values [layers, heads, cap, dim], births and betas [layers, heads, cap]. Head
(l, h) keeps its live entries as rows [0, n) of its slice, in birth order;
each head's n and last birth are plain Python lists, and when one head
reaches `cap` every head's capacity doubles. `gather` returns read-only views
of one head, and `gather_layer` of every head of a layer at once, so decode
can attend heads of equal length in one stacked call. Memory is accounted
in pages of `page_size` rows: page `i` of a head holds rows
[i * page_size, (i + 1) * page_size), so a head holds ceil(n / page_size)
pages, a count derived from n. Eviction removes entries by a keep mask over
`live_entries()` (`retain`) or by birth (`evict`), through one drop: the
survivors move down in place, so the rows stay packed and the emptied tail
pages are no longer held. The store keeps a running count of its live entries.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
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


class PagedKVStore:
    """Per-(layer, head) rows in birth order, held in fixed-size pages.

    `retain` evicts by a keep mask over the live entries and `evict` by
    birth; both keep the running entry count that `total_entries` returns.

    Single writer per (layer, head). The live rows a `gather` or
    `gather_layer` result shows keep their bytes across appends (they write
    past every head's live rows, or into new arrays) and evictions of other
    heads; an eviction from one of its heads moves that head's rows and
    invalidates it.
    """

    def __init__(self, layers: int, heads: int, dim: int,
                 page_size: int = DEFAULT_PAGE_SIZE):
        if layers < 1 or heads < 1 or dim < 1 or page_size < 1:
            raise ValueError("layers, heads, dim and page_size must be positive")
        self.layers = layers
        self.heads = heads
        self.dim = dim
        self.page_size = page_size
        self._n = [[0] * heads for _ in range(layers)]        # live rows per head
        self._last = [[-1] * heads for _ in range(layers)]    # last birth per head
        self._total = 0     # live entries over all heads
        self._cols = ()
        self._resize(page_size)

    def _resize(self, cap: int) -> None:
        """Give every head capacity `cap`: new arrays that hold the old rows."""
        L, H, d = self.layers, self.heads, self.dim
        fresh = (np.empty((L, H, cap, d)), np.empty((L, H, cap, d)),
                 np.empty((L, H, cap), dtype=np.int64), np.empty((L, H, cap)))
        for dst, src in zip(fresh, self._cols):
            dst[:, :, :src.shape[2]] = src
        self._cap = cap
        self._cols = fresh      # keys, values, births, betas
        # [layer][head] -> the head's slices of the four arrays
        self._views = [[tuple(c[l, h] for c in fresh) for h in range(H)] for l in range(L)]
        self._readonly = tuple(a.view() for a in fresh)
        for a in self._readonly:
            a.flags.writeable = False

    def _check(self, layer: int, head: int) -> None:
        if not (0 <= layer < self.layers and 0 <= head < self.heads):
            raise IndexError(f"no such (layer, head): ({layer}, {head})")

    # -- operations ---------------------------------------------------------

    def append(self, layer: int, head: int | None, key, value, birth: int, beta) -> None:
        """Append one entry at the tail of a head's logical sequence: key and
        value [dim], one beta. With `head=None` every head of the layer gets
        one entry at `birth`: keys and values [heads, dim], betas [heads].

        Births are integers, strictly increasing per head, and may never
        revive an evicted birth index. Every check runs before any head is
        written, so a rejected append changes no head.
        """
        self._check(layer, 0 if head is None else head)
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
        birth = operator.index(birth)
        a, z = (0, self.heads) if head is None else (head, head + 1)
        last = max(self._last[layer][a:z])
        if birth <= last:
            raise ValueError(f"birth {birth} not after previous max {last}")
        betas = b.tolist()
        if not all(0.0 <= x <= 1.0 for x in betas):
            raise ValueError("beta must lie in [0, 1]")
        ns = self._n[layer][a:z]
        if max(ns) == self._cap:
            self._resize(2 * self._cap)
        n = ns[0]
        if ns.count(n) == len(ns):      # equal lengths: one slice write per column
            keys, values, births, beta_col = self._cols
            keys[layer, a:z, n], values[layer, a:z, n] = k, v
            births[layer, a:z, n], beta_col[layer, a:z, n] = birth, b
        else:
            for j, (r, (hk, hv, hb, hbeta)) in enumerate(zip(ns, self._views[layer][a:z])):
                hk[r], hv[r], hb[r], hbeta[r] = k[j], v[j], birth, betas[j]
        self._n[layer][a:z] = [r + 1 for r in ns]
        self._last[layer][a:z] = [birth] * len(ns)
        self._total += len(ns)

    def evict(self, layer: int, head: int, births) -> None:
        """Remove the given birth indices; the survivors move down in place.

        Births are integer indices (`operator.index`), so a fractional birth
        raises TypeError. Raises KeyError if a birth is not live or is named
        twice; the message names the first such birth in argument order.
        Either way nothing changes.
        """
        self._check(layer, head)
        gone = [operator.index(b) for b in births]
        stored = self._views[layer][head][2][:self._n[layer][head]]
        rows = stored.searchsorted(gone)
        present = stored.searchsorted(gone, side="right") > rows
        named: set[int] = set()
        for birth, ok in zip(gone, present.tolist()):
            if not ok or birth in named:     # missing, or named twice
                raise KeyError(f"birth {birth} not present in ({layer}, {head})")
            named.add(birth)
        self._drop(layer, head, sorted(rows.tolist()))

    def retain(self, keep) -> dict[tuple[int, int], list[int]]:
        """Evict the live entries that `keep`, a boolean mask in `live_entries()`
        order, marks False; returns their births per (layer, head) in (layer,
        head) order. Raises ValueError, and changes nothing, on any other mask."""
        keep = np.asarray(keep)
        if keep.dtype != np.bool_ or keep.shape != (self._total,):
            raise ValueError(f"keep must be a boolean mask of the {self._total} live entries")
        lost = np.flatnonzero(~keep).tolist()
        evicted, i, end = {}, 0, 0
        for l, ns in enumerate(self._n):
            for h, n in enumerate(ns):
                start, end = end, end + n
                j = bisect_left(lost, end, i)
                if j > i:       # the head's losers, lost[i:j], less its offset
                    evicted[(l, h)] = self._drop(l, h, [r - start for r in lost[i:j]])
                    i = j
        return evicted

    def _drop(self, layer: int, head: int, rows: list[int]) -> list[int]:
        """Remove rows of a head, strictly increasing in [0, n), and return
        their births. Each run of kept rows moves down over the dropped rows
        before it, so only rows after the first dropped one move."""
        ns, cols = self._n[layer], self._views[layer][head]
        n, births = ns[head], [cols[2].item(r) for r in rows]
        for shift, (r, end) in enumerate(zip(rows, rows[1:] + [n]), 1):
            if end > r + 1:
                for col in cols:
                    col[r + 1 - shift:end - shift] = col[r + 1:end]
        ns[head] = n - len(rows)
        self._total -= len(rows)
        return births

    def gather(self, layer: int, head: int) -> GatherResult:
        """A head's live entries in logical (birth) order, as read-only views
        of the store's arrays (no copy)."""
        self._check(layer, head)
        n = self._n[layer][head]
        keys, values, births, betas = self._readonly
        return GatherResult(keys[layer, head, :n], values[layer, head, :n],
                            births[layer, head, :n], betas[layer, head, :n])

    def gather_layer(self, layer: int) -> tuple[tuple[int, ...], Array, Array, np.ndarray]:
        """Every head of a layer at once: each head's length n, and read-only
        views (no copy) of the layer's keys and values [heads, cap, dim] and
        births [heads, cap]. Rows [0, n) of a head are its live entries in
        birth order; the rows past them hold no entry."""
        self._check(layer, 0)
        keys, values, births, _ = self._readonly
        return tuple(self._n[layer]), keys[layer], values[layer], births[layer]

    def live_entries(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Every head's live entry count in (layer, head) order, and the births
        and betas of all live entries in (layer, head, birth) order (copies)."""
        sizes = [n for ns in self._n for n in ns]
        births, betas = self._cols[2:]
        n = sizes[0]
        if sizes.count(n) == len(sizes):    # equal lengths: one copy per column
            return sizes, births[:, :, :n].flatten(), betas[:, :, :n].flatten()
        live = np.arange(self._cap) < np.array(sizes).reshape(self.layers, self.heads, 1)
        return sizes, births[live], betas[live]

    # -- accounting ---------------------------------------------------------

    def total_entries(self) -> int:
        return self._total

    def pages_in_use(self) -> int:
        """Pages held over all heads: each head holds ceil(n / page_size)."""
        ps = self.page_size
        return sum(-(-n // ps) for ns in self._n for n in ns)
