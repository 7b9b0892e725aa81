"""Global future-utility scoring and one eviction engine over the paged store.

Every cached token (layer, head, birth) is scored by the geometric sum of its
retention weight over a lookahead horizon; one global ranking then keeps the
best M entries across all layers and heads. Capacity allocation across heads
is whatever that ranking produces. The baselines run on the same engine: a
per-head split ranks inside each (layer, head), a sliding window keeps the
newest births, and the full cache never evicts. The store applies each
ranking as a keep mask over its live entries (`retain`). A trace keeps each
ranking as one block of column arrays, which `trace_columns` joins.
"""

from __future__ import annotations

import operator

import numpy as np

from .paged_cache import PagedKVStore

INFINITE = "infinite"
POLICIES = ("full", "global", "per_head", "recency")
SCORED = ("global", "per_head")  # the policies that rank by gate scores


def score_entries(births, betas, now: int, horizon) -> np.ndarray:
    """Future-utility scores for parallel arrays of cache entries.

    Entry i scores sum of beta_i**(s - birth_i) for s in (now, now + horizon],
    in closed form beta**(now+1-birth) * (1 - beta**horizon) / (1 - beta),
    evaluated through exp/log/expm1 so it matches direct summation to full
    precision. beta == 1 scores the limit `horizon`, beta == 0 scores 0. Under
    the infinite horizon the score is beta**(now+1-birth) / (1 - beta), and
    beta == 1 entries get +inf: they outrank every finite score and fall back
    to the tie rule among themselves.
    """
    births = np.asarray(births, dtype=np.int64)
    betas = np.asarray(betas, dtype=np.float64)
    if births.shape != betas.shape:
        raise ValueError("births and betas must have one shape")
    infinite = horizon == INFINITE
    if not infinite:
        horizon = operator.index(horizon)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
    _check_now(births, now)
    if births.size and not (betas.min() >= 0.0 and betas.max() <= 1.0):
        raise ValueError("beta must lie in [0, 1]")
    lead = (now + 1 - births).astype(np.float64)
    # log(0) = -inf gives head 0 at beta == 0; beta == 1 divides by zero and
    # is set below.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_beta = np.log(betas)
        head = np.exp(lead * log_beta)                        # beta ** (now+1-birth)
        if infinite:
            return head / (1.0 - betas)
        scores = head * -np.expm1(horizon * log_beta) / (1.0 - betas)
    scores[betas == 1.0] = float(horizon)
    return scores


def _check_now(births: np.ndarray, now: int) -> None:
    if births.size and now < births.max():
        raise ValueError("now must be >= every birth")


def select_retained(scores, births, layers, heads, m: int, per_head: bool = False) -> np.ndarray:
    """Indices of the entries that survive, best first.

    Ranking: score descending, then younger token (larger birth) first, then
    (layer, head) ascending. Keeps the min(m, n) best entries, or with
    `per_head` the min(m, n) best inside each (layer, head) group, listed
    group by group in (layer, head) order.
    """
    if not per_head:
        # last key is the primary sort key
        return np.lexsort((heads, layers, -births, -scores))[:m]
    order = np.lexsort((-births, -scores, heads, layers))
    if order.size == 0:
        return order
    lo, ho = layers[order], heads[order]
    pos = np.arange(order.size)
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (lo[1:] != lo[:-1]) | (ho[1:] != ho[:-1])
    rank = pos - np.maximum.accumulate(np.where(starts, pos, 0))
    return order[rank < m]


TRACE_FIELDS = ("step", "layer", "head", "token_birth", "score", "retained")


def trace_columns(trace: list) -> dict[str, np.ndarray]:
    """The blocks of an eviction trace joined into one column per field, in
    row order; empty columns if no compression was traced."""
    if not trace:
        dtypes = (np.int64,) * 4 + (np.float64, np.bool_)
        return {f: np.zeros(0, dtype=d) for f, d in zip(TRACE_FIELDS, dtypes)}
    return {f: np.concatenate(col) for f, col in zip(TRACE_FIELDS, zip(*trace))}


class EvictionPolicy:
    """Monotone eviction over a paged store: once out, a token never re-enters.

    The store is the only record of the cache; the policy keeps no entry of
    its own and reads and writes it through `live_entries` and `retain` only.
    Each compression ranks the store's live rows, in (layer, head, birth)
    order, and hands the store the mask of the rows it keeps. `policy`
    chooses what a compression keeps:

    * "global": the `m_global` best entries overall (`select_retained`).
    * "per_head": the same ranking, `m_global` entries in each (layer, head).
    * "recency": in each (layer, head), births after `now - m_global`; nothing
      is scored and it compresses at every step, whatever the cadence.
    * "full": everything; it never compresses.

    `horizon` is the scores' lookahead T - t, or "infinite" for the limit form.
    Entries appended since the last compression stay resident until the next
    one; "global" and "per_head" compress every `cadence` steps and trace a
    row per scored entry, in (birth, layer, head) order for "global" and
    (layer, head, birth) order for "per_head": each compression appends one
    block, the parallel arrays of `TRACE_FIELDS`.
    """

    def __init__(self, store: PagedKVStore, policy: str, m_global: int,
                 horizon: int | str = 2, cadence: int = 1, trace: list | None = None):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.m_global, self.cadence = operator.index(m_global), operator.index(cadence)
        self.horizon = horizon if horizon == INFINITE else operator.index(horizon)
        if self.m_global < 1:
            raise ValueError("m_global must be >= 1")
        if self.horizon != INFINITE and self.horizon < 1:
            raise ValueError("horizon must be >= 1 or 'infinite'")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        self.store = store
        self.policy = policy
        self.trace = trace
        self._layer_of, self._head_of = np.indices((store.layers, store.heads)).reshape(2, -1)

    def total_alive(self) -> int:
        return self.store.total_entries()

    def step(self, now: int) -> dict[tuple[int, int], list[int]]:
        """Run one policy step; returns births evicted per (layer, head).

        A no-op for "full", and for the ranked policies except at multiples
        of the configured cadence.
        """
        if self.policy == "full":
            return {}
        if self.policy != "recency" and (now + 1) % self.cadence != 0:
            return {}
        return self.compress(now)

    def compress(self, now: int) -> dict[tuple[int, int], list[int]]:
        """Evict the losers of one ranking from the store; returns their
        births per (layer, head), in (layer, head) order (`store.retain`).

        Untraced, a ranking that cannot evict (`global` holding at most
        `m_global` entries, `per_head` at most `m_global` in every head) is
        skipped; a traced one always ranks and writes its block.
        """
        if self.policy == "full":
            return {}
        m = self.m_global
        sizes, births, betas = self.store.live_entries()
        if self.policy == "recency":
            keep = births > now - m
        else:
            if self.trace is None and (
                    sum(sizes) if self.policy == "global" else max(sizes)) <= m:
                _check_now(births, now)
                return {}
            layer = self._layer_of.repeat(sizes)
            head = self._head_of.repeat(sizes)
            scores = score_entries(births, betas, now, self.horizon)
            keep = np.zeros(births.shape[0], dtype=bool)
            keep[select_retained(scores, births, layer, head, m,
                                 per_head=self.policy == "per_head")] = True
            if self.trace is not None:
                rows = (np.arange(births.shape[0]) if self.policy == "per_head"
                        else np.lexsort((head, layer, births)))
                self.trace.append((np.full(rows.shape[0], now, dtype=np.int64),
                                   layer[rows], head[rows], births[rows], scores[rows],
                                   keep[rows]))
        return self.store.retain(keep)
