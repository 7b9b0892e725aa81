"""Incremental decoding with live KV eviction, plus accuracy and selection records.

Every policy runs the same token-by-token path over a paged store; they differ
only in which entries survive each compression. Attention at serving time is
hard: a standard softmax over the currently retained entries. Retention
scores influence serving only through the ranking. Work that reads no cache
(layer 0's projections and gate, and the unembedding) runs once per sequence
as stacked rows. Each layer attends its heads in runs of consecutive heads
that hold the same number of rows, one stacked call per run on views of the
layer-major store: every head of a layer under `full`, `recency` and
`per_head`, and runs of one to all heads under `global`. A stacked call gives
the same bits as one call per head. Records are arrays: the trace in blocks
of columns, and each token's last selection step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .backbone import Backbone, token_ids
from .eviction import SCORED, EvictionPolicy
from .gates import GateParams, gate_features, gate_forward_batch
from .numerics import softmax_kernel
from .paged_cache import DEFAULT_PAGE_SIZE, PagedKVStore
from .tasks import Sample


def make_policy(name: str, total_budget: int, store: PagedKVStore,
                horizon=2, cadence: int = 1, trace=None) -> EvictionPolicy:
    """The eviction engine for one policy over `store` at a total budget of entries.

    `global` ranks against the whole budget; `per_head` and `recency` give
    every (layer, head) of the store an equal share,
    `total_budget // (layers * heads)`.
    """
    m = total_budget if name == "global" else total_budget // (store.layers * store.heads)
    return EvictionPolicy(store, name, max(1, m), horizon, cadence, trace)


class SelectionRecorder:
    """Per-head selections of one sequence under top-K and tau-mass criteria:
    the last step that selected each birth, observed in step order."""

    def __init__(self, top_k=(1, 2, 4), tau=(0.99,)):
        self.top_k = tuple(top_k)
        self.tau = tuple(tau)
        ks, taus = np.asarray(self.top_k), np.asarray(self.tau, dtype=np.float64)
        if ks.size and (not np.issubdtype(ks.dtype, np.integer) or np.any(ks < 1)):
            raise ValueError(f"top_k must be integers >= 1; got {self.top_k}")
        if not np.all((taus > 0.0) & (taus <= 1.0)):
            raise ValueError(f"tau must lie in (0, 1]; got {self.tau}")
        # (layer, head, criterion) -> {birth: last selection step}
        self.last: dict = {}
        self.mass_set_sizes: list[int] = []
        self._step = -1

    def criteria(self):
        return [f"top{k}" for k in self.top_k] + [f"mass{t}" for t in self.tau]

    def observe(self, layer: int, head: int, step: int, births: np.ndarray,
                weights: np.ndarray) -> None:
        if step < self._step:
            raise ValueError(f"step {step} observed after step {self._step}")
        self._step = step
        order = np.argsort(-weights, kind="stable")
        csum = np.cumsum(weights[order])
        ranked = births[order]
        for k in self.top_k:
            self._record(layer, head, f"top{k}", step, ranked[:k].tolist())
        for t in self.tau:
            size = int(np.searchsorted(csum, t - 1e-12) + 1)
            size = min(size, order.shape[0])
            self.mass_set_sizes.append(size)
            self._record(layer, head, f"mass{t}", step, ranked[:size].tolist())

    def reach(self, criterion: str, layer: int, head: int, n_tokens: int) -> np.ndarray:
        """For each birth in [0, n_tokens) of one head, the distance from its
        birth to its last selection, or -1 if it was never selected."""
        last = self.last.get((layer, head, criterion), {})
        reach = np.full(n_tokens, -1, dtype=np.int64)
        reach[list(last)] = np.fromiter(last.values(), np.int64, len(last)) - list(last)
        return reach

    def _record(self, layer, head, criterion, step, chosen):
        self.last.setdefault((layer, head, criterion), {}).update(dict.fromkeys(chosen, step))


@dataclass
class DecodeResult:
    predictions: np.ndarray
    correct: int
    total: int
    mean_retained: float
    peak_entries: int
    peak_pages: int


def _project(wqkv: np.ndarray, gates: GateParams | None, layer: int, x: np.ndarray):
    """q, k and v [n, heads, head_dim] and betas [n, heads] of one layer for
    rows x [n, d_model]; `wqkv` is [layers, 3 * heads, d_model, head_dim], the
    q, k and v weights joined, and betas are 1 without gates.

    Every product runs on one [1, d] row, so n stacked rows equal n one-row
    calls bit for bit (a 2-D gemm over the rows would not).
    """
    rows = x[:, None, None, :]
    y = (rows @ wqkv[layer])[:, :, 0]
    H = y.shape[1] // 3
    q, k, v = y[:, :H], y[:, H:2 * H], y[:, 2 * H:]
    if gates is None:
        return q, k, v, np.ones(q.shape[:2])
    gin = gate_features(rows, k[:, :, None], v[:, :, None], gates.gate_input)
    return q, k, v, gate_forward_batch(gin, layer, gates)[..., 0]


def decode_sequence(bb: Backbone, gates: GateParams | None, sample: Sample,
                    policy_name: str = "full", budget_fraction: float = 1.0,
                    horizon=2, cadence: int = 1, page_size: int = DEFAULT_PAGE_SIZE,
                    recorder: SelectionRecorder | None = None,
                    trace: list | None = None) -> DecodeResult:
    """Teacher-forced incremental pass with live eviction; scores answers.

    The budget fraction, finite and > 0, is relative to the full cache at the
    end of the sequence, `T * layers * heads` entries in total. Only the
    policies in `SCORED` run the gates; the others cache every entry with
    beta 1.
    """
    if not (math.isfinite(budget_fraction) and budget_fraction > 0):
        raise ValueError(f"budget_fraction must be finite and > 0; got {budget_fraction!r}")
    if policy_name not in SCORED:
        gates = None
    shape = bb.shape
    L, H, dh, D = shape.layers, shape.heads, shape.head_dim, shape.d_model
    tokens = token_ids(shape, sample.tokens)
    T = tokens.shape[0]
    total_budget = max(1, int(np.ceil(budget_fraction * T * L * H)))
    store = PagedKVStore(L, H, dh, page_size=page_size)
    policy = make_policy(policy_name, total_budget, store, horizon, cadence, trace)

    retained_after = []
    peak_entries = 0
    peak_pages = 0

    # layer 0's input does not depend on the cache: its rows are fixed up front
    wqkv = np.concatenate([bb.wq, bb.wk, bb.wv], axis=1)
    x0 = bb.embed[tokens] + bb.pos[:T]
    layer0 = list(zip(*_project(wqkv, gates, 0, x0)))   # (q, k, v, betas) per token
    final = np.empty_like(x0)
    scale = np.sqrt(dh)
    for t in range(T):
        h = x0[t]
        for l in range(L):
            q, k, v, betas = layer0[t] if l == 0 else \
                [a[0] for a in _project(wqkv, gates, l, h[None])]
            store.append(l, None, k, v, t, betas)
            attn = np.zeros(D)
            lengths, keys, values, births = store.gather_layer(l)
            lo = 0
            for hi in range(1, H + 1):      # each run [lo, hi) of heads of equal length n
                n = lengths[lo]
                if hi < H and lengths[hi] == n:
                    continue
                w = softmax_kernel((keys[lo:hi, :n] @ q[lo:hi, :, None])[..., 0] / scale)
                o = (w[:, None, :] @ values[lo:hi, :n]) @ bb.wo[l, lo:hi]
                for j in range(hi - lo):
                    attn += o[j, 0]
                    if recorder is not None:
                        recorder.observe(l, lo + j, t, births[lo + j, :n], w[j])
                lo = hi
            h = h + attn
            a = np.tanh(h @ bb.mlp_w1[l] + bb.mlp_b1[l])
            h = h + a @ bb.mlp_w2[l] + bb.mlp_b2[l]
        final[t] = h
        peak_entries = max(peak_entries, store.total_entries())
        peak_pages = max(peak_pages, store.pages_in_use())
        policy.step(t)
        retained_after.append(store.total_entries())

    predictions = np.argmax(final[:, None, :] @ bb.unembed, axis=-1)[:, 0]
    correct = int(np.sum(predictions[sample.query_positions] == sample.answers))
    return DecodeResult(predictions, correct, sample.answers.shape[0],
                        float(np.mean(retained_after)), peak_entries, peak_pages)


@dataclass
class EvalCell:
    policy: str
    budget: float
    accuracy: float
    mean_retained: float
    peak_entries: int
    seconds: float


def evaluate_policies(bb: Backbone, gates: GateParams | None, samples: list,
                      policies, budgets, horizon=2, cadence: int = 1,
                      trace: list | None = None) -> list[EvalCell]:
    """Paired evaluation grid: every cell sees the identical sample list."""
    cells = []
    for budget in budgets:
        for policy in policies:
            t0 = time.perf_counter()
            correct = total = 0
            retained = []
            peak = 0
            for sample in samples:
                res = decode_sequence(bb, gates, sample, policy, budget,
                                      horizon=horizon, cadence=cadence, trace=trace)
                correct += res.correct
                total += res.total
                retained.append(res.mean_retained)
                peak = max(peak, res.peak_entries)
            cells.append(EvalCell(policy, float(budget), correct / total,
                                  float(np.mean(retained)), peak,
                                  time.perf_counter() - t0))
    return cells
