"""Gate training against a frozen full-cache teacher.

Seeded Adam with a fixed step size; batch gradients are averaged in a fixed
order so runs are bit-reproducible. Adam rather than plain SGD because the
readout bias starts at 18, where the sigmoid's slope is ~1.5e-8: unnormalized
gradient steps cannot move the betas off their saturated initialization. The
backbone never changes; the teacher is the same backbone running without
gating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backbone import (Backbone, ForwardTrace, new_trace, student_backward, student_forward,
                       teacher_forward, token_ids)
from .gates import GateParams, cap_loss_global_grad, quality_loss
from .numerics import Array


class DivergenceError(RuntimeError):
    """Training loss exceeded the abort threshold."""


DIVERGENCE_LIMIT = 1e6


@dataclass
class LossBreakdown:
    total: float
    quality: float
    cap: float
    kl: float
    nll: float


@dataclass
class TrainResult:
    params: GateParams
    history: list       # LossBreakdown per step
    final: LossBreakdown

    def loss_columns(self) -> dict[str, list]:
        """The loss curve as `loss.csv`'s columns: step, quality, cap, total."""
        return {"step": list(range(len(self.history))),
                **{key: [getattr(rec, key) for rec in self.history]
                   for key in ("quality", "cap", "total")}}


def loss_and_grads(bb: Backbone, gates: GateParams, tokens, lam: float,
                   m_global: float, teacher_logits: Array | None = None,
                   out: ForwardTrace | None = None) -> tuple[LossBreakdown, GateParams]:
    """Full objective on one sequence plus analytic gate gradients.

    Positions 0..T-2 predict the next token. The capacity hinge is evaluated
    on the betas the student actually produced for this sequence. The total is
    quality + lam * cap. `teacher_logits`, if given, must be
    `teacher_forward(bb, tokens)`; the teacher is frozen, so a caller that
    sees the same sequence again may pass them instead of recomputing them.
    `out`, if given, is a trace for `student_forward` to refill.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and >= 0; got {lam}")
    if not (math.isfinite(m_global) and m_global >= 0.0):
        raise ValueError(f"m_global must be finite and >= 0; got {m_global}")
    tokens = token_ids(bb.shape, tokens)
    if tokens.shape[0] < 2:
        raise ValueError("need at least two tokens to form a prediction")
    if teacher_logits is None:
        teacher_logits = teacher_forward(bb, tokens)
    elif np.shape(teacher_logits) != (tokens.shape[0], bb.shape.vocab):
        raise ValueError(f"teacher logits of shape {np.shape(teacher_logits)} for "
                         f"{tokens.shape[0]} tokens and vocab {bb.shape.vocab}")
    student_logits, trace = student_forward(bb, gates, tokens, out)
    targets = tokens[1:]
    kl, nll, dlogits_used = quality_loss(teacher_logits[:-1], student_logits[:-1], targets)
    quality = kl + nll
    T = tokens.shape[0]
    cap, dbeta_flat = cap_loss_global_grad(
        trace.log_weights.reshape(bb.shape.head_count, T, T), m_global)
    dlogits = np.zeros_like(student_logits)
    dlogits[:-1] = dlogits_used
    dbeta = lam * dbeta_flat.reshape(trace.betas.shape)
    grads = student_backward(bb, gates, trace, dlogits, dbeta)
    breakdown = LossBreakdown(float(quality + lam * cap), quality, cap, kl, nll)
    return breakdown, grads


def train_gates(bb: Backbone, gates: GateParams, sequences, *, lam: float = 1.0,
                m_global: float, lr: float = 0.05, steps: int = 200,
                batch_size: int = 4, seed: int = 0,
                callback=None) -> TrainResult:
    """Adam over a pool of fixed sequences; aborts on divergence.

    `sequences` is a list of token arrays sampled up front so that (seed,
    config) fully determines the run. Gradients within a batch average in
    list order. Each pool sequence's teacher logits are computed the first
    time it is drawn and reused for the rest of the call. One student trace,
    sized for the first sequence drawn, is refilled by every draw of that
    length. Training runs on a copy of `gates.flat`; the caller's gates are
    left unchanged.
    """
    n = len(sequences)
    if n == 0:
        raise ValueError("no training sequences")
    if steps < 1 or batch_size < 1:
        raise ValueError(f"steps ({steps}) and batch_size ({batch_size}) must be >= 1")
    if not (math.isfinite(lr) and lr > 0.0):
        raise ValueError(f"lr must be finite and > 0; got {lr}")
    if not (math.isfinite(m_global) and m_global >= 0.0):
        raise ValueError(f"m_global must be finite and >= 0; got {m_global}")
    rng = np.random.default_rng(seed)
    params = gates.with_flat(gates.flat.copy())
    history: list[LossBreakdown] = []
    teacher: dict[int, Array] = {}
    trace: ForwardTrace | None = None
    # low first-moment decay: the capacity hinge is a cliff in beta space, and
    # ordinary momentum carries the betas through the release point into
    # irrecoverable sigmoid saturation
    b1, b2, eps = 0.3, 0.99, 1e-8
    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)
    for step in range(steps):
        # cosine decay keeps the capacity hinge from overshooting: near the
        # budget boundary the normalized Adam step must shrink or the betas
        # blow through into dead saturation
        lr_t = lr * 0.5 * (1.0 + np.cos(np.pi * step / steps))
        idx = rng.integers(0, n, size=batch_size)
        g = np.zeros_like(params.flat)
        tot = qual = cap = kl = nll = 0.0
        for i in map(int, idx):
            if i not in teacher:
                teacher[i] = teacher_forward(bb, sequences[i])
            if trace is None:
                trace = new_trace(bb.shape, len(teacher[i]))
            breakdown, grads = loss_and_grads(bb, params, sequences[i], lam, m_global,
                                              teacher[i], trace)
            g += (1.0 / batch_size) * grads.flat
            tot += breakdown.total / batch_size
            qual += breakdown.quality / batch_size
            cap += breakdown.cap / batch_size
            kl += breakdown.kl / batch_size
            nll += breakdown.nll / batch_size
        if not np.isfinite(tot) or tot > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"loss {tot:.3e} at step {step} exceeded {DIVERGENCE_LIMIT:.0e} "
                f"(quality {qual:.3e}, cap {cap:.3e}); lower the learning rate")
        t = step + 1
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        params.flat -= lr_t * m_hat / (np.sqrt(v_hat) + eps)
        rec = LossBreakdown(tot, qual, cap, kl, nll)
        history.append(rec)
        if callback is not None:
            callback(step, rec)
    return TrainResult(params, history, history[-1])
