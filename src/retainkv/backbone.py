"""Frozen toy transformer backbone with manual backpropagation for the gates.

The backbone (embeddings, attention projections, MLPs, unembedding) never
receives gradients. The student runs the same weights with geometric
retention weighting inside every head's softmax; gradients flow through the
student's activations into the gate parameters only, including the paths
through later layers (a gate's input is the hidden state, which depends on
earlier layers' gating).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import (GateParams, ModelShape, gate_features, gate_layer, gate_layer_grad,
                    retention_log_weights, retention_log_weights_grad)
from .numerics import Array, softmax_kernel


@dataclass
class Backbone:
    shape: ModelShape
    embed: Array    # [vocab, d_model]
    pos: Array      # [seq_len, d_model]
    wq: Array       # [L, H, d_model, d_head]
    wk: Array
    wv: Array
    wo: Array       # [L, H, d_head, d_model]
    mlp_w1: Array   # [L, d_model, d_ff]
    mlp_b1: Array   # [L, d_ff]
    mlp_w2: Array   # [L, d_ff, d_model]
    mlp_b2: Array   # [L, d_model]
    unembed: Array  # [d_model, vocab]


@dataclass
class LayerTrace:
    x: Array             # [T, d_model] layer input
    k: Array             # [H, T, d_head]
    v: Array
    q: list              # per head [T, d_head]
    w: Array             # [H, T, T] attention weights, a view of ForwardTrace.weights
    h1: Array | None     # [H, T, d_gate] gate hidden layer and projection, as
    p: Array | None      # `gate_layer` returns them; None without gates
    mlp_act: Array       # [T, d_ff] tanh activations


@dataclass
class ForwardTrace:
    """Student activations cached for the manual backward pass.

    `student_forward(..., out=trace)` refills a trace of the same layers,
    heads, length and gate use in place: its two [L, H, T, T] arrays are
    allocated once for every sequence it serves.
    """

    tokens: np.ndarray
    betas: Array                 # [L, H, T]
    log_weights: Array | None    # [L, H, T, T] retention log weights; None without
                                 # gates; `loss_and_grads` exponentiates them in place
    weights: Array               # [L, H, T, T] attention weights
    layers: list                 # one LayerTrace per layer

    def fits(self, shape: ModelShape, T: int, gated: bool) -> bool:
        """Whether `student_forward` can refill this trace for a length-T sequence."""
        return (self.weights.shape == (shape.layers, shape.heads, T, T)
                and (self.log_weights is not None) == gated)


def new_trace(shape: ModelShape, T: int, gated: bool = True) -> ForwardTrace:
    """An unfilled trace for a length-T sequence, for `student_forward(..., out=)`."""
    L, H = shape.layers, shape.heads
    return ForwardTrace(np.zeros(0, dtype=np.int64), np.ones((L, H, T)),
                        np.empty((L, H, T, T)) if gated else None,
                        np.empty((L, H, T, T)), [])


def token_ids(shape: ModelShape, tokens) -> np.ndarray:
    """`tokens` as a 1-D int64 array of ids in [0, vocab), at most `seq_len` long.

    Raises ValueError on anything else: a negative id would index the
    embedding from its end and a fractional one would be truncated.
    """
    ids = np.asarray(tokens)
    if ids.ndim != 1 or (ids.size and not np.issubdtype(ids.dtype, np.integer)):
        raise ValueError(f"tokens must be a 1-D array of integer ids; got {ids.dtype} "
                         f"of shape {ids.shape}")
    if ids.shape[0] > shape.seq_len:
        raise ValueError(f"sequence length {ids.shape[0]} exceeds model limit {shape.seq_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= shape.vocab):
        raise ValueError(f"token ids must lie in [0, {shape.vocab}); "
                         f"got {ids.min()} to {ids.max()}")
    return ids.astype(np.int64, copy=False)


def teacher_forward(bb: Backbone, tokens) -> Array:
    """Full-cache forward: standard causal attention, no gating. Returns logits.

    Keeps no trace, so no head's [T, T] weights outlive its attention output.
    """
    return _forward(bb, None, token_ids(bb.shape, tokens), None)[0]


def student_forward(bb: Backbone, gates: GateParams | None, tokens,
                    out: ForwardTrace | None = None) -> tuple[Array, ForwardTrace]:
    """Gated forward pass; `gates=None` runs the plain full-cache path.

    Retention enters each head as additive log weights (t - i) * log(beta_i)
    on the causal attention logits; betas come from the gate applied to that
    layer's input hidden state (or to [k || v] in the ablation variant).
    The trace returned is `out`, refilled, if `out.fits` this call, and a new
    one otherwise.
    """
    tokens = token_ids(bb.shape, tokens)
    T, gated = tokens.shape[0], gates is not None
    if out is None or not out.fits(bb.shape, T, gated):
        out = new_trace(bb.shape, T, gated)
    return _forward(bb, gates, tokens, out)


def _forward(bb: Backbone, gates: GateParams | None, tokens: np.ndarray,
             trace: ForwardTrace | None) -> tuple[Array, ForwardTrace | None]:
    """The forward pass over checked token ids. It fills `trace`, which must fit
    them; with `trace=None` it keeps none, as the teacher needs."""
    shape = bb.shape
    T = tokens.shape[0]
    L, H, dh = shape.layers, shape.heads, shape.head_dim
    future = ~np.tri(T, dtype=bool)  # [t, i] is i > t

    h = bb.embed[tokens] + bb.pos[:T]
    betas = np.ones((L, H, T))
    if trace is not None:
        trace.tokens, trace.betas, trace.layers = tokens, betas, []

    for l in range(L):
        x = h
        attn = np.zeros_like(h)
        # k and v may feed the gate, which runs once for all heads; q waits for
        # its head, as computing it here too raised peak memory ~1 MB at T=489
        k, v = x @ bb.wk[l], x @ bb.wv[l]
        h1 = p = None
        if gates is not None:
            h1, p, betas[l] = gate_layer(gate_features(x, k, v, gates.gate_input), l, gates)
            lw = retention_log_weights(betas[l], None if trace is None else trace.log_weights[l])
        qs = []
        for hd in range(H):
            q = x @ bb.wq[l, hd]
            z = q @ k[hd].T
            z /= np.sqrt(dh)
            if gates is not None:
                z += lw[hd]
            np.copyto(z, -np.inf, where=future)
            w = softmax_kernel(z, None if trace is None else trace.weights[l, hd])
            attn += (w @ v[hd]) @ bb.wo[l, hd]
            if trace is not None:
                qs.append(q)
            del z, w  # free them before the next head builds its own [T, T] logits
        h = h + attn
        a = np.tanh(h @ bb.mlp_w1[l] + bb.mlp_b1[l])
        if trace is not None:
            trace.layers.append(LayerTrace(x, k, v, qs, trace.weights[l], h1, p, a))
        h = h + a @ bb.mlp_w2[l] + bb.mlp_b2[l]

    return h @ bb.unembed, trace


def student_backward(bb: Backbone, gates: GateParams, trace: ForwardTrace,
                     dlogits: Array, dbeta_extra: Array) -> GateParams:
    """Gradients of a scalar loss with respect to the gate parameters only.

    `dlogits` is the loss gradient at the student logits; `dbeta_extra` adds a
    direct [L, H, T] gradient on the betas (the capacity loss path). Backbone
    tensors are read but never written; `gates.gate_layer_grad` carries each
    layer's score gradients through its gate.
    """
    L, H, dh = bb.shape.layers, bb.shape.heads, bb.shape.head_dim
    T = trace.tokens.shape[0]
    grads = gates.with_flat(np.zeros_like(gates.flat))

    dh_grad = dlogits @ bb.unembed.T
    for l in reversed(range(L)):
        lt = trace.layers[l]
        dpre = (dh_grad @ bb.mlp_w2[l].T) * (1.0 - lt.mlp_act ** 2)
        dh_grad = dh_grad + dpre @ bb.mlp_w1[l].T

        dx = dh_grad.copy()  # residual into the layer input
        du, dqkv = np.empty((H, T)), []
        for hd, (q, k, v, w) in enumerate(zip(lt.q, lt.k, lt.v, lt.w)):
            do = dh_grad @ bb.wo[l, hd].T
            dw = do @ v.T
            dv = w.T @ do
            dg = w * (dw - (dw * w).sum(axis=1, keepdims=True))
            dqkv.append(((dg @ k) / np.sqrt(dh), (dg.T @ q) / np.sqrt(dh), dv))

            beta = trace.betas[l, hd]
            du[hd] = (retention_log_weights_grad(dg, beta)
                      + dbeta_extra[l, hd] * beta * (1.0 - beta))
        dgin = gate_layer_grad(gate_features(lt.x, lt.k, lt.v, gates.gate_input), l, gates,
                               lt.h1, lt.p, du, grads)
        for hd, (dq, dk, dv) in enumerate(dqkv):
            if gates.gate_input == "embedding":
                dx += dgin[hd]
            else:
                dk += dgin[hd, :, :dh]
                dv += dgin[hd, :, dh:]
            dx += dq @ bb.wq[l, hd].T + dk @ bb.wk[l, hd].T + dv @ bb.wv[l, hd].T
        dh_grad = dx

    return grads
