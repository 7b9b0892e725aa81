"""Retention gates with a weight-tied final scoring projection, plus losses.

Each (layer, head) owns a two-layer tanh projection; a single scoring vector
and bias shared by every gate turns the projected features into a retention
score in (0, 1). Sharing that readout puts scores from different heads on one
scale, which is what makes a single global ranking meaningful. An untied
variant (per-head readouts) exists for the ablation.

Checkpoint format (versioned, little-endian, documented for byte-exactness):

    bytes 0..7   magic  b"RKVGATE1"
    bytes 8..11  uint32 header length N
    bytes 12..   N bytes of UTF-8 JSON header:
                 {"version": 1, "layers", "heads", "d_in", "d_gate",
                  "activation": "tanh", "tied": bool, "gate_input", "seed"}
    then the payload, `GateParams.flat` as little-endian float64: for each
    (layer, head) in layer-major order, one block of C-order arrays
                 w1 [d_gate, d_in], b1 [d_gate], w2 [d_gate, d_gate], b2 [d_gate]
    then the shared readout row: wg [d_gate], bg [1]
    (untied: one wg [d_gate], bg [1] row per (layer, head), same order)
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import Array, as_matrix, sigmoid

MAGIC = b"RKVGATE1"
INIT_READOUT_BIAS = 18.0  # starts every gate at beta ~= 1 so gating is a no-op
GATE_INPUTS = ("embedding", "kv")  # the layer input, or each head's k || v


@dataclass(frozen=True)
class ModelShape:
    """Dimensions shared by the backbone, gates, and budget accounting."""

    layers: int
    heads: int
    head_dim: int
    gate_hidden: int
    seq_len: int
    vocab: int

    def __post_init__(self):
        for name in ("layers", "heads", "head_dim", "gate_hidden", "seq_len", "vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    @property
    def d_model(self) -> int:
        return self.heads * self.head_dim

    @property
    def head_count(self) -> int:
        return self.layers * self.heads


def _param_count(layers: int, heads: int, d_gate: int, d_in: int, tied: bool) -> int:
    """The floats in the payload: a w1, b1, w2, b2 block per (layer, head), then
    the readout rows (wg, bg), one if tied, else one per (layer, head)."""
    readouts = 1 if tied else layers * heads
    return layers * heads * d_gate * (d_in + 1 + d_gate + 1) + readouts * (d_gate + 1)


@dataclass
class GateParams:
    """Per-(layer, head) projections plus the shared scoring readout.

    Every parameter lives in one float64 vector `flat`, in the checkpoint's
    payload order (see the module docstring); the six tensors are strided
    views of it, so writing through either changes both. proj_* tensors are
    indexed [layer, head, ...]. When `tied` is False the readout tensors grow
    leading (layer, head) axes; everything else is unchanged, which keeps the
    ablation a pure calibration comparison.
    """

    flat: Array
    layers: int
    heads: int
    d_gate: int
    d_in: int
    tied: bool = True
    gate_input: str = "embedding"  # one of GATE_INPUTS
    seed: int | None = None
    w1: Array = field(init=False, repr=False)  # [L, H, d_gate, d_in]
    b1: Array = field(init=False, repr=False)  # [L, H, d_gate]
    w2: Array = field(init=False, repr=False)  # [L, H, d_gate, d_gate]
    b2: Array = field(init=False, repr=False)  # [L, H, d_gate]
    wg: Array = field(init=False, repr=False)  # [d_gate] tied, [L, H, d_gate] untied
    bg: Array = field(init=False, repr=False)  # [] tied, [L, H] untied

    def __post_init__(self):
        if self.gate_input not in GATE_INPUTS:
            raise ValueError(f"gate_input {self.gate_input!r} is not one of {GATE_INPUTS}")
        L, H, dg = self.layers, self.heads, self.d_gate
        count = _param_count(L, H, dg, self.d_in, self.tied)
        self.flat = np.asarray(self.flat, dtype=np.float64)
        if self.flat.shape != (count,):
            raise ValueError(f"flat has shape {self.flat.shape}; these gates need ({count},)")
        readout = () if self.tied else (L, H)
        rows = self.flat[count - math.prod(readout) * (dg + 1):].reshape(readout + (dg + 1,))
        blocks = self.flat[:count - rows.size].reshape(L, H, -1)
        # b1, w2 and b2 start at a, b and c in each block
        a, b, c = dg * self.d_in, dg * (self.d_in + 1), dg * (self.d_in + 1 + dg)
        self.w1, self.b1 = blocks[..., :a].reshape(L, H, dg, self.d_in), blocks[..., a:b]
        self.w2, self.b2 = blocks[..., b:c].reshape(L, H, dg, dg), blocks[..., c:]
        self.wg, self.bg = rows[..., :dg], rows[..., dg:].reshape(readout)

    def with_flat(self, flat: Array) -> "GateParams":
        """Gates of this layout over the vector `flat`, which they view, not copy."""
        return GateParams(flat, self.layers, self.heads, self.d_gate, self.d_in,
                          self.tied, self.gate_input, self.seed)

    def tensors(self) -> dict[str, Array]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2,
                "wg": self.wg, "bg": self.bg}


def init_gate_params(shape: ModelShape, d_in: int, rng: np.random.Generator,
                     tied: bool = True, gate_input: str = "embedding",
                     init_scale: float = 0.1, seed: int | None = None) -> GateParams:
    """Small random projections; readout bias starts at 18.0 so beta > 0.999."""
    L, H, dg = shape.layers, shape.heads, shape.gate_hidden
    params = GateParams(np.zeros(_param_count(L, H, dg, d_in, tied)), L, H, dg, d_in,
                        tied, gate_input, seed)
    params.w1[...] = rng.normal(0.0, init_scale / np.sqrt(d_in), size=params.w1.shape)
    params.w2[...] = rng.normal(0.0, init_scale / np.sqrt(dg), size=params.w2.shape)
    params.wg[...] = rng.normal(0.0, init_scale / np.sqrt(dg), size=params.wg.shape)
    params.bg[...] = INIT_READOUT_BIAS
    return params


def gate_width(shape: ModelShape, mode: str) -> int:
    """The width of a gate input row under `mode`, one of `GATE_INPUTS`."""
    return shape.d_model if mode == "embedding" else 2 * shape.head_dim


def gate_features(x: Array, k: Array, v: Array, mode: str) -> Array:
    """The gate input rows under `mode`: x, shared by the heads, or each head's k || v."""
    return x if mode == "embedding" else np.concatenate([k, v], axis=-1)


def gate_layer(x: Array, layer: int, params: GateParams) -> tuple[Array, Array, Array]:
    """The gate MLP of every head of a layer.

    x is [n, d_in], shared by the heads, or [heads, n, d_in], one block per
    head. Returns the tanh hidden layer h1 and the projection p, both
    [heads, n, d_gate], and beta [heads, n].
    """
    h1 = np.tanh(x @ params.w1[layer].transpose(0, 2, 1) + params.b1[layer][:, None, :])
    p = h1 @ params.w2[layer].transpose(0, 2, 1) + params.b2[layer][:, None, :]
    if params.tied:
        z = p @ params.wg + params.bg
    else:
        z = (p @ params.wg[layer][:, :, None])[..., 0] + params.bg[layer][:, None]
    return h1, p, sigmoid(z)


def gate_layer_grad(x: Array, layer: int, params: GateParams, h1: Array, p: Array,
                    du: Array, grads: GateParams) -> Array:
    """The adjoint of `gate_layer` at x, given the h1 and p it returned and du
    [heads, n], the loss gradient at each head's pre-sigmoid score. Adds the
    layer's gradients into `grads` and returns the gradient at the input rows,
    [heads, n, d_in]; a shared x gets their sum over heads."""
    gw = (p.transpose(0, 2, 1) @ du[..., None])[..., 0]
    if params.tied:
        for g, d in zip(gw, du):  # the shared readout sums in head order
            grads.wg += g
            grads.bg += d.sum()
    else:
        grads.wg[layer] += gw
        grads.bg[layer] += du.sum(axis=1)
    dp = du[..., None] * (params.wg if params.tied else params.wg[layer][:, None, :])
    grads.w2[layer] += dp.transpose(0, 2, 1) @ h1
    grads.b2[layer] += dp.sum(axis=1)
    dpre1 = (dp @ params.w2[layer]) * (1.0 - h1 ** 2)
    grads.w1[layer] += dpre1.transpose(0, 2, 1) @ x
    grads.b1[layer] += dpre1.sum(axis=1)
    return dpre1 @ params.w1[layer]


@functools.lru_cache(maxsize=4)
def _ages(T: int) -> Array:
    """The [T, T] table of ages t - i, shared and read-only."""
    ages = np.subtract.outer(np.arange(T), np.arange(T)).astype(np.float64)
    ages.flags.writeable = False
    return ages


@functools.lru_cache(maxsize=4)
def _past(T: int) -> Array:
    """The [T, T] mask of past entries, t > i; shared and read-only."""
    past = _ages(T) > 0
    past.flags.writeable = False
    return past


@functools.lru_cache(maxsize=4)
def _past_ages(T: int) -> Array:
    """`_ages(T)` clipped at 0, the ages of past entries; shared and read-only."""
    ages = np.maximum(_ages(T), 0.0)
    ages.flags.writeable = False
    return ages


def retention_log_weights(betas: Array, out: Array | None = None) -> Array:
    """Log retention weights [..., T, T] of betas [..., T]: (t - i) * log(beta_i)
    below the diagonal, 0 on and above it, so beta ** 0 == 1 even at beta == 0.

    `out`, if given, is a float64 array of the result's shape; every entry of
    it is written, so nothing of its old contents carries over.
    """
    T = betas.shape[-1]
    if out is None:
        out = np.zeros(betas.shape[:-1] + (T, T))
    else:
        out.fill(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(_ages(T), np.log(betas)[..., None, :], out=out, where=_past(T))
    return out


def retention_log_weights_grad(dz: Array, betas: Array) -> Array:
    """The adjoint of `retention_log_weights`: the gradient [..., T] at the betas'
    pre-sigmoid scores, from dz [..., T, T], the gradient at the log weights."""
    # d(age * log beta)/d(pre-sigmoid) is age * (1 - beta): the sigmoid slope
    # cancels the 1/beta of d(log beta), which also keeps beta == 0 finite
    return (dz * _past_ages(betas.shape[-1])).sum(axis=-2) * (1.0 - betas)


def gate_forward_batch(x: Array, layer: int, params: GateParams) -> Array:
    """Retention scores sigmoid(wg . Proj_{layer,head}(x) + bg) of every head of a layer.

    x is [n, d_in], shared by all heads, or [heads, n, d_in], one block per
    head, and the result is [heads, n]. Stacked rows [n, 1 or heads, 1, d_in]
    give [n, heads, 1], each row bit-identical to a call with that row alone.
    """
    x = np.asarray(x, dtype=np.float64)
    stacked = x.ndim == 4 and x.shape[1] in (1, params.heads) and x.shape[2] == 1
    if x.ndim not in (2, 3) and not stacked:
        raise ValueError(f"x must be [n, d_in], [heads, n, d_in] or "
                         f"[n, 1 or heads, 1, d_in]; got shape {x.shape}")
    if x.shape[-1] != params.d_in:
        raise ValueError(f"gate input dim {x.shape[-1]} != {params.d_in}")
    # count_nonzero costs a fraction of a reduction such as all()
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise ValueError("x contains non-finite entries")
    return gate_layer(x, layer, params)[2]


# -- losses -----------------------------------------------------------------


def quality_loss(teacher_logits: Array, student_logits: Array,
                 targets) -> tuple[float, float, Array]:
    """KL(teacher || student) and student NLL, each a mean over positions.

    Returns (kl, nll, dlogits), where dlogits is the gradient of kl + nll at
    the student logits.
    """
    p_logits = as_matrix(teacher_logits, "teacher_logits")
    q_logits = as_matrix(student_logits, "student_logits")
    if p_logits.shape != q_logits.shape:
        raise ValueError("teacher and student logits must share a shape")
    targets = np.asarray(targets)
    if targets.size and not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(f"targets must be integer vocab indices; got {targets.dtype}")
    targets = targets.astype(np.int64, copy=False)
    n, vocab = p_logits.shape
    if targets.shape != (n,):
        raise ValueError("targets must give one vocab index per position")
    if n and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError(f"targets must lie in [0, {vocab}); "
                         f"got {targets.min()} to {targets.max()}")

    def log_softmax(z):
        zz = z - z.max(axis=-1, keepdims=True)
        return zz - np.log(np.exp(zz).sum(axis=-1, keepdims=True))

    log_p = log_softmax(p_logits)
    log_q = log_softmax(q_logits)
    p = np.exp(log_p)
    q = np.exp(log_q)
    kl = float((p * (log_p - log_q)).sum(axis=-1).mean())
    rows = np.arange(n)
    nll = float(-log_q[rows, targets].mean())
    onehot = np.zeros_like(q)
    onehot[rows, targets] = 1.0
    dlogits = ((q - p) + (q - onehot)) / n
    return kl, nll, dlogits


def cap_loss_global_grad(log_weights: Array, m_global: float) -> tuple[float, Array]:
    """Hinge on the global retained mass, sum_t max(0, mass_t - m_global), and
    its subgradient with respect to each beta.

    log_weights is [(layers * heads), T, T], `retention_log_weights` of the
    betas [(layers * heads), T]; it is exponentiated in place, so it holds the
    decay beta ** (t - i) after the call. Entry (g, i) of the betas is token
    i's score in head group g, and mass_t sums beta_{g,i}**(t - i) over groups
    and tokens i <= t, with beta**0 == 1. d mass_t / d beta_{g,i} is
    (t - i) * beta**(t - i - 1) for t > i and zero at t == i; the hinge
    subgradient is 1[mass_t > m_global].
    """
    decay = np.asarray(log_weights, dtype=np.float64)
    if decay.ndim != 3 or decay.shape[1] != decay.shape[2]:
        raise ValueError(f"log weights must be [groups, T, T]; got shape {decay.shape}")
    # NaN fails `<= 0` as a max too, so this is the betas' [0, 1] check
    if decay.size and not decay.max() <= 0.0:
        raise ValueError("log weights must lie in [-inf, 0], from betas in [0, 1]")
    ages = _ages(decay.shape[2])
    # decay[g, t, i] = beta_{g,i} ** (t - i) for i <= t; above, the log weight's 0 stays
    np.exp(decay, out=decay, where=ages >= 0)
    mass = decay.sum(axis=2).sum(axis=0)
    loss = float(np.maximum(0.0, mass - m_global).sum())
    # beta ** (t - i - 1) is the decay one step earlier
    active = (mass > m_global).astype(np.float64)
    dbeta = ((active[1:, None] * ages[1:]) * decay[:, :-1]).sum(axis=1)
    return loss, dbeta


# -- checkpoint io ----------------------------------------------------------


def save_gates(path, params: GateParams) -> None:
    header = {
        "version": 1,
        "layers": params.layers,
        "heads": params.heads,
        "d_in": params.d_in,
        "d_gate": params.d_gate,
        "activation": "tanh",
        "tied": params.tied,
        "gate_input": params.gate_input,
        "seed": params.seed,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f8").tobytes())


def load_gates(path) -> GateParams:
    """Read a checkpoint written by `save_gates`.

    Raises OSError if the file cannot be read and ValueError if its contents
    are not exactly one well-formed checkpoint: bad magic, version or header
    (an activation other than tanh, or a seed other than null or a
    non-negative int, included), truncated arrays, trailing bytes, or a
    parameter that is NaN or infinite.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ValueError(f"not a gate checkpoint (magic {blob[:8]!r})")
    if len(blob) < 12:
        raise ValueError("truncated checkpoint header")
    (n,) = struct.unpack_from("<I", blob, 8)
    if len(blob) < 12 + n:
        raise ValueError("truncated checkpoint header")
    try:
        header = json.loads(blob[12:12 + n].decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"unreadable checkpoint header ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    if header.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {header.get('version')}")
    missing = {"layers", "heads", "d_in", "d_gate", "tied", "gate_input", "activation",
               "seed"} - set(header)
    if missing:
        raise ValueError(f"checkpoint header lacks {sorted(missing)}")
    if header["activation"] != "tanh":
        raise ValueError(f"unsupported gate activation {header['activation']!r}; "
                         "the gates are tanh")
    L, H = header["layers"], header["heads"]
    d_in, dg = header["d_in"], header["d_gate"]
    tied = header["tied"]
    if not all(type(v) is int and v >= 1 for v in (L, H, d_in, dg)) or type(tied) is not bool:
        raise ValueError("checkpoint header has bad dimensions")
    seed = header["seed"]
    if seed is not None and (type(seed) is not int or seed < 0):
        raise ValueError(f"checkpoint seed must be null or a non-negative integer; got {seed!r}")

    count = _param_count(L, H, dg, d_in, tied)
    payload = len(blob) - 12 - n
    if payload < 8 * count:
        raise ValueError("truncated checkpoint")
    if payload > 8 * count:
        raise ValueError(f"{payload - 8 * count} trailing bytes after the checkpoint")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=12 + n)
    if not np.isfinite(data).all():
        raise ValueError("checkpoint has non-finite parameters")
    return GateParams(data.copy(), L, H, dg, d_in, tied, header["gate_input"], seed)
