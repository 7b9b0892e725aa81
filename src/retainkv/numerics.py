"""Shared dense numerics: stable softmax in log space, sigmoid, input checks.

All attention weighting in this package runs in the log domain: a multiplicative
retention weight r is folded into the logits as ``z + log r`` before the usual
max-subtracted exp-normalize. Geometric weights beta**age underflow to zero in
linear space for old tokens, while their logs stay exactly representable.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


class EmptySupportError(ValueError):
    """Every candidate entry was suppressed; no distribution exists."""


def as_vector(x, name: str = "x") -> Array:
    """Coerce to a contiguous 1-D float64 array, rejecting non-finite input."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_matrix(x, name: str = "x") -> Array:
    """Coerce to a contiguous 2-D float64 array, rejecting non-finite input."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def sigmoid(x):
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def softmax_kernel(z: Array, out: Array | None = None) -> Array:
    """Max-subtracted softmax along the last axis, with no input checks.

    The package's one softmax: `softmax`, `softmax_log_space`, the backbone's
    causal attention and decode all call it. Entries at -inf get weight
    exactly 0; every row needs at least one finite entry. It writes the
    weights into `out`, a float64 array of z's shape, or else into one new
    array. It never writes into `z`, which may alias a caller's array; the
    in-place exp and divide give the same bits as ``np.exp(z - m) / sum``.
    """
    e = np.subtract(z, z.max(-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(-1, keepdims=True)
    return e


def softmax(logits: Array) -> Array:
    """Plain max-subtracted softmax over a 1-D logit vector."""
    z = as_vector(logits, "logits")
    if z.size == 0:
        raise EmptySupportError("softmax of an empty logit vector")
    return softmax_kernel(z)


def softmax_log_space(logits: Array, log_weights: Array) -> Array:
    """Softmax of ``logits`` with multiplicative weights given in log space.

    Computes w_i proportional to r_i * exp(z_i) as exp(z_i + log r_i), with
    max-subtraction over the finite support. Entries with log weight -inf are
    mapped to exactly 0; they never contribute to the normalizer.

    Raises
    ------
    EmptySupportError
        If every combined logit is -inf (all entries suppressed).
    """
    z = as_vector(logits, "logits")
    lw = np.ascontiguousarray(log_weights, dtype=np.float64)
    if lw.shape != z.shape:
        raise ValueError(f"shape mismatch: logits {z.shape} vs log_weights {lw.shape}")
    if np.any(np.isnan(lw)) or np.any(lw > 0.0):
        raise ValueError("log_weights must lie in [-inf, 0]")
    combined = z + lw
    if not np.isfinite(combined).any():
        raise EmptySupportError("all entries have zero weight")
    return softmax_kernel(combined)
