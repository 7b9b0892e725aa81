"""Reference oracles: single-head attention over a token cache, full,
hard-evicted, and retention-gated.

No module of the package imports this one; tests check decode and the paged
store against it. All three variants share one weighting kernel
(`softmax_log_space`); they differ only in the log-domain multiplier attached
to each cached token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .numerics import Array, as_matrix, as_vector, softmax_log_space


def geometric_log_weights(betas: Array, ages: Array) -> Array:
    """Log of beta**age under the convention 0**0 == 1.

    A token at age zero participates at full weight even when its retention
    score is exactly zero, so the age-0 log weight is 0 regardless of beta.
    """
    b = np.ascontiguousarray(betas, dtype=np.float64)
    a = np.ascontiguousarray(ages, dtype=np.float64)
    if b.shape != a.shape:
        raise ValueError(f"shape mismatch: betas {b.shape} vs ages {a.shape}")
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise ValueError("betas must lie in [0, 1]")
    if np.any(a < 0.0):
        raise ValueError("ages must be nonnegative")
    out = np.zeros_like(b)
    old = a > 0
    with np.errstate(divide="ignore"):
        out[old] = a[old] * np.log(b[old])
    return out


@dataclass(frozen=True)
class HeadCache:
    """Immutable per-head cache: keys, values, birth steps, retention scores."""

    keys: Array
    values: Array
    birth_steps: Array
    betas: Array

    def __post_init__(self):
        object.__setattr__(self, "keys", as_matrix(self.keys, "keys"))
        object.__setattr__(self, "values", as_matrix(self.values, "values"))
        births = np.ascontiguousarray(self.birth_steps, dtype=np.int64)
        betas = np.ascontiguousarray(self.betas, dtype=np.float64)
        n = self.keys.shape[0]
        if self.values.shape[0] != n or births.shape != (n,) or betas.shape != (n,):
            raise ValueError("keys, values, birth_steps and betas must have equal length")
        if self.values.shape[1] != self.keys.shape[1]:
            raise ValueError("key and value dimensions differ")
        if n > 1 and not np.all(np.diff(births) > 0):
            raise ValueError("birth_steps must be strictly increasing")
        if np.any(betas < 0.0) or np.any(betas > 1.0):
            raise ValueError("betas must lie in [0, 1]")
        object.__setattr__(self, "birth_steps", births)
        object.__setattr__(self, "betas", betas)

    def __len__(self) -> int:
        return self.keys.shape[0]


def _logits(q: Array, cache: HeadCache) -> Array:
    if len(cache) == 0:
        raise ValueError("attention over an empty cache")
    q = as_vector(q, "q")
    d = cache.keys.shape[1]
    if q.shape[0] != d:
        raise ValueError(f"query dim {q.shape[0]} does not match key dim {d}")
    return cache.keys @ q / np.sqrt(d)


def attend_full(q: Array, cache: HeadCache) -> tuple[Array, Array]:
    """Standard scaled dot-product attention over the whole cache.

    Returns (output, weights); weights sum to 1 and output is the
    weight-averaged value vector.
    """
    z = _logits(q, cache)
    weights = softmax_log_space(z, np.zeros_like(z))
    return weights @ cache.values, weights


def attend_retained(q: Array, cache: HeadCache, step: int) -> tuple[Array, Array]:
    """Retention-gated attention: token i is weighted by beta_i ** (step - birth_i).

    With every beta equal to 1 this coincides with `attend_full`. A token whose
    age is zero always participates at full weight (0**0 == 1). Raises
    EmptySupportError when every token has zero weight.
    """
    z = _logits(q, cache)
    ages = int(step) - cache.birth_steps
    if np.any(ages < 0):
        raise ValueError("step precedes a cached token's birth")
    lw = geometric_log_weights(cache.betas, ages)
    weights = softmax_log_space(z, lw)
    return weights @ cache.values, weights


def attend_evicted(q: Array, cache: HeadCache, retained: Iterable[int]) -> tuple[Array, Array]:
    """Hard-evicted attention: softmax restricted to `retained`, zeros elsewhere.

    Equivalent to deleting the evicted entries and renormalizing.
    """
    z = _logits(q, cache)
    idx = set(int(i) for i in retained)
    if not idx:
        raise ValueError("retained set is empty")
    if any(i < 0 or i >= len(cache) for i in idx):
        raise IndexError("retained index out of range")
    lw = np.full(len(cache), -np.inf)
    lw[sorted(idx)] = 0.0
    weights = softmax_log_space(z, lw)
    return weights @ cache.values, weights
