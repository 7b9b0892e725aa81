from typing import Callable

import numpy as np
import pytest

from retainkv.backbone import Backbone
from retainkv.gates import ModelShape
from retainkv.numerics import Array, as_vector


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_backbone(shape: ModelShape, rng: np.random.Generator,
                    d_ff: int | None = None, scale: float = 0.5) -> Backbone:
    """Seeded random frozen backbone, for gradient checks and smoke tests."""
    d = shape.d_model
    d_ff = d_ff or 2 * d
    L, H, dh = shape.layers, shape.heads, shape.head_dim

    def w(*s, fan):
        return rng.normal(0.0, scale / np.sqrt(fan), size=s)

    return Backbone(
        shape=shape,
        embed=w(shape.vocab, d, fan=1),
        pos=w(shape.seq_len, d, fan=1) * 0.1,
        wq=w(L, H, d, dh, fan=d),
        wk=w(L, H, d, dh, fan=d),
        wv=w(L, H, d, dh, fan=d),
        wo=w(L, H, dh, d, fan=dh),
        mlp_w1=w(L, d, d_ff, fan=d),
        mlp_b1=np.zeros((L, d_ff)),
        mlp_w2=w(L, d_ff, d, fan=d_ff),
        mlp_b2=np.zeros((L, d)),
        unembed=w(d, shape.vocab, fan=d),
    )


def finite_diff_grad(f: Callable[[Array], float], x: Array, h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function.

    h = 1e-5 balances truncation against rounding at 64-bit precision.
    """
    x = as_vector(x, "x")
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def admit(store, layer: int, head: int, birth: int, beta: float) -> None:
    """Append one entry with a zero key and value: eviction reads only births
    and betas."""
    zero = np.zeros(store.dim)
    store.append(layer, head, zero, zero, birth, beta)


def check_accounting(store) -> None:
    """Each head's births strictly increase, and `total_entries()` is the sum
    of the heads' lengths."""
    total = 0
    for l in range(store.layers):
        for h in range(store.heads):
            births = store.gather(l, h).births
            if np.any(np.diff(births) <= 0):
                raise AssertionError(f"stored entries of {(l, h)} repeat a birth")
            total += len(births)
    if store.total_entries() != total:
        raise AssertionError(f"entry count {store.total_entries()} is not the heads' total")


def snapshot(store) -> dict:
    """Each head's length and pages held, keyed "layer,head", and the page size."""
    ps = store.page_size
    tables = {f"{l},{h}": {"logical_length": n, "pages": -(-n // ps)}
              for l in range(store.layers) for h, n in enumerate(store.gather_layer(l)[0])}
    return {"page_size": ps, "tables": tables}


def mask_of(n: int, indices) -> np.ndarray:
    """Boolean mask of length n, True at `indices`."""
    m = np.zeros(n, dtype=bool)
    m[list(indices)] = True
    return m


def pytest_addoption(parser):
    parser.addoption("--skip-slow", action="store_true",
                     help="skip the long training-based acceptance criteria")


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--skip-slow"):
        return
    marker = pytest.mark.skip(reason="--skip-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(marker)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: training-based acceptance criteria")
