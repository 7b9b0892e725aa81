import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


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
