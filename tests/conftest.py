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
