"""The benchmark's hooks into `retainkv` still resolve.

`bench/tracing.py` wraps functions and methods by name, and its traced run
only lists a target it cannot find under `untraced_targets`; `bench/` also
reads result fields by name. A deletion or rename in `retainkv` would blind
the per-module split silently, so this test fails first.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from retainkv.evaluate import DecodeResult, make_policy
from retainkv.paged_cache import GatherResult, PagedKVStore

from conftest import admit

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_targets_resolve(tracing):
    for mod_name, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), \
            f"{mod_name}.{attr}"


def test_theory_suite_keeps_its_cli_name():
    """The bench calls and traces the suite as `cli.run_theory_suite`."""
    from retainkv import cli, theory

    assert cli.run_theory_suite is theory.run_theory_suite


def test_method_targets_resolve(tracing):
    for mod_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert cls is not None and callable(vars(cls).get(attr)), \
            f"{mod_name}.{cls_name}.{attr}"


def test_policy_factory_resolves(tracing):
    mod_name, attr = tracing.POLICY_FACTORY
    assert getattr(importlib.import_module(mod_name), attr) is make_policy
    policy = make_policy("global", 8, PagedKVStore(2, 2, 4))
    # the factory wrapper skips a method the policy lacks; decode calls `step`
    wrapped = {attr for attr, _ in tracing.POLICY_METHODS if callable(getattr(policy, attr, None))}
    assert "step" in wrapped
    # the compress counter asks the policy for its live entries
    assert policy.total_alive() == 0


def test_compress_counter_sees_survivors_only():
    """The scored count is `total_alive()` after `compress` plus the evicted
    entries, so `total_alive()` must already exclude what it evicted."""
    store = PagedKVStore(2, 2, 4)
    policy = make_policy("global", 8, store)
    for t in range(5):
        for l in range(2):
            for h in range(2):
                admit(store, l, h, t, 0.5)
    scored = store.total_entries()
    evicted = sum(len(b) for b in policy.compress(4).values())
    assert evicted > 0
    assert policy.total_alive() == store.total_entries() == 8
    assert policy.total_alive() + evicted == scored


def test_counters_find_their_arguments():
    """The counters read these arguments by position or by name."""
    from retainkv import backbone, evaluate, gates, paged_cache

    def param(fn, index):
        return list(inspect.signature(fn).parameters)[index]

    assert param(evaluate.decode_sequence, 2) == "sample"
    assert param(gates.gate_forward_batch, 0) == "x"
    assert param(backbone.teacher_forward, 1) == "tokens"
    # methods: index 0 is self
    assert param(paged_cache.PagedKVStore.evict, 3) == "births"


def test_result_fields_read_by_the_benchmark():
    decode = {f.name for f in dataclasses.fields(DecodeResult)}
    # bench/workloads.py checks and digests these
    assert {"predictions", "correct", "total", "mean_retained", "peak_entries",
            "peak_pages"} <= decode
    # the gather counter sums the bytes of these
    gather = {f.name for f in dataclasses.fields(GatherResult)}
    assert {"keys", "values", "births", "betas"} <= gather
    assert hasattr(GatherResult, "__len__")
