"""Golden theory outputs: the theory suite must reproduce them exactly.

`tests/data/golden_theory.json` holds the sha256 of the `run_theory_suite`
report and of the `persistence.csv` rows for seeds 0 and 1 at a reduced
config. The persistence Monte Carlo keeps its default 1000 start states by
1000 rollouts, so the block-exit estimate runs over about 10**6 rows: many
full row chunks and a ragged last one. Between them the two seeds draw
persistence configs with `block` 1 and 2, and with `top_k` 1 and 2 at a
positive `slack`.

Regenerate only when an output change is intended and explained:

    PYTHONPATH=src python tests/test_golden_theory.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from retainkv import cli, theory

GOLDEN = Path(__file__).with_name("data") / "golden_theory.json"
SEEDS = (0, 1)
SMALL_THEORY = {
    "task": {"context_len": 32, "n_keys": 4, "n_values": 3, "n_queries": 2,
             "n_distractor_vocab": 8, "vocab": 40},
    "theory": {"bound_instances": 50, "identity_instances": 50,
               "persistence_configs": 3, "persistence_trials": 1000,
               "n_max": 30, "var_fits": 2},
}


def _config() -> dict:
    return cli._merge(cli.load_config(None), SMALL_THEORY)


def digest(seed: int) -> dict:
    report, rows = theory.run_theory_suite(_config(), seed)
    return {"report": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
            "rows": hashlib.sha256(repr(rows).encode()).hexdigest()}


def _persistence_configs(seed: int) -> list:
    """The persistence configs `run_theory_suite` draws for `seed`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[2])
    out = []
    for _ in range(SMALL_THEORY["theory"]["persistence_configs"]):
        out.append(theory.random_persistence_config(rng))
        rng.integers(2 ** 31)
    return out


def test_configs_cover_block_two_and_relaxed_top_k():
    pcfgs = [p for seed in SEEDS for p in _persistence_configs(seed)]
    assert any(p.block == 2 for p in pcfgs)
    assert any(p.block == 1 for p in pcfgs)
    assert any(p.top_k > 1 and p.slack > 0 for p in pcfgs)


@pytest.mark.parametrize("seed", SEEDS)
def test_theory_suite_matches_golden(seed):
    golden = json.loads(GOLDEN.read_text())
    assert digest(seed) == golden[str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_digest_does_not_depend_on_chunk_rows(monkeypatch, seed):
    default = digest(seed)
    monkeypatch.setattr(theory, "CHUNK_ROWS", 1000)
    assert digest(seed) == default


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_theory.py --write")
    payload = {str(seed): digest(seed) for seed in SEEDS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} seeds to {GOLDEN}")
