"""Golden training outputs: gate training must reproduce them exactly.

`tests/data/golden_train.json` holds `retainkv train` runs on the small task of
`test_cli.py` under the `default`, `tying_off` and `gate_input_kv` presets,
each once with `lambda_cap` 0 and once with a tight budget, where the
capacity hinge is active at every step. For every step it stores the batch
means of `total`, `quality`, `cap`, `kl` and `nll` as `float.hex`, and for
every run the sha256 of the saved checkpoint and of `loss.csv`. All of them
must match bit for bit.

Regenerate only when an output change is intended and explained:

    PYTHONPATH=src python tests/test_golden_train.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from retainkv import cli, training

GOLDEN = Path(__file__).with_name("data") / "golden_train.json"
SEED = 3
SMALL_TASK = {
    "task": {"context_len": 32, "n_keys": 4, "n_values": 3, "n_queries": 2,
             "n_distractor_vocab": 8, "vocab": 40},
    "model": {"gate_hidden": 8},
    "train": {"steps": 8, "n_sequences": 8, "batch_size": 2},
}
PRESETS = ("default", "tying_off", "gate_input_kv")
LOSSES = {
    "quality_only": {"lambda_cap": 0.0},
    "tight_budget": {"lambda_cap": 1.0, "budget_fraction": 0.1},
}
FIELDS = ("total", "quality", "cap", "kl", "nll")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(preset: str, loss: str, tmp: Path) -> dict:
    """One `retainkv train` run; the per-step history is read off `train_gates`."""
    payload = dict(SMALL_TASK, train=dict(SMALL_TASK["train"], **LOSSES[loss]))
    cfg_path = tmp / f"{preset}_{loss}.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp / f"{preset}_{loss}"
    results = []
    real = cli.train_gates

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    cli.train_gates = spy
    try:
        code = cli.main(["train", "--config", str(cfg_path), "--preset", preset,
                         "--seed", str(SEED), "--out", str(out)])
    finally:
        cli.train_gates = real
    assert code == 0 and len(results) == 1
    return {
        "steps": [{f: float.hex(getattr(rec, f)) for f in FIELDS}
                  for rec in results[0].history],
        "checkpoint": _sha(out / "gates.ckpt"),
        "loss_csv": _sha(out / "loss.csv"),
    }


def _keys():
    return [(preset, loss) for preset in PRESETS for loss in LOSSES]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", _keys(), ids=lambda k: "/".join(k))
def test_train_matches_golden(key, golden, tmp_path):
    got = run(*key, tmp_path)
    want = golden["/".join(key)]
    assert len(got["steps"]) == SMALL_TASK["train"]["steps"]
    for step, (g, w) in enumerate(zip(got["steps"], want["steps"])):
        assert g == w, f"step {step}"
    assert got == want
    caps = [float.fromhex(s["cap"]) for s in got["steps"]]
    assert key[1] != "tight_budget" or min(caps) > 0.0


def test_teacher_runs_once_per_drawn_sequence(golden, tmp_path, monkeypatch):
    """The teacher runs once for each distinct pool sequence drawn, and reusing
    its logits leaves every output bit unchanged."""
    teacher_calls, draws = [], []
    real_teacher, real_loss = training.teacher_forward, training.loss_and_grads

    def count_teacher(bb, tokens):
        teacher_calls.append(id(tokens))
        return real_teacher(bb, tokens)

    def record_draw(bb, gates, tokens, *args, **kwargs):
        draws.append(id(tokens))
        return real_loss(bb, gates, tokens, *args, **kwargs)

    monkeypatch.setattr(training, "teacher_forward", count_teacher)
    monkeypatch.setattr(training, "loss_and_grads", record_draw)
    got = run("default", "tight_budget", tmp_path)
    # pool sequences stay alive for the whole run, so id() names a pool index
    assert len(draws) == SMALL_TASK["train"]["steps"] * SMALL_TASK["train"]["batch_size"]
    assert len(set(draws)) < len(draws)
    assert sorted(teacher_calls) == sorted(set(draws))
    assert got == golden["default/tight_budget"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_train.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"/".join(key): run(*key, Path(tmp)) for key in _keys()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} runs to {GOLDEN}")
