"""Golden decode outputs: incremental decoding must reproduce them exactly.

`tests/data/golden_decode.json` holds digests of `decode_sequence` outputs on
the small task of `test_cli.py`, for every policy at budgets 0.0625, 0.25 and
1.0, horizons 2 and "infinite", cadences 1 and 3, under three gate settings:
tied embedding-input gates, untied kv-input gates, and no gates (every beta is
1, so every ranking is decided by the tie rule). It also holds a selection
recorder run, one recorder per sample, and the `retainkv eval` table.

Predictions, accuracy counts, mean retained and peak entries (one `outputs`
digest per case), each sample's peak pages (a plain list, so a change of page
accounting shows apart from the decode outputs) and the trace's (step, layer,
head, token_birth, action) columns must match bit for bit. Trace scores are
compared with rel=1e-12 instead: numpy's vectorised exp/log may differ from
the `math` module's in the last bit.

Regenerate only when an output change is intended and explained:

    PYTHONPATH=src python tests/test_golden_decode.py --write
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from retainkv import cli, tasks
from retainkv.evaluate import SelectionRecorder, decode_sequence
from retainkv.eviction import POLICIES, trace_columns
from retainkv.gates import init_gate_params, save_gates

GOLDEN = Path(__file__).with_name("data") / "golden_decode.json"
SEED = 3
SMALL_TASK = {
    "task": {"context_len": 32, "n_keys": 4, "n_values": 3, "n_queries": 2,
             "n_distractor_vocab": 8, "vocab": 40},
    "model": {"gate_hidden": 8},
    "eval": {"samples": 3, "budgets": [0.0625, 0.25, 1.0], "policies": list(POLICIES),
             "trace": True},
    "survival": {"samples": 2, "horizons": [1, 2, 4, 8]},
}
BUDGETS = (0.0625, 0.25, 1.0)
HORIZONS = (2, "infinite")
CADENCES = (1, 3)
GATE_KINDS = ("tied_embedding", "untied_kv", "none")
SCORE_HEAD = 16   # leading trace scores stored verbatim per case
PAGE_SIZE = 16    # decode_sequence's default


def _world():
    cfg = cli._merge(cli.load_config(None), SMALL_TASK)
    spec, bb, (_, _, _, s_eval) = cli._prepare(cfg, SEED)
    samples = tasks.generate_dataset(spec, cfg["eval"]["samples"], np.random.default_rng(s_eval))
    return cfg, spec, bb, samples


def _gates(kind, spec, bb):
    """Responsive gates (betas spread over about 0.05-0.95), or None."""
    if kind == "none":
        return None
    tied = kind == "tied_embedding"
    gate_input = "embedding" if tied else "kv"
    d_in = bb.shape.d_model if tied else 2 * bb.shape.head_dim
    params = init_gate_params(tasks.default_shape(spec, SMALL_TASK["model"]["gate_hidden"]),
                              d_in, np.random.default_rng(5), tied=tied,
                              gate_input=gate_input, init_scale=2.0, seed=5)
    params.bg -= 18.0
    return params


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _case(bb, gates, samples, policy, budget, horizon, cadence) -> dict:
    trace = []
    outs = []
    pages = []
    for sample in samples:
        r = decode_sequence(bb, gates, sample, policy, budget, horizon=horizon,
                            cadence=cadence, trace=trace)
        outs.append((r.predictions, r.correct, r.total, repr(r.mean_retained),
                     r.peak_entries))
        pages.append(r.peak_pages)
    table = trace_columns(trace)
    cols = [table[f] for f in ("step", "layer", "head", "token_birth")]
    actions = ~table["retained"]   # True where the row's action is "evict"
    scores = table["score"]
    finite = np.isfinite(scores)
    weights = np.random.default_rng(0).uniform(0.5, 1.5, size=scores.shape[0])
    return {
        "outputs": _sha(*[x for o in outs for x in o]),
        "peak_pages": pages,
        "rows": scores.shape[0],
        "trace": _sha(*cols, actions),
        "infinite_scores": _sha(np.flatnonzero(~finite)),
        "score_sum": float(scores[finite].sum()),
        "score_weighted_sum": float((scores[finite] * weights[finite]).sum()),
        "score_head": [float(s) for s in scores[:SCORE_HEAD]],
    }


def _case_keys():
    for kind in GATE_KINDS:
        for policy in POLICIES:
            for budget in BUDGETS:
                for horizon in HORIZONS:
                    for cadence in CADENCES:
                        yield kind, policy, budget, horizon, cadence


def _survival(cfg, bb) -> str:
    """One recorder per sample, as `retainkv survival` runs: each head's reach
    under each criterion, and the mass-set sizes."""
    spec = tasks.TaskSpec(**cfg["task"])
    _, _, (_, _, _, s_eval) = cli._prepare(cfg, SEED)
    samples = tasks.generate_dataset(spec, cfg["survival"]["samples"],
                                     np.random.default_rng(s_eval))
    parts = []
    for sample in samples:
        rec = SelectionRecorder(top_k=cfg["survival"]["top_k"], tau=cfg["survival"]["tau"])
        decode_sequence(bb, None, sample, "full", 1.0, recorder=rec)
        parts += [rec.reach(c, l, h, spec.seq_len) for c in rec.criteria()
                  for l in range(bb.shape.layers) for h in range(bb.shape.heads)]
        parts.append(tuple(rec.mass_set_sizes))
    return _sha(*parts)


def _cli_eval(cfg, spec, bb, tmp: Path) -> str:
    """`retainkv eval` over the full grid: eval.csv without `seconds`, and the
    trace CSV without its `score` column."""
    ckpt = tmp / "gates.ckpt"
    save_gates(ckpt, _gates("tied_embedding", spec, bb))
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(SMALL_TASK))
    out = tmp / "eval"
    code = cli.main(["eval", "--config", str(cfg_path), "--seed", str(SEED),
                     "--out", str(out), "--checkpoint", str(ckpt)])
    assert code == 0
    with open(out / "eval.csv", newline="") as fh:
        rows = [[v for k, v in row.items() if k != "seconds"] for row in csv.DictReader(fh)]
    with open(out / "eviction_trace.csv", newline="") as fh:
        trows = [[v for k, v in row.items() if k != "score"] for row in csv.DictReader(fh)]
    return _sha(repr(rows), repr(trows))


def compute(tmp: Path) -> dict:
    cfg, spec, bb, samples = _world()
    gates = {kind: _gates(kind, spec, bb) for kind in GATE_KINDS}
    cases = {"/".join(map(str, key)): _case(bb, gates[key[0]], samples, *key[1:])
             for key in _case_keys()}
    return {"cases": cases, "survival": _survival(cfg, bb),
            "cli_eval": _cli_eval(cfg, spec, bb, tmp)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def world():
    cfg, spec, bb, samples = _world()
    return bb, samples, {kind: _gates(kind, spec, bb) for kind in GATE_KINDS}


@pytest.mark.parametrize("key", list(_case_keys()), ids=lambda k: "/".join(map(str, k)))
def test_decode_matches_golden(key, golden, world):
    bb, samples, gates = world
    want = golden["cases"]["/".join(map(str, key))]
    got = _case(bb, gates[key[0]], samples, *key[1:])
    assert got["outputs"] == want["outputs"]
    assert got["peak_pages"] == want["peak_pages"]
    assert got["rows"] == want["rows"]
    assert got["trace"] == want["trace"]
    assert got["infinite_scores"] == want["infinite_scores"]
    assert got["score_sum"] == pytest.approx(want["score_sum"], rel=1e-12)
    assert got["score_weighted_sum"] == pytest.approx(want["score_weighted_sum"], rel=1e-12)
    assert got["score_head"] == pytest.approx(want["score_head"], rel=1e-12)


@pytest.mark.parametrize("key", list(_case_keys()), ids=lambda k: "/".join(map(str, k)))
def test_peak_pages_hold_only_the_peak_rows(key, world):
    """Each head holds ceil(n / page_size) pages, so the peak page count
    covers the peak entries with less than one page per head to spare."""
    bb, samples, gates = world
    spare = bb.shape.layers * bb.shape.heads * PAGE_SIZE
    for sample in samples:
        r = decode_sequence(bb, gates[key[0]], sample, *key[1:3], horizon=key[3],
                            cadence=key[4], page_size=PAGE_SIZE)
        assert r.peak_entries <= r.peak_pages * PAGE_SIZE < r.peak_entries + spare


def test_survival_recorder_matches_golden(golden):
    cfg, _, bb, _ = _world()
    assert _survival(cfg, bb) == golden["survival"]


def test_cli_eval_matches_golden(golden, tmp_path):
    cfg, spec, bb, _ = _world()
    assert _cli_eval(cfg, spec, bb, tmp_path) == golden["cli_eval"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_decode.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        payload = compute(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN}")
