"""Experiment runner: parses a config, loads checkpoints and writes outputs.

Subcommands `theory`, `train`, `eval`, `survival` each take a JSON config
(`--config`), a mandatory `--seed`, and an output directory (`--out`).
Exit codes: 0 success, 1 assertion or theory violation, 2 bad input: a bad
config, a negative `--seed`, an `--out` that cannot be made a directory, or a
missing, corrupt or mismatched `--checkpoint`, each reported in one line.
Outputs are plain CSV/JSON for external plotting; aside from wall-clock
timing columns, (config, seed) determines every output byte. No environment variable is read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile

import numpy as np

from .eviction import POLICIES, SCORED, trace_columns
from .evaluate import SelectionRecorder, decode_sequence, evaluate_policies
from .gates import GATE_INPUTS, GateParams, gate_width, init_gate_params, load_gates, save_gates
from .tasks import TaskSpec, build_task_model, default_shape, generate_dataset
from .theory import MIN_TRIALS, run_theory_suite, survival_curve
from .training import DivergenceError, train_gates

CONFIG_VERSION = 1

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "task": {"context_len": 96, "n_keys": 8, "n_values": 4, "n_queries": 4,
             "n_distractor_vocab": 16, "vocab": 64},
    "model": {"gate_hidden": 16},
    "train": {"steps": 500, "batch_size": 4, "lr": 0.005, "lambda_cap": 1.0,
              "budget_fraction": 0.15, "tied": True, "gate_input": "embedding",
              "n_sequences": 64},
    "eviction": {"horizon": 2, "cadence": 1},
    "eval": {"budgets": [0.0625, 0.25], "policies": list(POLICIES), "samples": 30,
             "trace": False},
    "survival": {"samples": 4, "top_k": [1, 2, 4], "tau": [0.99],
                 "horizons": [1, 2, 4, 8, 16, 32, 64]},
    "theory": {"bound_instances": 1000, "identity_instances": 1000,
               "persistence_configs": 5, "persistence_trials": 2000,
               "n_max": 200, "var_fits": 10, "var_radius": 0.76},
}

PRESETS = {
    "default": {},
    "tying_off": {"train": {"tied": False}},
    "gate_input_kv": {"train": {"gate_input": "kv"}},
    "lookahead1": {"eviction": {"horizon": 1}},
    "lookahead2": {"eviction": {"horizon": 2}},
    "lookahead5": {"eviction": {"horizon": 5}},
}


class ConfigError(ValueError):
    """Bad input: a config, or a checkpoint that cannot serve the backbone."""


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


# Allowed values of float keys and of float list items; every int key and int
# list item must be >= 1, or >= its entry in INT_MINIMUMS.
FLOAT_RANGES = {
    "train.lr": ("> 0", lambda v: v > 0),
    "train.lambda_cap": (">= 0", lambda v: v >= 0),
    "train.budget_fraction": ("> 0", lambda v: v > 0),
    "eval.budgets": ("in (0, 1]", lambda v: 0 < v <= 1),
    "survival.tau": ("in (0, 1]", lambda v: 0 < v <= 1),
    "theory.var_radius": ("in (0, 1)", lambda v: 0 < v < 1),
}
INT_MINIMUMS = {"theory.persistence_trials": MIN_TRIALS}


def _check_value(name: str, val, default) -> None:
    """Raise ConfigError unless `val` has the type of `default` and an
    allowed value."""
    if name == "eviction.horizon" and val == "infinite":
        return
    if isinstance(default, list):
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{name} must be a non-empty list, got {val!r}")
        for item in val:
            _check_value(name, item, default[0])
        if len(set(val)) != len(val):
            raise ConfigError(f"{name} must not repeat an item, got {val!r}")
    elif isinstance(default, (bool, str)):
        if type(val) is not type(default):
            raise ConfigError(f"{name} must be a {type(default).__name__}, got {val!r}")
        if name == "train.gate_input" and val not in GATE_INPUTS:
            raise ConfigError(f"{name} must be one of {list(GATE_INPUTS)}, got {val!r}")
    elif isinstance(default, int):
        low = INT_MINIMUMS.get(name, 1)
        if type(val) is not int or val < low:
            raise ConfigError(f"{name} must be an integer >= {low}, got {val!r}")
    elif type(val) not in (int, float) or not np.isfinite(val):
        raise ConfigError(f"{name} must be a finite number, got {val!r}")
    elif name in FLOAT_RANGES and not FLOAT_RANGES[name][1](val):
        raise ConfigError(f"{name} must be {FLOAT_RANGES[name][0]}, got {val!r}")


def load_config(path: str | None, preset: str = "default") -> dict:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; options: {sorted(PRESETS)}")
    cfg = _merge(DEFAULT_CONFIG, PRESETS[preset])
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    version = cfg.get("version")
    if type(version) is not int or version != CONFIG_VERSION:
        raise ConfigError(f"config version must be the integer {CONFIG_VERSION}, "
                          f"got {version!r}")
    unknown = set(cfg) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section in ("task", "model", "train", "eviction", "eval", "survival", "theory"):
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"[{section}] must be a JSON object, got {cfg[section]!r}")
        extra = set(cfg[section]) - set(DEFAULT_CONFIG[section])
        if extra:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(extra)}")
        for key, default in DEFAULT_CONFIG[section].items():
            _check_value(f"{section}.{key}", cfg[section][key], default)
    for policy in cfg["eval"]["policies"]:
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy {policy!r}")
    try:
        TaskSpec(**cfg["task"])
    except ValueError as exc:
        raise ConfigError(f"bad [task]: {exc}") from None
    return cfg


# -- schema-checked writers ---------------------------------------------------

EVAL_COLUMNS = ("policy", "budget", "accuracy", "mean_retained", "peak_entries", "seconds")
LOSS_COLUMNS = ("step", "quality", "cap", "total")
SURVIVAL_COLUMNS = ("criterion", "layer", "head", "horizon", "fraction")
TRACE_COLUMNS = ("step", "layer", "head", "token_birth", "score", "action")


@contextlib.contextmanager
def _atomic(path: str):
    """A text file beside `path` that replaces it on success; on any failure
    it is removed and `path` is left as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, table: dict, columns: tuple, name: str) -> None:
    """Write `table`, one sequence per column. Raises AssertionError, and
    writes nothing, unless it has these columns, of one length, with no NaN
    and no infinity in a float column except +inf in the trace's `score`."""
    if set(table) != set(columns):
        raise AssertionError(f"{name} columns {sorted(table)} != {sorted(columns)}")
    cols = [np.asarray(table[key]) for key in columns]
    if len({c.shape for c in cols}) > 1:
        raise AssertionError(f"{name} columns differ in length")
    for key, col in zip(columns, cols):
        if col.dtype.kind == "f":
            ok = np.isfinite(col)
            if (name, key) == ("trace", "score"):   # a beta of 1.0, infinite horizon
                ok |= col == np.inf
            if not ok.all():
                raise AssertionError(f"{name} column {key} has a non-finite value")
    with _atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*(c.tolist() for c in cols)))


def write_json(path: str, payload: dict) -> None:
    with _atomic(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- subcommand bodies ----------------------------------------------------------


def _prepare(cfg: dict, seed: int):
    spec = TaskSpec(**cfg["task"])
    master = np.random.SeedSequence(seed)
    s_model, s_data, s_gates, s_train, s_eval = master.spawn(5)
    bb = build_task_model(spec, np.random.default_rng(s_model))
    return spec, bb, (s_data, s_gates, s_train, s_eval)


def _load_checkpoint(path: str | None, bb) -> GateParams | None:
    """Load `--checkpoint`, checking it fits the backbone before any decoding."""
    if not path:
        return None
    try:
        gates = load_gates(path)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad checkpoint {path}: {exc}") from None
    shape = bb.shape
    have = (gates.layers, gates.heads, gates.d_in, gates.gate_input)
    need = (shape.layers, shape.heads, gate_width(shape, gates.gate_input), gates.gate_input)
    if have != need:
        raise ConfigError(f"checkpoint {path} does not fit the backbone: (layers, heads, "
                          f"d_in, gate_input) is {have}, the backbone needs {need}")
    return gates


PERSISTENCE_COLUMNS = ("config", "horizon", "criterion", "fraction")


def cmd_theory(cfg: dict, seed: int, out: str, args) -> int:
    report, pers_rows = run_theory_suite(cfg, seed)
    write_json(os.path.join(out, "theory_report.json"), report)
    table = {key: [row[key] for row in pers_rows] for key in PERSISTENCE_COLUMNS}
    write_csv(os.path.join(out, "persistence.csv"), table, PERSISTENCE_COLUMNS, "persistence")
    print(f"theory: {report['violations_total']} violations "
          f"({report['dilution_bound']['violations']} bound, {report['reweighting']['violations']} identity, "
          f"{report['persistence']['violations']} persistence)")
    return 0 if report["violations_total"] == 0 else 1


def cmd_train(cfg: dict, seed: int, out: str, args) -> int:
    spec, bb, (s_data, s_gates, s_train, _) = _prepare(cfg, seed)
    tr = cfg["train"]
    data_rng = np.random.default_rng(s_data)
    sequences = [s.tokens for s in generate_dataset(spec, tr["n_sequences"], data_rng)]
    gates = init_gate_params(default_shape(spec, cfg["model"]["gate_hidden"]),
                             gate_width(bb.shape, tr["gate_input"]),
                             np.random.default_rng(s_gates), tied=tr["tied"],
                             gate_input=tr["gate_input"], seed=seed)
    m_global = tr["budget_fraction"] * spec.seq_len * bb.shape.head_count
    try:
        result = train_gates(bb, gates, sequences, lam=tr["lambda_cap"],
                             m_global=m_global, lr=tr["lr"], steps=tr["steps"],
                             batch_size=tr["batch_size"],
                             seed=int(np.random.default_rng(s_train).integers(2 ** 31)))
    except DivergenceError as exc:
        print(f"train: diverged: {exc}", file=sys.stderr)
        return 1
    save_gates(os.path.join(out, "gates.ckpt"), result.params)
    write_csv(os.path.join(out, "loss.csv"), result.loss_columns(), LOSS_COLUMNS, "loss")
    print(f"train: final total {result.final.total:.4f} "
          f"(quality {result.final.quality:.4f}, cap {result.final.cap:.4f})")
    return 0


def cmd_eval(cfg: dict, seed: int, out: str, args) -> int:
    spec, bb, (s_data, _, _, s_eval) = _prepare(cfg, seed)
    ecfg = cfg["eval"]
    gates = _load_checkpoint(args.checkpoint, bb)
    gated = set(SCORED) & set(ecfg["policies"])
    if gates is None and gated:
        raise ConfigError(f"policies {sorted(gated)} require --checkpoint")
    samples = generate_dataset(spec, ecfg["samples"], np.random.default_rng(s_eval))
    trace = [] if ecfg.get("trace") else None
    cells = evaluate_policies(bb, gates, samples, ecfg["policies"], ecfg["budgets"],
                              cfg["eviction"]["horizon"], cfg["eviction"]["cadence"], trace)
    table = {key: [getattr(c, key) for c in cells] for key in EVAL_COLUMNS}
    table["seconds"] = [round(s, 4) for s in table["seconds"]]
    write_csv(os.path.join(out, "eval.csv"), table, EVAL_COLUMNS, "eval")
    if trace is not None:
        table = trace_columns(trace)
        table["action"] = np.where(table.pop("retained"), "retain", "evict")
        write_csv(os.path.join(out, "eviction_trace.csv"), table, TRACE_COLUMNS, "trace")
    for c in cells:
        print(f"eval: {c.policy:>9} budget {c.budget:.3f} accuracy {c.accuracy:.3f}")
    return 0


def cmd_survival(cfg: dict, seed: int, out: str, args) -> int:
    spec, bb, (s_data, _, _, s_eval) = _prepare(cfg, seed)
    scfg = cfg["survival"]
    samples = generate_dataset(spec, scfg["samples"], np.random.default_rng(s_eval))
    # one recorder per sample: a record follows one token of one sequence
    recorders = [SelectionRecorder(top_k=scfg["top_k"], tau=scfg["tau"]) for _ in samples]
    for sample, rec in zip(samples, recorders):
        decode_sequence(bb, None, sample, "full", 1.0, recorder=rec)
    horizons = scfg["horizons"]
    rows = []
    shape = bb.shape
    criteria = recorders[0].criteria()
    for criterion in criteria:
        # every head's tokens over all samples, then all heads pooled as -1
        reach = {(l, h): np.concatenate([rec.reach(criterion, l, h, spec.seq_len)
                                         for rec in recorders])
                 for l in range(shape.layers) for h in range(shape.heads)}
        reach[-1, -1] = np.concatenate(list(reach.values()))
        for (l, h), dist in reach.items():
            rows.extend((criterion, l, h, hz, f)
                        for hz, f in zip(horizons, survival_curve(dist, horizons).tolist()))
    write_csv(os.path.join(out, "survival.csv"), dict(zip(SURVIVAL_COLUMNS, zip(*rows))),
              SURVIVAL_COLUMNS, "survival")
    print(f"survival: wrote {len(rows)} rows over {len(criteria)} criteria")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="retainkv",
        description="Retention-gated KV eviction engine: experiments and theory checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("theory", cmd_theory), ("train", cmd_train),
                     ("eval", cmd_eval), ("survival", cmd_survival)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--preset", default="default", choices=sorted(PRESETS))
        if name == "eval":
            p.add_argument("--checkpoint", default=None, help="gate checkpoint path")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    if args.seed < 0:
        print(f"seed error: --seed must be a non-negative integer, got {args.seed}",
              file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, args.preset)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"output error: cannot create directory {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args.seed, args.out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
