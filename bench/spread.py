"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads decode_short,train --seeds 0-9
    python3 bench/spread.py --seeds 0-9 --baseline bench/baseline.json

Runs `bench/run.py --trace 0` once per (workload, seed), one run at a time,
from the root of the checkout, with BENCHMARK.json's `run_seconds` unless
`--seconds` is given. For every end-to-end metric it prints the median of the
runs and the spread: the distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, as a share of the median,
next to the metric's bound.

With `--baseline FILE` it also makes one traced run (`--trace 1`) per
workload at the first seed and writes FILE in the layout of
`bench/baseline.json`: `end_to_end` (median, quartiles, spread and runs per
workload and metric), `digests` (output digest per workload and seed),
`per_layer_seed0` (the traced run's metrics) and the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    records = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    digest = next(r["digest"] for r in records if "digest" in r)
    env = next(r["env"] for r in records if "env" in r)
    if not records[-1]["correct"]:
        print(f"{workload} seed {seed} trace {trace}: correct is false: "
              f"{next(r for r in records if 'summary' in r)}", file=sys.stderr)
    return records[-1], digest, env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--baseline", default=None,
                    help="write medians, digests and a traced run per workload here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    out = {"about": (f"end_to_end: medians and quartiles of the untraced runs over seeds "
                     f"{args.seeds} per workload (bench/spread.py). digests: output digest "
                     f"per seed. per_layer_seed0: one traced run (--trace 1) per workload "
                     f"at seed {seeds[0]}."),
           "run_seconds": args.seconds, "seeds": seeds,
           "end_to_end": {}, "digests": {}, "per_layer_seed0": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        digests = {}
        failed = attempted = 0
        for seed in seeds:
            result, digest, env = run_once(workload, seed, args.seconds, 0)
            out.setdefault("commit", env["commit"])
            out.setdefault("env", {k: v for k, v in env.items()
                                   if k not in ("workload", "seed", "trace", "commit")})
            digests[str(seed)] = digest
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        stats = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": vals}
            print(f"  {workload} {name}: median {med:.6g} spread {spread:.4f} "
                  f"bound {bounds.get(name)}")
        print(f"  {workload}: attempted {attempted}, failed {failed}", flush=True)
        out["end_to_end"][workload] = stats
        out["digests"][workload] = digests
    if args.baseline:
        for workload in workloads:
            result, digest, _ = run_once(workload, seeds[0], args.seconds, 1)
            if digest != out["digests"][workload][str(seeds[0])]:
                print(f"{workload}: traced digest differs from the untraced run",
                      file=sys.stderr)
            out["per_layer_seed0"][workload] = {
                k: v["value"] for k, v in sorted(result["metrics"].items())}
            print(f"{workload} traced seed {seeds[0]}: correct {result['correct']}", flush=True)
        Path(args.baseline).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
