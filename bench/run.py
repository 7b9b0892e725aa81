"""retainkv benchmark: decode, training and theory throughput, with a traced split.

Run from the root of a source checkout:

    python3 bench/run.py --workload decode_short --seed 0 --seconds 20 --trace 0

The workloads are defined, with the reason each was chosen, in
`bench/workloads.py`. With `--trace 0` a run reports the end-to-end metrics of
BENCHMARK.json:

* `setup_s`: median time a fresh interpreter takes to import `retainkv` and
  build the workload's inputs (backbone, pinned gates, samples or the
  training pool), over SETUP_REPS child processes run one after another,
  half before the measuring window and half after it; numpy is imported
  before the clock starts;
* `peak_rss_mb`: peak resident memory of this process;
* `throughput`: items per second, where an item is a decoded token (decode:
  T times the number of cells over the summed per-cell sequence time), a
  training sequence (batch size over the step time) or a theory suite (the
  number of timed suite seeds over their summed times). Each op time is the
  median of that op's times in the run.

Times are host-normalised: each is scaled by the speed of a fixed reference
kernel timed right before and after it (`bench/hostclock.py` says why). The
summary line also gives the wall-clock throughput.

With `--trace 1` it wraps the public functions of `retainkv` (see
`bench/tracing.py`), runs the fixed pass once untraced and then traced, and
reports the per-module metrics of BENCHMARK.json for one fixed pass. It also
checks that the traced and untraced outputs have equal digests and that the
layers a workload bypasses show zero calls.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Earlier lines are JSON records of the
environment, the output digest and a summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 12
SETUP_TIMEOUT_S = 60


def _fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


# One process, no thread pool: BLAS runs single-threaded in this process and
# in the set-up children, which inherit the environment.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def _import_program():
    """Import `retainkv` from this checkout's `src`, never from elsewhere."""
    if not (SRC / "retainkv" / "__init__.py").is_file():
        _fail(f"no retainkv sources under {SRC.name}/ next to {HERE.name}/; "
              "run from a full source checkout")
    sys.path.insert(0, str(SRC))
    import retainkv
    if Path(retainkv.__file__).resolve().parent != (SRC / "retainkv").resolve():
        _fail(f"imported retainkv from {retainkv.__file__}, not from {SRC.name}/")
    sys.path.insert(0, str(HERE))


# -- environment ---------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "retainkv").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        for lib in ("blas", "lapack"):
            info = deps.get(lib, {})
            blas[lib] = {k: info.get(k) for k in ("name", "version", "openblas configuration")
                         if info.get(k) is not None}
    except (TypeError, AttributeError, ValueError):
        blas = {"unavailable": True}
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k == "RETAINKV_THREADS"}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "thread_env": threads, "commit": _git_commit(), "src_sha256": _src_sha256(),
    }


# -- untraced run --------------------------------------------------------------


def setup_only(workload: str, seed: int) -> int:
    """In a fresh interpreter: time importing `retainkv` and building inputs.

    numpy is imported first and left out, as it is not the program's.
    """
    from hostclock import HostClock, reference_seconds
    reference_seconds()  # first call pays numpy's lazy set-up
    clock = HostClock(inside=False)
    clock.start()
    _import_program()
    from workloads import WORKLOADS, BenchError
    try:
        WORKLOADS[workload].setup(seed)
    except BenchError as exc:
        _fail(str(exc))
    norm, wall = clock.stop()
    print(json.dumps({"setup_s": norm, "wall_s": wall}))
    return 0


def cold_setup_seconds(workload: str, seed: int, reps: int) -> list[float]:
    """Normalised set-up times of `reps` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(reps):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seed: int, seconds: int, tally):
    state = wl.setup(seed)
    # Half the set-ups run before the window and half after it: the host's
    # speed modes last seconds, so two batches a window apart see more of them.
    setups = cold_setup_seconds(wl.name, seed, SETUP_REPS // 2)
    out = wl.run(state, tally, deadline=time.perf_counter() + seconds)
    setups += cold_setup_seconds(wl.name, seed, SETUP_REPS - SETUP_REPS // 2)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "throughput": {"value": out.throughput, "unit": "1/s"},
    }
    return out, metrics, []


# -- traced run ----------------------------------------------------------------

POLICIES = ("full", "global", "per_head", "recency")
DECODE_LAYERS = ("paged_cache.", "eviction.")
# Layers each kind of workload bypasses: their traced call counts must be 0.
BYPASSED = {
    "decode": ("backbone.teacher_forward", "training.", "theory.", "cli.run_theory_suite"),
    "train": DECODE_LAYERS,
    "theory": DECODE_LAYERS,
}


def run_traced(wl, seed: int, seconds: int, tally, units: dict, spans_path: str | None):
    from hostclock import HostClock
    from tracing import Tracer
    tracer = Tracer()
    clock = HostClock(wl.reference, inside=False)
    with tracer.installed(), tracer.segment("setup"):
        state = wl.setup(seed)
    # The first pass also warms the allocator, so the overhead compares the
    # traced passes with the untraced pass that follows them.
    t_start = time.perf_counter()
    plain = wl.run(state, tally, clock=clock)
    traced = []
    while True:
        with tracer.installed(), tracer.segment("pass"):
            traced.append(wl.run(state, tally, tracer=tracer, clock=clock))
        elapsed = time.perf_counter() - t_start
        if elapsed + 2 * tracer.segments[-1]["seconds"] > seconds:
            break
    after = wl.run(state, tally, clock=clock)
    if spans_path:
        tracer.write_spans(spans_path)

    setup = tracer.aggregate(tracer.segments[0])
    passes = [(seg, tracer.aggregate(seg)) for seg in tracer.segments[1:]]

    def val(name: str, field: str = "busy") -> float:
        s = setup.get(name, {}).get(field, 0)
        p = statistics.median(a.get(name, {}).get(field, 0) for _, a in passes)
        return s + p

    def ms(name: str, field: str = "busy") -> float:
        return 1e3 * val(name, field)

    def count(key: str) -> float:
        return statistics.median(seg["counts"].get(key, 0) for seg, _ in passes)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_pass(fn) -> float:
        return statistics.median(fn(seg, agg) for seg, agg in passes)

    x = plain.extra
    m = {}
    m["evaluate.decode_sequence.calls"] = val("evaluate.decode_sequence", "calls")
    m["evaluate.decode_sequence.self_us_per_tok"] = per_pass(lambda seg, agg: ratio(
        1e6 * agg.get("evaluate.decode_sequence", {}).get("self", 0.0),
        seg["counts"].get("evaluate.decode_sequence.tokens", 0)))
    for p in POLICIES:
        m[f"evaluate.decode_tok_per_s.{p}"] = x.get("tok_per_s", {}).get(p, 0.0)
        m[f"evaluate.accuracy.{p}"] = x.get("accuracy", {}).get(p, 0.0)
    for op in ("append", "gather", "evict"):
        m[f"paged_cache.{op}.calls"] = val(f"paged_cache.{op}", "calls")
        m[f"paged_cache.{op}.busy_ms"] = ms(f"paged_cache.{op}")
    m["paged_cache.gather.rows"] = count("paged_cache.gather.rows")
    m["paged_cache.gather.bytes_computed"] = count("paged_cache.gather.bytes_computed")
    m["paged_cache.evict.entries"] = count("paged_cache.evict.entries")
    m["paged_cache.page_util"] = x.get("page_util", 0.0)
    for op in ("admit", "step", "compress"):
        m[f"eviction.{op}.calls"] = val(f"eviction.{op}", "calls")
        m[f"eviction.{op}.busy_ms"] = ms(f"eviction.{op}")
    m["eviction.compress.scored"] = count("eviction.compress.scored")
    m["eviction.compress.evicted"] = count("eviction.compress.evicted")
    m["eviction.compress.evict_ratio"] = ratio(m["eviction.compress.evicted"],
                                               m["eviction.compress.scored"])
    m["gates.gate_forward_batch.calls"] = val("gates.gate_forward_batch", "calls")
    m["gates.gate_forward_batch.busy_ms"] = ms("gates.gate_forward_batch")
    m["gates.gate_forward_batch.rows_per_call"] = ratio(
        count("gates.gate_forward_batch.rows"), val("gates.gate_forward_batch", "calls"))
    m["gates.cap_loss_global_grad.calls"] = val("gates.cap_loss_global_grad", "calls")
    m["gates.cap_loss_global_grad.busy_ms"] = ms("gates.cap_loss_global_grad")
    m["gates.load_gates.busy_ms"] = ms("gates.load_gates")
    m["attention.calls"] = val("attention", "calls")
    m["attention.busy_ms"] = ms("attention")
    m["backbone.teacher_forward.calls"] = val("backbone.teacher_forward", "calls")
    m["backbone.teacher_forward.busy_ms"] = ms("backbone.teacher_forward")
    m["backbone.student_forward.self_ms"] = ms("backbone.student_forward", "self")
    m["backbone.student_backward.busy_ms"] = ms("backbone.student_backward")
    m["training.loss_and_grads.self_ms"] = ms("training.loss_and_grads", "self")
    m["training.train_gates.self_ms"] = ms("training.train_gates", "self")
    m["training.teacher_reuse"] = per_pass(lambda seg, agg: ratio(
        seg["teacher_distinct"], agg.get("backbone.teacher_forward", {}).get("calls", 0)))
    m["training.loss_final"] = x.get("loss_final", 0.0)
    for fn in ("check_dilution_bound", "check_reweighting_identity",
               "simulate_persistence", "fit_var1"):
        m[f"theory.{fn}.busy_ms"] = ms(f"theory.{fn}")
    m["cli.run_theory_suite.self_ms"] = ms("cli.run_theory_suite", "self")
    m["tasks.build_task_model.busy_ms"] = ms("tasks.build_task_model")
    m["tasks.generate_dataset.busy_ms"] = ms("tasks.generate_dataset")
    m["trace.overhead"] = ratio(statistics.median(t.op_seconds for t in traced),
                                after.op_seconds) - 1.0

    problems = []
    for t in traced + [after]:
        if t.digest != plain.digest:
            problems.append(f"traced digest {t.digest[:12]} != untraced {plain.digest[:12]}")
    kind = "decode" if wl.name.startswith("decode") else wl.name
    calls = {}
    for agg in [setup] + [a for _, a in passes]:
        for name, rec in agg.items():
            calls[name] = calls.get(name, 0) + rec["calls"]
    for name, n in sorted(calls.items()):
        if n and name.startswith(BYPASSED[kind]):
            problems.append(f"{name} predicted bypassed on {wl.name} but called {n} times")
    if tracer.missing:
        print(json.dumps({"untraced_targets": sorted(set(tracer.missing))}))
    metrics = {k: {"value": float(v), "unit": units.get(k, "?")} for k, v in m.items()}
    return plain, metrics, problems


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="with --trace 1, also write every span to this CSV file")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the workload's inputs, then exit")
    args = ap.parse_args(argv)

    os.environ.update(SINGLE_THREAD_ENV)
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    _import_program()
    from workloads import WORKLOADS, BenchError, Tally
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = sorted(w["name"] for w in spec["workloads"])
        if declared != sorted(WORKLOADS):
            _fail(f"BENCHMARK.json workloads {declared} != defined {sorted(WORKLOADS)}")
        tally = Tally()
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            out, metrics, problems = run_traced(wl, args.seed, args.seconds, tally, units,
                                                args.spans)
            expected = set(units)
        else:
            out, metrics, problems = run_untraced(wl, args.seed, args.seconds, tally)
            expected = {m["name"] for m in spec["end_to_end"]}
    except BenchError as exc:
        _fail(str(exc))
    if set(metrics) != expected:
        _fail(f"metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json", 1)

    baseline = {}
    try:
        baseline = json.loads((HERE / "baseline.json").read_text())
    except (OSError, json.JSONDecodeError):
        pass
    known = baseline.get("digests", {}).get(wl.name, {}).get(str(args.seed))
    print(json.dumps({"env": environment(wl.name, args.seed, args.seconds, args.trace)}))
    print(json.dumps({"digest": out.digest,
                      "digest_vs_baseline": "unknown" if known is None else
                      ("same" if known == out.digest else "differs")}))
    print(json.dumps({"summary": out.extra,
                      "failures": tally.notes, "problems": problems}))
    print(json.dumps({"correct": tally.failed == 0 and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
