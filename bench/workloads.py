"""The benchmark's workloads: decode at two context lengths, training, theory.

Every workload builds its inputs from the workload seed and drives only the
public functions of `retainkv`. A run first does the workload's fixed pass,
whose outputs are checked and digested, then keeps running ops until the
measuring window closes. An op is one decoded sequence, one training step or
one theory suite; the theory suite counts each of its checks as an op
attempted.

`run(state, tally, deadline, tracer, clock)` does the fixed pass and, when a
deadline is given, the ops after it. It returns the digest of the fixed pass,
the measured timings and the throughput they give. Throughput is the
workload's items per second: decoded tokens, training sequences or theory
suites.

Op times are host-normalised (`hostclock.HostClock`) and summarised by
their median per distinct op (decode cell, training step, theory suite
seed); each run also reports its wall-clock throughput in the summary.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from retainkv import backbone, cli, evaluate, gates, tasks, training

from hostclock import HostClock

# Gate checkpoint used by both decode workloads. It was made once at the seed
# commit with `retainkv train --seed 0 --out DIR` at the default config
# (500 Adam steps, batch 4, T = 105; final total loss 7.6228) and copied here
# from DIR/gates.ckpt. Pinning it keeps decode inputs independent of training.
CHECKPOINT = Path(__file__).with_name("gates_seed0.ckpt")
CHECKPOINT_SHA256 = "f40ef69a57ecccf2d8db703b1bd5899db75f9c736fd5b34ef1ff0cd781183c0d"
# Backbone seed of the decode workloads: `retainkv train --seed 0` trained the
# pinned gates on this backbone, and `build_task_model` draws the same weights
# for any context_len.
MODEL_SEED = 0
PAGE_SIZE = 16


class BenchError(RuntimeError):
    """The benchmark cannot run: bad input files or a broken program."""


@dataclass
class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def op(self, failures: list[str], weight: int = 1, failed: int | None = None) -> None:
        self.attempted += weight
        bad = (1 if failures else 0) if failed is None else failed
        self.failed += bad
        for msg in failures:
            if len(self.notes) < 20:
                self.notes.append(msg)


@dataclass
class RunOut:
    digest: str
    throughput: float
    op_seconds: float   # summed normalised time of the timed ops
    extra: dict


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for p in parts:
            if isinstance(p, np.ndarray):
                self._h.update(str(p.dtype).encode())
                self._h.update(np.ascontiguousarray(p).tobytes())
            else:
                self._h.update(repr(p).encode())
            self._h.update(b"\x00")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _bench_span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def load_pinned_gates():
    try:
        blob = CHECKPOINT.read_bytes()
    except OSError as exc:
        raise BenchError(f"cannot read pinned checkpoint {CHECKPOINT.name}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise BenchError(f"pinned checkpoint {CHECKPOINT.name} has sha256 {digest}, "
                         f"expected {CHECKPOINT_SHA256}")
    return gates.load_gates(str(CHECKPOINT))


# -- decode --------------------------------------------------------------------


@dataclass
class DecodeState:
    spec: object
    bb: object
    params: object
    rng: np.random.Generator
    samples: list
    teacher_argmax: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


class Decode:
    """The default `retainkv eval` grid at one context length.

    Cells are (policy, budget) in `evaluate_policies` order, horizon 2,
    cadence 1, page size 16. The fixed pass decodes the first
    `fixed_samples` samples through every cell.
    """

    reference = "python"  # host-speed kernel closest to this op (see hostclock)

    def __init__(self, name: str, context_len: int, fixed_samples: int, why: str):
        self.name = name
        self.context_len = context_len
        self.fixed_samples = fixed_samples
        self.why = why
        ecfg = cli.DEFAULT_CONFIG["eval"]
        self.cells = [(p, float(b)) for b in ecfg["budgets"] for p in ecfg["policies"]]
        self.horizon = cli.DEFAULT_CONFIG["eviction"]["horizon"]
        self.cadence = cli.DEFAULT_CONFIG["eviction"]["cadence"]

    def setup(self, seed: int) -> DecodeState:
        spec = tasks.TaskSpec(**{**cli.DEFAULT_CONFIG["task"], "context_len": self.context_len})
        s_model = np.random.SeedSequence(MODEL_SEED).spawn(5)[0]
        bb = tasks.build_task_model(spec, np.random.default_rng(s_model))
        params = load_pinned_gates()
        # eval samples are drawn like `retainkv eval --seed S`
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[4])
        samples = tasks.generate_dataset(spec, self.fixed_samples, rng)
        return DecodeState(spec, bb, params, rng, samples)

    def _sample(self, st: DecodeState, i: int):
        while len(st.samples) <= i:
            st.samples.extend(tasks.generate_dataset(st.spec, 1, st.rng))
        return st.samples[i]

    def _check(self, st: DecodeState, i: int, cell: int, sample, res, tracer) -> list[str]:
        policy, budget = self.cells[cell]
        where = f"{self.name} sample {i} {policy}@{budget}"
        failures = []
        q = sample.query_positions
        if policy == "full":
            if i not in st.teacher_argmax:
                with _paused(tracer):
                    logits = backbone.teacher_forward(st.bb, sample.tokens)
                st.teacher_argmax[i] = np.argmax(logits, axis=-1)
            if not np.array_equal(res.predictions[q], st.teacher_argmax[i][q]):
                failures.append(f"{where}: predictions differ from batched teacher argmax")
        else:
            shape = st.bb.shape
            T = sample.tokens.shape[0]
            total_budget = max(1, int(np.ceil(budget * T * shape.head_count)))
            if res.peak_entries > total_budget + shape.head_count:
                failures.append(f"{where}: peak_entries {res.peak_entries} > budget "
                                f"{total_budget} + {shape.head_count}")
            if res.mean_retained > total_budget:
                failures.append(f"{where}: mean_retained {res.mean_retained} > budget {total_budget}")
        if i < self.fixed_samples:
            key = (i, cell)
            out = (res.predictions.tobytes(), res.correct, res.total,
                   repr(res.mean_retained), res.peak_entries, res.peak_pages)
            if st.outputs.setdefault(key, out) != out:
                failures.append(f"{where}: output differs from an earlier decode of the same input")
        return failures

    def run(self, st: DecodeState, tally: Tally, deadline: float | None = None,
            tracer=None, clock: HostClock | None = None) -> RunOut:
        n_cells = len(self.cells)
        times: dict[int, list[float]] = {c: [] for c in range(n_cells)}
        walls: dict[int, list[float]] = {c: [] for c in range(n_cells)}
        clock = clock or HostClock(self.reference)
        correct = {p: 0 for p, _ in self.cells}
        total = {p: 0 for p, _ in self.cells}
        cell_acc = {}
        peak_entries = peak_slots = 0
        tokens = 0
        digest = _Digest()
        op = 0
        while op < self.fixed_samples * n_cells or (
                deadline is not None and time.perf_counter() < deadline):
            i, cell = divmod(op, n_cells)
            policy, budget = self.cells[cell]
            sample = self._sample(st, i)
            if tracer is not None:
                tracer.new_op()
            clock.start()
            res = evaluate.decode_sequence(st.bb, st.params, sample, policy, budget,
                                           horizon=self.horizon, cadence=self.cadence,
                                           page_size=PAGE_SIZE)
            norm, wall = clock.stop()
            times[cell].append(norm)
            walls[cell].append(wall)
            tally.op(self._check(st, i, cell, sample, res, tracer))
            if i < self.fixed_samples:
                digest.add(policy, budget, res.predictions, res.correct, res.total,
                           res.mean_retained, res.peak_entries, res.peak_pages)
                correct[policy] += res.correct
                total[policy] += res.total
                acc = cell_acc.setdefault((policy, budget), [0, 0])
                acc[0] += res.correct
                acc[1] += res.total
                peak_entries += res.peak_entries
                peak_slots += res.peak_pages * PAGE_SIZE
                tokens += sample.tokens.shape[0]
            op += 1
        T = st.samples[0].tokens.shape[0]
        med = {c: statistics.median(ts) for c, ts in times.items()}
        wall_med = sum(statistics.median(ts) for ts in walls.values())
        per_policy = {}
        for p in correct:
            cells = [c for c in range(n_cells) if self.cells[c][0] == p]
            per_policy[p] = len(cells) * T / sum(med[c] for c in cells)
        extra = {
            "tok_per_s": per_policy,
            "accuracy": {p: correct[p] / total[p] for p in correct},
            "cell_accuracy": {f"{p}@{b}": c / n for (p, b), (c, n) in cell_acc.items()},
            "page_util": peak_entries / peak_slots,
            "tokens": tokens,
            "sequences": op,
            "wall_throughput": n_cells * T / wall_med,
        }
        return RunOut(digest.hexdigest(), n_cells * T / sum(med.values()),
                      sum(map(sum, times.values())), extra)


# -- training ------------------------------------------------------------------


class _WindowClosed(Exception):
    """Raised from the training callback to stop a run at the deadline."""


@dataclass
class TrainState:
    bb: object
    init: object
    sequences: list
    m_global: float
    train_seed: int
    history: list = field(default_factory=list)


class Train:
    """`train_gates` at the default train config, seeded like `retainkv train`."""

    reference = "arrays"

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self.tcfg = cli.DEFAULT_CONFIG["train"]

    def setup(self, seed: int) -> TrainState:
        cfg = cli.DEFAULT_CONFIG
        tr = self.tcfg
        spec = tasks.TaskSpec(**cfg["task"])
        s_model, s_data, s_gates, s_train, _ = np.random.SeedSequence(seed).spawn(5)
        bb = tasks.build_task_model(spec, np.random.default_rng(s_model))
        sequences = [s.tokens for s in tasks.generate_dataset(
            spec, tr["n_sequences"], np.random.default_rng(s_data))]
        d_in = bb.shape.d_model if tr["gate_input"] == "embedding" else 2 * bb.shape.head_dim
        init = gates.init_gate_params(
            tasks.default_shape(spec, cfg["model"]["gate_hidden"]), d_in,
            np.random.default_rng(s_gates), tied=tr["tied"], gate_input=tr["gate_input"],
            seed=seed)
        m_global = tr["budget_fraction"] * spec.seq_len * bb.shape.head_count
        train_seed = int(np.random.default_rng(s_train).integers(2 ** 31))
        return TrainState(bb, init, sequences, m_global, train_seed)

    def _train(self, st: TrainState, tally: Tally, step_times: list, walls: list,
               deadline, tracer, clock):
        tr = self.tcfg
        first = not st.history

        def on_step(step, rec):
            # The callback, with the clock's reference samples, runs inside
            # `train_gates`; in a traced pass its own span keeps it out of
            # that span's self time.
            with _bench_span(tracer, "bench.on_step"):
                norm, wall = clock.stop()
                step_times.append(norm)
                walls.append(wall)
                failures = []
                if not all(math.isfinite(v) for v in (rec.total, rec.quality, rec.cap)):
                    failures.append(f"train step {step}: non-finite loss {rec}")
                if first:
                    st.history.append(rec)
                elif rec != st.history[step]:
                    failures.append(f"train step {step}: loss differs from the first run")
                tally.op(failures)
                if tracer is not None:
                    tracer.new_op()
                if deadline is not None and time.perf_counter() >= deadline:
                    raise _WindowClosed
                clock.start()

        if tracer is not None:
            tracer.new_op()
        clock.start()
        try:
            result = training.train_gates(
                st.bb, st.init, st.sequences, lam=tr["lambda_cap"], m_global=st.m_global,
                lr=tr["lr"], steps=tr["steps"], batch_size=tr["batch_size"],
                seed=st.train_seed, callback=on_step)
        except _WindowClosed:
            return None
        if not result.final.total < result.history[0].total:
            tally.op([f"train: final loss {result.final.total} not below first-step loss "
                      f"{result.history[0].total}"], weight=0)
        return result

    def run(self, st: TrainState, tally: Tally, deadline: float | None = None,
            tracer=None, clock: HostClock | None = None) -> RunOut:
        clock = clock or HostClock(self.reference)
        step_times: list[float] = []
        walls: list[float] = []
        result = self._train(st, tally, step_times, walls, None, tracer, clock)
        digest = _Digest()
        for rec in result.history:
            digest.add(rec.total, rec.quality, rec.cap, rec.kl, rec.nll)
        for name, t in sorted(result.params.tensors().items()):
            digest.add(name, np.asarray(t))
        while deadline is not None and time.perf_counter() < deadline:
            if self._train(st, tally, step_times, walls, deadline, tracer, clock) is None:
                break
        batch = self.tcfg["batch_size"]
        throughput = batch / statistics.median(step_times)
        extra = {"loss_final": result.final.total, "loss_first": result.history[0].total,
                 "steps": len(step_times), "wall_throughput": batch / statistics.median(walls)}
        return RunOut(digest.hexdigest(), throughput, sum(step_times), extra)


# -- theory --------------------------------------------------------------------


class Theory:
    """`run_theory_suite` at the default theory config.

    The fixed pass is the suite at the workload seed, as `retainkv theory
    --seed S` runs it; it is checked and digested. The timed suites then cycle
    through TIMED_SEEDS until the window closes, at least once each. A suite's
    cost depends on its seed (2.2 to 3.5 s), so a fixed list keeps the timed
    work the same in every run; every suite is still checked.
    """

    reference = "arrays"
    TIMED_SEEDS = (1000, 1001, 1002, 1003)

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def setup(self, seed: int):
        return copy.deepcopy(cli.DEFAULT_CONFIG), seed

    def run(self, st, tally: Tally, deadline: float | None = None, tracer=None,
            clock: HostClock | None = None) -> RunOut:
        cfg, seed = st
        tcfg = cfg["theory"]
        checks = (tcfg["bound_instances"] + tcfg["identity_instances"]
                  + tcfg["persistence_configs"])
        clock = clock or HostClock(self.reference)
        times: dict[int, list[float]] = {}
        walls: dict[int, list[float]] = {}
        k = 0

        def suite(suite_seed: int):
            if tracer is not None:
                tracer.new_op()
            clock.start()
            report, rows = cli.run_theory_suite(cfg, suite_seed)
            norm, wall = clock.stop()
            v = report["violations_total"]
            tally.op([f"theory seed {suite_seed}: {v} violations"] if v else [],
                     weight=checks, failed=v)
            return report, rows, norm, wall

        report, rows, norm, wall = suite(seed)
        digest = _Digest()
        digest.add(json.dumps(report, sort_keys=True), json.dumps(rows, sort_keys=True))
        if deadline is None:
            times[seed], walls[seed] = [norm], [wall]
        while deadline is not None and (
                k < len(self.TIMED_SEEDS) or time.perf_counter() < deadline):
            s = self.TIMED_SEEDS[k % len(self.TIMED_SEEDS)]
            _, _, norm, wall = suite(s)
            times.setdefault(s, []).append(norm)
            walls.setdefault(s, []).append(wall)
            k += 1
        suite_s = sum(statistics.median(ts) for ts in times.values())
        wall_s = sum(statistics.median(ts) for ts in walls.values())
        extra = {"suites": 1 + k, "violations_total": report["violations_total"],
                 "wall_throughput": len(walls) / wall_s}
        return RunOut(digest.hexdigest(), len(times) / suite_s,
                      sum(map(sum, times.values())), extra)


# Why each workload is in the benchmark, next to its definition.
WORKLOADS = {
    w.name: w for w in (
        Decode("decode_short", 96, 8,
               "default eval grid at T=105: per-call overhead across evaluate, gates, "
               "paged_cache and eviction dominates"),
        Decode("decode_long", 480, 2,
               "eval grid at T=489: gather and compress work that grows with resident "
               "entries dominates, and dilution shows in accuracy"),
        Train("train",
              "default gate training: backbone, gate losses and Adam; bypasses "
              "paged_cache and eviction"),
        Theory("theory",
               "default theory suite: dilution, reweighting, persistence and VAR checks; "
               "bypasses decode and training"),
    )
}
