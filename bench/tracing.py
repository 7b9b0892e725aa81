"""Span tracing for the benchmark's traced run.

`Tracer.installed()` wraps public functions and methods of `retainkv` at every
name a caller looks them up by: a function imported by name into another
module (`evaluate` imports `gate_forward_batch`, `training` imports
`teacher_forward`) is replaced there too. Each call records one span (name,
start, end, parent span, op id) in flat in-memory arrays; the run aggregates
them into per-module metrics when it ends. Self time is a span's duration
minus the time its child spans cover. Nothing in `retainkv` changes: the
wrappers are removed when the `with` block exits.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function, span name). Several functions may share one span name.
FUNCTIONS = (
    ("retainkv.evaluate", "decode_sequence", "evaluate.decode_sequence"),
    ("retainkv.gates", "gate_forward_batch", "gates.gate_forward_batch"),
    ("retainkv.gates", "cap_loss_global_grad", "gates.cap_loss_global_grad"),
    ("retainkv.gates", "load_gates", "gates.load_gates"),
    ("retainkv.attention", "attend_full", "attention"),
    ("retainkv.attention", "attend_retained", "attention"),
    ("retainkv.attention", "attend_evicted", "attention"),
    ("retainkv.backbone", "teacher_forward", "backbone.teacher_forward"),
    ("retainkv.backbone", "student_forward", "backbone.student_forward"),
    ("retainkv.backbone", "student_backward", "backbone.student_backward"),
    ("retainkv.training", "loss_and_grads", "training.loss_and_grads"),
    ("retainkv.training", "train_gates", "training.train_gates"),
    ("retainkv.theory", "check_dilution_bound", "theory.check_dilution_bound"),
    ("retainkv.theory", "check_reweighting_identity", "theory.check_reweighting_identity"),
    ("retainkv.theory", "simulate_persistence", "theory.simulate_persistence"),
    ("retainkv.theory", "fit_var1", "theory.fit_var1"),
    ("retainkv.cli", "run_theory_suite", "cli.run_theory_suite"),
    ("retainkv.tasks", "build_task_model", "tasks.build_task_model"),
    ("retainkv.tasks", "generate_dataset", "tasks.generate_dataset"),
)

# (module, class, method, span name): patched on the class, so every instance
# and every caller sees the wrapper.
METHODS = (
    ("retainkv.paged_cache", "PagedKVStore", "append", "paged_cache.append"),
    ("retainkv.paged_cache", "PagedKVStore", "gather", "paged_cache.gather"),
    ("retainkv.paged_cache", "PagedKVStore", "evict", "paged_cache.evict"),
    ("retainkv.eviction", "EvictionPolicy", "compress", "eviction.compress"),
)

# The policy objects `make_policy` returns get their `admit` and `step`
# wrapped per instance, which covers every policy class behind that function.
POLICY_FACTORY = ("retainkv.evaluate", "make_policy")
POLICY_METHODS = (("admit", "eviction.admit"), ("step", "eviction.step"))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counters taken from a call's arguments and result, keyed by span name.
def _count_decode(tr, args, kwargs, result):
    tr.counts["evaluate.decode_sequence.tokens"] += len(_arg(args, kwargs, 2, "sample").tokens)


def _count_gather(tr, args, kwargs, result):
    tr.counts["paged_cache.gather.rows"] += len(result)
    tr.counts["paged_cache.gather.bytes_computed"] += sum(
        getattr(result, f).nbytes for f in ("keys", "values", "births", "betas"))


def _count_evict(tr, args, kwargs, result):
    tr.counts["paged_cache.evict.entries"] += len(_arg(args, kwargs, 3, "births"))


def _count_compress(tr, args, kwargs, result):
    evicted = sum(len(b) for b in result.values())
    tr.counts["eviction.compress.evicted"] += evicted
    tr.counts["eviction.compress.scored"] += args[0].total_alive() + evicted


def _count_gate_rows(tr, args, kwargs, result):
    tr.counts["gates.gate_forward_batch.rows"] += _arg(args, kwargs, 0, "x").shape[0]


def _count_teacher(tr, args, kwargs, result):
    tr.teacher_inputs.add(np.ascontiguousarray(_arg(args, kwargs, 1, "tokens")).tobytes())


COUNTERS = {
    "evaluate.decode_sequence": _count_decode,
    "paged_cache.gather": _count_gather,
    "paged_cache.evict": _count_evict,
    "eviction.compress": _count_compress,
    "gates.gate_forward_batch": _count_gate_rows,
    "backbone.teacher_forward": _count_teacher,
}


class Tracer:
    """Records spans while installed and `active`; one segment per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = 0
        self.active = True
        self.counts: dict[str, float] = defaultdict(float)
        self.teacher_inputs: set[bytes] = set()
        self.missing: list[str] = []
        self.segments: list[dict] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def new_op(self) -> None:
        """Start a new op id: one decoded sequence, training step or suite."""
        self.op_id += 1

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording their calls."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextlib.contextmanager
    def span(self, name: str):
        """Record benchmark-side work inside a program span as its own child
        span, so that it is not counted in the program span's self time."""
        if not self.active:
            yield
            return
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup name of the traced targets; undo on exit."""
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for mod_name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "retainkv" or n.startswith("retainkv."))]
        try:
            for mod_name, attr, name in FUNCTIONS:
                fn = getattr(importlib.import_module(mod_name), attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(fn, name, COUNTERS.get(name))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            patch(mod, key, wrapper)
            for mod_name, cls_name, attr, name in METHODS:
                cls = getattr(importlib.import_module(mod_name), cls_name, None)
                if cls is None or not hasattr(cls, attr):
                    self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                    continue
                patch(cls, attr, self._wrap(vars(cls)[attr], name, COUNTERS.get(name)))
            factory_mod = importlib.import_module(POLICY_FACTORY[0])
            factory = getattr(factory_mod, POLICY_FACTORY[1], None)
            if factory is None:
                self.missing.append(".".join(POLICY_FACTORY))
            else:
                patch(factory_mod, POLICY_FACTORY[1], self._policy_factory(factory))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def _policy_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            policy = factory(*args, **kwargs)
            for attr, name in POLICY_METHODS:
                method = getattr(policy, attr, None)
                if method is not None:
                    setattr(policy, attr, tracer._wrap(method, name))
            return policy

        return make

    # -- segments and aggregation ---------------------------------------------

    @contextlib.contextmanager
    def segment(self, label: str):
        """Group the spans and counters of one pass for aggregation."""
        first = len(self.start)
        self.counts = defaultdict(float)
        self.teacher_inputs = set()
        t0 = time.perf_counter()
        yield
        self.segments.append({
            "label": label, "first": first, "last": len(self.start),
            "seconds": time.perf_counter() - t0, "counts": dict(self.counts),
            "teacher_distinct": len(self.teacher_inputs),
        })

    def aggregate(self, seg: dict) -> dict:
        """Per span name: calls, busy seconds and self seconds in one segment.

        `backbone.student_forward` spans nested directly in
        `backbone.teacher_forward` are reported as part of the teacher only.
        """
        first, last = seg["first"], seg["last"]
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        teacher = self._name_ids.get("backbone.teacher_forward", -2)
        student = self._name_ids.get("backbone.student_forward", -2)
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
        for i in range(first, last):
            nid = self.name_id[i]
            p = self.parent[i]
            if nid == student and p >= 0 and self.name_id[p] == teacher:
                continue
            dur = self.end[i] - self.start[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["busy"] += dur
            rec["self"] += dur - child.get(i, 0.0)
        return dict(out)

    def write_spans(self, path: str) -> None:
        """Write every recorded span as CSV (times in microseconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("span", "name", "start_us", "end_us", "parent", "op"))
            for i in range(len(self.start)):
                w.writerow((i, self.names[self.name_id[i]],
                            round((self.start[i] - t0) * 1e6, 3),
                            round((self.end[i] - t0) * 1e6, 3), self.parent[i], self.op[i]))
