"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 09 and 10 share one
five-seed training experiment (marked slow; deselect with --skip-slow).
"""

import time

import numpy as np
import pytest

from retainkv.attention import HeadCache, attend_full
from retainkv.backbone import student_forward
from retainkv.eviction import EvictionPolicy, score_entries, select_retained
from retainkv.evaluate import SelectionRecorder, decode_sequence, evaluate_policies
from retainkv.gates import ModelShape, init_gate_params
from retainkv.paged_cache import PagedKVStore
from retainkv.tasks import TaskSpec, build_task_model, default_shape, generate_dataset
from retainkv.theory import (
    DilutionInstance,
    check_reweighting_identity,
    check_dilution_bound,
    random_near_tie_instance,
    random_persistence_config,
    simulate_persistence,
    survival_curve,
)
from retainkv.training import loss_and_grads, train_gates

from conftest import (
    admit,
    check_accounting,
    finite_diff_grad,
    mask_of,
    random_backbone,
    snapshot,
)


def report(num, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_reweighting_exact_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        z = rng.normal(0, 2, size=n)
        useful = mask_of(n, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        r = rng.random(n)
        res = check_reweighting_identity(z, useful, r)
        worst = max(worst, abs(res.direct - res.formula))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-12 and elapsed < 5.0,
           f"max |direct - formula| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_dilution_bound_and_distractor_sweep():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    violations = sum(not check_dilution_bound(random_near_tie_instance(rng)).holds
                     for _ in range(1000))
    deltas = []
    for n in (10, 100, 1000, 10000):
        logits = np.concatenate([np.zeros(2), np.full(n, -1.0)])
        inst = DilutionInstance(logits, mask_of(2 + n, [0, 1]), 1.0,
                                mask_of(2 + n, range(2, 2 + n)))
        res = check_dilution_bound(inst)
        violations += not res.holds
        deltas.append(res.delta)
    monotone = all(b > a for a, b in zip(deltas, deltas[1:]))
    elapsed = time.perf_counter() - t0
    report(2, violations == 0 and monotone and deltas[-1] > 0.99 and elapsed < 10.0,
           f"violations={violations}, sweep delta -> {deltas[-1]:.5f}, {elapsed:.2f}s")


def test_criterion_03_geometric_persistence_bound():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    failures = 0
    checked = 0
    for i in range(10):
        cfg = random_persistence_config(rng)
        res = simulate_persistence(cfg, n_max=200, trials=2000, seed=5000 + i)
        if res.vacuous:
            continue
        checked += 1
        if not res.holds:
            failures += 1
    elapsed = time.perf_counter() - t0
    report(3, failures == 0 and checked >= 8 and elapsed < 60.0,
           f"{checked} nonvacuous configs, {failures} bound failures, {elapsed:.1f}s")


def test_criterion_04_closed_form_score_grid():
    def direct(beta, lead, horizon):
        return sum(beta ** (lead + j) for j in range(horizon))

    worst = 0.0
    for beta in (0.0, 1e-6, 0.5, 1.0 - 1e-6, 1.0):
        for horizon in range(1, 65):
            # one production call per (beta, horizon): births 64..0 at now = 64
            scores = score_entries(64 - np.arange(65), np.full(65, beta), now=64,
                                   horizon=horizon)
            for age in range(0, 65):
                got = scores[age]
                want = direct(beta, age + 1, horizon)
                err = abs(got - want) / max(1.0, abs(want))
                worst = max(worst, err)
    report(4, worst < 1e-10, f"max rel err = {worst:.2e} over the full grid")


def test_criterion_05_gate_gradient_correctness():
    shape = ModelShape(layers=2, heads=2, head_dim=4, gate_hidden=4, seq_len=8, vocab=10)
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        bb = random_backbone(shape, rng)
        gates = init_gate_params(shape, shape.d_model, rng, init_scale=0.8)
        gates.bg -= 17.0  # responsive sigmoid region
        tokens = rng.integers(0, shape.vocab, size=6)
        lam, m_global = 0.7, 6.0
        _, grads = loss_and_grads(bb, gates, tokens, lam, m_global)
        analytic = grads.flat

        def f(vec):
            br, _ = loss_and_grads(bb, gates.with_flat(vec), tokens, lam, m_global)
            return br.total

        numeric = finite_diff_grad(f, gates.flat)
        scale = np.maximum(np.abs(numeric), np.maximum(np.abs(analytic), 1e-6))
        worst = max(worst, float((np.abs(analytic - numeric) / scale).max()))
    report(5, worst < 1e-4, f"max rel err = {worst:.2e} over 20 instances "
                            f"(tied readout across 2x2 heads)")


def test_criterion_06_full_cache_recovery_at_init():
    shape = ModelShape(layers=2, heads=2, head_dim=8, gate_hidden=8, seq_len=128, vocab=32)
    rng = np.random.default_rng(106)
    worst_tv = 0.0
    for _ in range(3):
        bb = random_backbone(shape, rng)
        gates = init_gate_params(shape, shape.d_model, rng)  # readout bias 18.0
        tokens = rng.integers(0, shape.vocab, size=128)
        _, full = student_forward(bb, None, tokens)
        _, gated = student_forward(bb, gates, tokens)
        for l in range(shape.layers):
            for h in range(shape.heads):
                diff = np.abs(gated.layers[l].w[h] - full.layers[l].w[h])
                worst_tv = max(worst_tv, float(0.5 * diff.sum(axis=1).max()))
    report(6, worst_tv < 1e-3, f"max per-step TV = {worst_tv:.2e} on length-128 prompts")


def test_criterion_07_eviction_matches_brute_force_and_stays_monotone():
    rng = np.random.default_rng(107)
    mismatch = 0
    for trial in range(100):
        n = int(10 ** rng.uniform(1, 5)) if trial < 98 else 100_000
        layers = rng.integers(0, 4, size=n)
        heads = rng.integers(0, 4, size=n)
        births = rng.permutation(n)
        scores = np.round(rng.random(n) * 10, 1)  # coarse grid forces real ties
        m = int(rng.integers(1, n + 1))
        got = select_retained(scores, births, layers, heads, m)
        keys = list(zip(layers.tolist(), heads.tolist(), births.tolist(), scores.tolist()))
        want = sorted(range(n), key=lambda i: (-keys[i][3], -keys[i][2],
                                               keys[i][0], keys[i][1]))[:m]
        if got.tolist() != want:
            mismatch += 1

    store = PagedKVStore(2, 2, 1)
    policy = EvictionPolicy(store, "global", 50, horizon=2)
    budget_ok = True
    monotone_ok = True
    evicted_seen: set = set()
    r2 = np.random.default_rng(1070)
    for t in range(1000):
        for l in range(2):
            for h in range(2):
                admit(store, l, h, t, float(r2.random()))
        out = {(l, h, b) for (l, h), births in policy.step(t).items() for b in births}
        budget_ok &= policy.total_alive() <= 50
        alive = {(l, h, b) for l in range(2) for h in range(2)
                 for b in store.gather(l, h).births.tolist()}
        monotone_ok &= evicted_seen.isdisjoint(alive) and evicted_seen.isdisjoint(out)
        evicted_seen |= out
    report(7, mismatch == 0 and budget_ok and monotone_ok,
           f"0 of 100 sort mismatches, budget and monotonicity over 1000 steps")


def test_criterion_08_paged_cache_matches_shadow_store():
    from retainkv.paged_cache import PagedKVStore

    rng = np.random.default_rng(108)
    store = PagedKVStore(2, 2, 4, page_size=8)
    shadow: dict = {(l, h): [] for l in range(2) for h in range(2)}
    birth = 0
    identical = pages_ok = True
    for op in range(10_000):
        l, h = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        roll = rng.random()
        rows = shadow[(l, h)]
        if roll < 0.55 or not rows:
            k, v = rng.normal(size=4), rng.normal(size=4)
            beta = float(rng.random())
            store.append(l, h, k, v, birth, beta)
            rows.append((birth, k, v, beta))
            birth += 1
        elif roll < 0.85:
            take = rng.choice(len(rows), size=int(rng.integers(1, min(6, len(rows)) + 1)),
                              replace=False)
            gone = {rows[i][0] for i in take}
            store.evict(l, h, sorted(gone))
            shadow[(l, h)] = [r for r in rows if r[0] not in gone]
        else:   # every head holds exactly the pages its rows fill
            held = [-(-len(r) // 8) for r in shadow.values()]
            tables = snapshot(store)["tables"].values()
            pages_ok &= [t["pages"] for t in tables] == held
            pages_ok &= store.pages_in_use() == sum(held)
        if op % 500 == 0:
            check_accounting(store)
    attn_err = 0.0
    for (l, h), rows in shadow.items():
        snap = store.gather(l, h)
        births = np.array([r[0] for r in rows], dtype=np.int64)
        identical &= np.array_equal(snap.births, births)
        if rows:
            keys = np.stack([r[1] for r in rows])
            values = np.stack([r[2] for r in rows])
            identical &= np.array_equal(snap.keys, keys)
            identical &= np.array_equal(snap.values, values)
            identical &= np.array_equal(snap.betas, np.array([r[3] for r in rows]))
            q = rng.normal(size=4)
            ones = np.ones(len(rows))
            paged_out, paged_w = attend_full(q, HeadCache(snap.keys, snap.values,
                                                          snap.births, snap.betas))
            flat_out, flat_w = attend_full(q, HeadCache(keys, values, births, ones))
            attn_err = max(attn_err, float(np.abs(paged_w - flat_w).max()),
                           float(np.abs(paged_out - flat_out).max()))
    report(8, identical and attn_err < 1e-12 and pages_ok,
           f"10k ops bit-identical to shadow, attention diff {attn_err:.2e}, "
           f"pages follow rows: {pages_ok}")


@pytest.fixture(scope="module")
def needle_experiment():
    """Five-seeded paired runs: tied and untied gates, two budgets."""
    spec = TaskSpec()
    t0 = time.perf_counter()
    per_seed = []
    for seed in range(5):
        master = np.random.SeedSequence(seed)
        s_model, s_data, s_gates, s_train, s_eval = master.spawn(5)
        bb = build_task_model(spec, np.random.default_rng(s_model))
        train_data = [s.tokens for s in
                      generate_dataset(spec, 64, np.random.default_rng(s_data))]
        samples = generate_dataset(spec, 30, np.random.default_rng(s_eval))
        m_global = 0.15 * spec.seq_len * bb.shape.head_count
        train_seed = int(np.random.default_rng(s_train).integers(2 ** 31))
        accs = {}
        for tied in (True, False):
            gates = init_gate_params(default_shape(spec), bb.shape.d_model,
                                     np.random.default_rng(s_gates), tied=tied)
            result = train_gates(bb, gates, train_data, lam=1.0, m_global=m_global,
                                 lr=0.005, steps=500, batch_size=4, seed=train_seed)
            policies = (["full", "global", "per_head", "recency"] if tied
                        else ["global"])
            budgets = [0.0625, 0.25] if tied else [0.0625]
            cells = evaluate_policies(bb, result.params, samples, policies, budgets)
            accs["tied" if tied else "untied"] = {
                (c.policy, c.budget): c.accuracy for c in cells}
        per_seed.append(accs)
    return per_seed, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_09_needle_replication(needle_experiment):
    per_seed, elapsed = needle_experiment
    full = np.mean([s["tied"][("full", 0.25)] for s in per_seed])
    glob = np.mean([s["tied"][("global", 0.25)] for s in per_seed])
    rec = np.mean([s["tied"][("recency", 0.25)] for s in per_seed])
    ok = glob >= full - 0.02 and glob >= rec + 0.05 and elapsed < 900.0
    report(9, ok, f"global {glob:.3f} vs full {full:.3f} vs recency {rec:.3f} "
                  f"over 5 seeds, {elapsed:.0f}s")


@pytest.mark.slow
def test_global_budget_not_worse_than_per_head_split(needle_experiment):
    """Companion check: one global budget matches or beats an equal total
    budget split evenly across heads."""
    per_seed, _ = needle_experiment
    glob = np.mean([s["tied"][("global", 0.25)] for s in per_seed])
    per_head = np.mean([s["tied"][("per_head", 0.25)] for s in per_seed])
    assert glob >= per_head - 0.02, (glob, per_head)


@pytest.mark.slow
def test_criterion_10_weight_tying_ablation(needle_experiment):
    per_seed, _ = needle_experiment
    lowest = 0.0625
    wins = sum(s["tied"][("global", lowest)] >= s["untied"][("global", lowest)]
               for s in per_seed)
    pairs = [(s["tied"][("global", lowest)], s["untied"][("global", lowest)])
             for s in per_seed]
    report(10, wins >= 4, f"tied >= untied in {wins}/5 seeds at budget {lowest}: "
                          + " ".join(f"{t:.3f}/{u:.3f}" for t, u in pairs))


def test_criterion_11_survival_curve_sanity():
    spec = TaskSpec(context_len=48, n_keys=4, n_values=3, n_queries=2,
                    n_distractor_vocab=8, vocab=40)
    rng = np.random.default_rng(111)
    bb = build_task_model(spec, rng)
    samples = generate_dataset(spec, 4, rng)
    # one recorder per sample: a record follows one token of one sequence
    recorders = [SelectionRecorder(top_k=(1, 2, 4), tau=(0.99,)) for _ in samples]
    for s, recorder in zip(samples, recorders):
        decode_sequence(bb, None, s, "full", 1.0, recorder=recorder)
    horizons = [1, 2, 4, 8, 16, 32]
    curves = {}
    for criterion in recorders[0].criteria():
        reach = [rec.reach(criterion, l, h, spec.seq_len)
                 for l in range(bb.shape.layers) for h in range(bb.shape.heads)
                 for rec in recorders]
        curves[criterion] = survival_curve(np.concatenate(reach), horizons)

    nonincreasing = all(np.all(np.diff(c) <= 1e-12) for c in curves.values())
    k_monotone = (np.all(curves["top2"] >= curves["top1"] - 1e-12)
                  and np.all(curves["top4"] >= curves["top2"] - 1e-12))
    min_mass_size = min(size for rec in recorders for size in rec.mass_set_sizes)
    dominated = all(np.all(curves["mass0.99"] >= curves[f"top{k}"] - 1e-12)
                    for k in (1, 2, 4) if k <= min_mass_size)
    report(11, nonincreasing and k_monotone and dominated and min_mass_size >= 1,
           f"min mass-set size {min_mass_size}; curves ordered top1<=top2<=top4<=mass0.99")
