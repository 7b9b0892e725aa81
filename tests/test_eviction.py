import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retainkv import eviction
from retainkv.eviction import (
    INFINITE,
    POLICIES,
    TRACE_FIELDS,
    EvictionPolicy,
    score_entries,
    select_retained,
    trace_columns,
)
from retainkv.paged_cache import PagedKVStore

from conftest import admit


def score(beta, birth, now, horizon):
    """`score_entries` for one entry."""
    return float(score_entries([birth], [beta], now, horizon)[0])


def direct_sum(beta, birth, now, horizon):
    """Term-by-term oracle for the geometric utility sum."""
    total = 0.0
    for s in range(now + 1, now + 1 + horizon):
        e = s - birth
        total += beta ** e if not (beta == 0.0 and e == 0) else 1.0
    return total


def math_closed_form(beta, birth, now, horizon):
    """Scalar oracle: the closed form through the `math` module."""
    if beta == 1.0:
        return float(horizon) if horizon != INFINITE else math.inf
    if beta == 0.0:
        return 0.0
    head = math.exp((now + 1 - birth) * math.log(beta))
    if horizon == INFINITE:
        return head / (1.0 - beta)
    return head * -math.expm1(horizon * math.log(beta)) / (1.0 - beta)


class TestGlobalScore:
    def test_beta_one_is_horizon(self):
        assert score(1.0, birth=3, now=10, horizon=7) == 7.0

    def test_horizon_one_is_myopic(self):
        for beta in (0.2, 0.5, 0.9):
            assert score(beta, 2, 5, 1) == pytest.approx(beta ** 4, rel=1e-14)

    def test_worked_example(self):
        assert score(0.5, birth=4, now=4, horizon=2) == pytest.approx(0.75, abs=1e-15)

    def test_matches_direct_sum_on_grid(self):
        betas = [0.0, 1e-6, 0.5, 1.0 - 1e-6, 1.0]
        for beta in betas:
            for age in range(0, 65, 8):
                for horizon in range(1, 65, 7):
                    got = score(beta, 0, age, horizon)
                    want = direct_sum(beta, 0, age, horizon)
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            score(1.5, 0, 0, 1)
        with pytest.raises(ValueError):
            score(0.5, 5, 3, 1)
        with pytest.raises(ValueError):
            score(0.5, 0, 0, 0)


class TestGlobalScoreInfinite:
    def test_half(self):
        assert score(0.5, birth=0, now=0, horizon=INFINITE) == pytest.approx(1.0)

    def test_zero(self):
        assert score(0.0, 0, 5, INFINITE) == 0.0

    def test_point_nine_age_three(self):
        # exponent now+1-birth = 3 -> 0.9**3 / 0.1
        assert score(0.9, birth=2, now=4, horizon=INFINITE) == pytest.approx(7.29, rel=1e-12)

    def test_beta_one_diverges(self):
        assert score(1.0, 0, 0, INFINITE) == math.inf


class TestScoreEntries:
    def test_matches_scalar(self, rng):
        births = rng.integers(0, 50, size=200)
        betas = np.concatenate([rng.random(196), [0.0, 1.0, 0.0, 1.0]])
        now = 60
        for horizon in (1, 2, 5, INFINITE):
            vec = score_entries(births, betas, now, horizon)
            for i in range(200):
                assert vec[i] == pytest.approx(
                    math_closed_form(betas[i], int(births[i]), now, horizon), rel=1e-12)

    def test_infinite_horizon_beta_one_is_inf(self):
        vec = score_entries([0, 1], [1.0, 0.5], now=5, horizon=INFINITE)
        assert math.isinf(vec[0])
        assert vec[1] == pytest.approx(math_closed_form(0.5, 1, 5, INFINITE), rel=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            score_entries([0, 1], [0.5, 1.5], now=3, horizon=2)
        with pytest.raises(ValueError):
            score_entries([0, 1], [0.5, np.nan], now=3, horizon=2)
        with pytest.raises(ValueError):
            score_entries([0, 4], [0.5, 0.5], now=3, horizon=2)
        with pytest.raises(ValueError):
            score_entries([0], [0.5], now=3, horizon=0)
        with pytest.raises(ValueError):
            score_entries([0, 1], [0.5], now=3, horizon=2)

    def test_empty(self):
        assert score_entries([], [], now=0, horizon=2).shape == (0,)


def brute_force_retain(layers, heads, births, scores, m):
    """Oracle: full sort by the documented tie rule using python sorted()."""
    keys = list(zip(layers.tolist(), heads.tolist(), births.tolist(), scores.tolist()))
    ranked = sorted(range(len(keys)), key=lambda i: (-keys[i][3], -keys[i][2],
                                                     keys[i][0], keys[i][1]))
    return ranked[:m]


def retain(entries, m):
    """(layer, head, birth) of the entries `select_retained` keeps, best first."""
    layers, heads, births, scores = (np.array(c) for c in zip(*entries))
    idx = select_retained(scores, births, layers, heads, m)
    return [entries[i][:3] for i in idx]


class TestEvictGlobal:
    def test_under_budget_retains_all(self):
        entries = [(0, 0, i, float(i)) for i in range(5)]
        assert len(retain(entries, 10)) == 5

    def test_tie_break_example(self):
        scores = [5.0, 4.0, 4.0, 3.0, 2.0, 1.0]
        entries = [(0, 0, i, s) for i, s in enumerate(scores)]
        assert sorted(b for _, _, b in retain(entries, 3)) == [0, 1, 2]

    def test_all_equal_scores_rule_forced(self):
        entries = [(1, 1, 4, 1.0), (0, 1, 4, 1.0), (0, 0, 9, 1.0), (1, 0, 2, 1.0)]
        # youngest first, then (layer, head) lexicographic
        assert retain(entries, 2) == [(0, 0, 9), (0, 1, 4)]

    def test_duplicate_entries_rejected(self):
        store = PagedKVStore(1, 1, 1)
        admit(store, 0, 0, 1, 0.5)
        with pytest.raises(ValueError):
            admit(store, 0, 0, 1, 0.5)

    def test_matches_brute_force(self, rng):
        for trial in range(30):
            n = int(rng.integers(1, 400))
            keys = set()
            while len(keys) < n:
                keys.add((int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                          int(rng.integers(0, 200))))
            layers, heads, births = (np.array(c) for c in zip(*sorted(keys)))
            perm = rng.permutation(n)
            layers, heads, births = layers[perm], heads[perm], births[perm]
            scores = np.array([float(rng.choice([0.0, 0.5, 1.0, 2.0, rng.random() * 3]))
                               for _ in range(n)])
            m = int(rng.integers(1, n + 1))
            got = select_retained(scores, births, layers, heads, m)
            assert got.tolist() == brute_force_retain(layers, heads, births, scores, m)

    def test_per_head_keeps_top_m_of_each_group(self, rng):
        n = 300
        layers, heads = rng.integers(0, 2, size=n), rng.integers(0, 3, size=n)
        births = rng.permutation(n)
        scores = np.round(rng.random(n) * 4, 1)
        got = select_retained(scores, births, layers, heads, 7, per_head=True)
        want = []
        for l in range(2):
            for h in range(3):
                group = np.flatnonzero((layers == l) & (heads == h))
                best = brute_force_retain(layers[group], heads[group], births[group],
                                          scores[group], 7)
                want.extend(group[best].tolist())
        assert got.tolist() == want


class TestHorizonBehavior:
    def test_longer_horizon_favors_higher_beta(self):
        # equal myopic scores: beta 0.5 at age exponent 2 vs beta 0.25 at exponent 1
        a = dict(beta=0.5, birth=0, now=1)
        b = dict(beta=0.25, birth=0, now=0)
        s_a1 = score(a["beta"], a["birth"], a["now"], 1)
        s_b1 = score(b["beta"], b["birth"], b["now"], 1)
        assert s_a1 == pytest.approx(s_b1, abs=1e-15)
        flipped = False
        for horizon in range(2, 50):
            if score(a["beta"], a["birth"], a["now"], horizon) > \
               score(b["beta"], b["birth"], b["now"], horizon):
                flipped = True
                break
        assert flipped


def alive(store, layer, head):
    return store.gather(layer, head).births.tolist()


def alive_keys(store):
    return {(l, h, b) for l in range(store.layers) for h in range(store.heads)
            for b in alive(store, l, h)}


class TestPolicy:
    def test_huge_budget_never_evicts(self):
        store = PagedKVStore(1, 1, 1)
        policy = EvictionPolicy(store, "global", 10**9)
        for t in range(100):
            admit(store, 0, 0, t, 0.1)
            assert policy.step(t) == {}
        assert policy.total_alive() == 100

    def test_budget_respected_and_monotone(self, rng):
        """At each step every (layer, head) caches the new token's entry."""
        store = PagedKVStore(2, 2, 1)
        policy = EvictionPolicy(store, "global", 40, horizon=2, cadence=1)
        evicted: set = set()
        prev_alive: set = set()
        for t in range(1000):
            for l in range(2):
                for h in range(2):
                    admit(store, l, h, t, float(rng.random()))
            out = {(l, h, b) for (l, h), births in policy.step(t).items() for b in births}
            assert policy.total_alive() <= policy.m_global
            alive_now = alive_keys(store)
            assert len(alive_now) == policy.total_alive()
            assert evicted.isdisjoint(out)               # evicted once, never again
            assert out <= prev_alive | {(l, h, t) for l in range(2) for h in range(2)}
            assert alive_now.isdisjoint(out)
            evicted |= out
            prev_alive = alive_now

    def test_deterministic_rerun(self, rng):
        def run(seed):
            r = np.random.default_rng(seed)
            store = PagedKVStore(2, 2, 1)
            policy = EvictionPolicy(store, "global", 20, horizon=3)
            snapshots = []
            for t in range(200):
                for l in range(2):
                    for h in range(2):
                        admit(store, l, h, t, float(r.random()))
                policy.step(t)
                snapshots.append(tuple(sorted(alive_keys(store))))
            return snapshots

        assert run(7) == run(7)

    def test_two_head_dynamic_allocation(self):
        """Head A's tokens always score higher; head B shrinks to its newest."""
        store = PagedKVStore(1, 2, 1)
        policy = EvictionPolicy(store, "global", 8, horizon=2)
        for t in range(40):
            admit(store, 0, 0, t, 0.95)   # persistent head
            admit(store, 0, 1, t, 0.05)   # transient head
            policy.step(t)
        a = alive(store, 0, 0)
        b = alive(store, 0, 1)
        assert len(a) + len(b) <= 8
        assert len(a) > len(b)
        assert all(x >= 39 for x in b)  # head B keeps only its newest token

    def test_trace_rows_recorded(self):
        trace = []
        store = PagedKVStore(1, 2, 1)
        policy = EvictionPolicy(store, "global", 1, trace=trace)
        admit(store, 0, 0, 0, 0.9)
        admit(store, 0, 1, 0, 0.1)
        policy.step(0)
        cols = trace_columns(trace)
        actions = set(zip(cols["head"].tolist(), cols["retained"].tolist()))
        assert actions == {(0, True), (1, False)}

    @pytest.mark.parametrize("name", ["global", "per_head"])
    def test_ranking_under_budget_is_skipped_untraced(self, monkeypatch, name):
        """Untraced, a ranking that cannot evict scores nothing; traced, it
        still ranks and writes one block per step."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return score_entries(*args, **kwargs)

        def run(trace):
            calls.clear()
            store = PagedKVStore(2, 2, 1)
            # 16 entries in all, 4 in each head: neither ranking can evict
            policy = EvictionPolicy(store, name, 16 if name == "global" else 4, trace=trace)
            for t in range(4):
                for l in range(2):
                    for h in range(2):
                        admit(store, l, h, t, 0.5)
                assert policy.step(t) == {}
            assert store.total_entries() == 16
            return list(calls)

        monkeypatch.setattr(eviction, "score_entries", counted)
        assert run(None) == []
        trace = []
        assert run(trace) == [0, 1, 2, 3]
        assert [block[0].tolist() for block in trace] == [[t] * 4 * (t + 1) for t in range(4)]
        assert all(block[-1].all() for block in trace)

    @pytest.mark.parametrize("name", ["global", "per_head"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_skipped_ranking_still_checks_now(self, name, traced):
        store = PagedKVStore(1, 2, 1)
        policy = EvictionPolicy(store, name, 8, trace=[] if traced else None)
        admit(store, 0, 0, 0, 0.5)
        admit(store, 0, 1, 3, 0.5)
        with pytest.raises(ValueError, match="now must be >= every birth"):
            policy.compress(2)
        assert policy.compress(3) == {}
        assert store.total_entries() == 2

    def test_readmission_rejected(self):
        store = PagedKVStore(1, 2, 1)
        policy = EvictionPolicy(store, "global", 1)
        admit(store, 0, 0, 0, 0.5)
        admit(store, 0, 1, 0, 0.9)
        assert policy.step(0) == {(0, 0): [0]}
        with pytest.raises(ValueError):
            admit(store, 0, 0, 0, 0.5)


def test_config_validation():
    store = PagedKVStore(1, 1, 1)
    with pytest.raises(ValueError):
        EvictionPolicy(store, "global", 0)
    with pytest.raises(ValueError):
        EvictionPolicy(store, "global", 1, horizon=0)
    with pytest.raises(ValueError):
        EvictionPolicy(store, "global", 1, cadence=0)


@pytest.mark.parametrize("field", ["m_global", "horizon", "cadence"])
@pytest.mark.parametrize("value", [2.5, np.float64(2.0), "3"], ids=["float", "np_float", "str"])
def test_fractional_parameters_rejected(field, value):
    """A budget, horizon or cadence is an integer index: `m_global=2.5` used to
    construct and then fail mid-decode (or keep 3 entries under `recency`),
    and `horizon=2.5` scored as 2. Numpy integers pass."""
    store = PagedKVStore(1, 1, 1)
    with pytest.raises(TypeError):
        EvictionPolicy(store, "recency", **{"m_global": 4, field: value})
    policy = EvictionPolicy(store, "recency", np.int64(4), horizon=np.int32(2),
                            cadence=np.int64(1))
    assert (policy.m_global, policy.horizon, policy.cadence) == (4, 2, 1)
    assert EvictionPolicy(store, "global", 4, horizon=INFINITE).horizon == INFINITE


def test_score_entries_takes_an_integer_horizon():
    """`horizon=2.9` was scored as horizon 2."""
    for horizon in (2.9, np.float64(2.0)):
        with pytest.raises(TypeError):
            score_entries([0], [0.5], 0, horizon)
    assert score_entries([0], [0.5], 0, np.int64(2)).tolist() == \
        score_entries([0], [0.5], 0, 2).tolist()


# -- property test: the engine against a brute-force oracle ----------------------

BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)   # coarse, so equal scores really occur


class BruteForcePolicy:
    """Reference semantics: a python list of live entries, ranked by sorted().

    Trace rows come in (birth, layer, head) order for "global" and in
    (layer, head, birth) order for "per_head"."""

    def __init__(self, policy, m, horizon, cadence):
        self.policy, self.m, self.horizon, self.cadence = policy, m, horizon, cadence
        self.alive = []   # (layer, head, birth, beta) in admission order
        self.trace = []

    def step(self, now):
        if self.policy == "full" or not self.alive:
            return {}
        if self.policy != "recency" and (now + 1) % self.cadence:
            return {}
        if self.policy == "recency":
            keep = {i for i, e in enumerate(self.alive) if e[2] > now - self.m}
        else:
            scores = score_entries([e[2] for e in self.alive], [e[3] for e in self.alive],
                                   now, self.horizon).tolist()
            ranked = sorted(range(len(self.alive)), key=lambda i: (
                -scores[i], -self.alive[i][2], self.alive[i][0], self.alive[i][1]))
            if self.policy == "global":
                keep = set(ranked[:self.m])
            else:
                keep = set()
                for g in {e[:2] for e in self.alive}:
                    keep |= set([i for i in ranked if self.alive[i][:2] == g][:self.m])
            order = (lambda e: e[:3]) if self.policy == "per_head" else (
                lambda e: (e[2], e[0], e[1]))
            rows = sorted(range(len(self.alive)), key=lambda i: order(self.alive[i]))
            self.trace += [(now, *self.alive[i][:3], scores[i], i in keep) for i in rows]
        evicted = {}
        for i, e in enumerate(self.alive):
            if i not in keep:
                evicted.setdefault(e[:2], []).append(e[2])
        self.alive = [e for i, e in enumerate(self.alive) if i in keep]
        return evicted


class NarrowStore:
    """A store that shows only `layers`, `heads`, `live_entries`, `retain` and
    `total_entries`: a policy that reads anything else raises AttributeError."""

    def __init__(self, store):
        self.layers, self.heads = store.layers, store.heads
        self.live_entries, self.retain = store.live_entries, store.retain
        self.total_entries = store.total_entries


@st.composite
def scripts(draw):
    policy = draw(st.sampled_from(POLICIES))
    m = draw(st.integers(1, 12))
    horizon = draw(st.sampled_from([1, 2, 5, INFINITE]))
    cadence = draw(st.integers(1, 3))
    ops = draw(st.lists(st.one_of(
        st.just(("step",)),
        st.tuples(st.just("admit"), st.integers(0, 1), st.integers(0, 2),
                  st.integers(0, 2), st.sampled_from(BETA_GRID))), max_size=120))
    return policy, m, horizon, cadence, ops


class TestEngineMatchesBruteForce:
    """One script runner, traced and untraced: an untraced ranking that cannot
    evict is skipped, so both runs must match the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(scripts())
    def test_random_interleavings(self, script):
        self.run_script(script, traced=True)

    @settings(max_examples=300, deadline=None)
    @given(scripts())
    def test_random_interleavings_untraced(self, script):
        self.run_script(script, traced=False)

    @staticmethod
    def run_script(script, traced):
        policy_name, m, horizon, cadence, ops = script
        trace = [] if traced else None
        store = PagedKVStore(2, 3, 1)
        # the policy sees the store only through what a compression needs
        policy = EvictionPolicy(NarrowStore(store), policy_name, m, horizon, cadence, trace)
        oracle = BruteForcePolicy(policy_name, m, horizon, cadence)
        now = 0
        latest, evicted = {}, set()   # latest: largest birth appended per (layer, head)
        for op in ops:
            if op[0] == "admit":
                _, l, h, back, beta = op
                key = (l, h, max(0, now - back))
                if key[2] <= latest.get((l, h), -1):
                    with pytest.raises(ValueError):
                        admit(store, *key, beta)
                    continue
                latest[(l, h)] = key[2]
                admit(store, *key, beta)
                oracle.alive.append((*key, beta))
                continue
            got = policy.step(now)
            want = oracle.step(now)
            assert got == want
            out = {(l, h, b) for (l, h), births in got.items() for b in births}
            assert evicted.isdisjoint(out)
            evicted |= out
            alive_now = alive_keys(store)
            assert alive_now == {e[:3] for e in oracle.alive}
            assert alive_now.isdisjoint(evicted)
            assert policy.total_alive() == len(alive_now)
            compressed = policy_name == "recency" or (
                policy_name != "full" and (now + 1) % cadence == 0)
            if compressed and policy_name == "global":
                assert len(alive_now) <= m
            if compressed and policy_name in ("per_head", "recency"):
                for l in range(2):
                    for h in range(3):
                        assert len(alive(store, l, h)) <= m
            if compressed and policy_name == "recency":
                assert all(b > now - m for _, _, b in alive_now)
            now += 1
        if traced:
            cols = trace_columns(trace)
            assert list(zip(*(cols[f].tolist() for f in TRACE_FIELDS))) == oracle.trace
