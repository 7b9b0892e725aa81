import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retainkv import theory
from retainkv.theory import (
    DilutionInstance,
    PersistenceConfig,
    StabilityError,
    check_reweighting_identity,
    check_dilution_bound,
    dilution_lower_bound,
    estimate_block_exit,
    fit_var1,
    pca_project,
    random_near_tie_instance,
    simulate_persistence,
    spectral_radius,
    survival_curve,
)

from conftest import mask_of


class TestDilutionLowerBound:
    def test_symmetric_point(self):
        assert dilution_lower_bound(0.0, 5, 5) == pytest.approx(0.5)

    def test_no_distractors(self):
        assert dilution_lower_bound(2.0, 0, 3) == 0.0

    def test_worked_example(self):
        # margin 1, 10 distractors, 1 useful: frozen from 40-digit evaluation
        assert dilution_lower_bound(1.0, 10, 1) == pytest.approx(0.786269728480424, abs=1e-14)

    def test_needs_useful_token(self):
        with pytest.raises(ValueError):
            dilution_lower_bound(1.0, 3, 0)


class TestDilutionBoundCheck:
    def test_exact_tie_reaches_count_bound(self):
        # distractors exactly tied with the best useful logit
        n_useful, n_tie = 2, 6
        logits = np.zeros(n_useful + n_tie)
        n = n_useful + n_tie
        inst = DilutionInstance(logits, mask_of(n, range(n_useful)), 0.0,
                                mask_of(n, range(n_useful, n)))
        res = check_dilution_bound(inst)
        assert res.delta == pytest.approx(n_tie / (n_useful + n_tie), abs=1e-12)
        assert res.holds

    def test_dominant_useful_with_empty_tie_set(self):
        logits = np.array([20.0, 19.5, 0.0, -1.0])
        inst = DilutionInstance(logits, mask_of(4, [0, 1]), 0.5, mask_of(4, []))
        res = check_dilution_bound(inst)
        assert res.bound == 0.0
        assert res.holds

    def test_randomized_sweep_always_holds(self, rng):
        for _ in range(1000):
            assert check_dilution_bound(random_near_tie_instance(rng)).holds

    def test_invalid_instances_rejected(self):
        with pytest.raises(ValueError):
            DilutionInstance(np.zeros(3), mask_of(3, [0]), 0.0,
                             mask_of(3, [0])).validate()
        with pytest.raises(ValueError):
            # index 2 sits far below the claimed margin
            DilutionInstance(np.array([0.0, 0.0, -9.0]), mask_of(3, [0]), 0.5,
                             mask_of(3, [2])).validate()

    def test_non_boolean_or_misshaped_masks_rejected(self):
        logits = np.zeros(3)
        good = mask_of(3, [0])
        for bad in (np.array([0]), np.array([1, 0, 0]), np.ones(2, dtype=bool)):
            with pytest.raises(ValueError, match="useful must be a boolean mask"):
                DilutionInstance(logits, bad, 0.0, mask_of(3, [1])).validate()
            with pytest.raises(ValueError, match="near_tie must be a boolean mask"):
                DilutionInstance(logits, good, 0.0, bad).validate()

    def test_distractor_count_drives_dilution_to_one(self):
        # margin fixed at 1, two useful tokens, growing near-tie pool
        deltas = []
        for n in (10, 100, 1000, 10000):
            logits = np.concatenate([np.zeros(2), np.full(n, -1.0)])
            inst = DilutionInstance(logits, mask_of(2 + n, [0, 1]), 1.0,
                                    mask_of(2 + n, range(2, 2 + n)))
            res = check_dilution_bound(inst)
            assert res.holds
            deltas.append(res.delta)
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] > 0.99


def reweighted_formula(logits, useful, retention) -> float:
    """The reweighting formula `check_reweighting_identity` reports."""
    return check_reweighting_identity(logits, useful, retention).formula


class TestRetentionDilution:
    """The formula side of the reweighting identity, on constructed inputs."""

    def test_equal_rates_fixed_point(self, rng):
        # one useful logit at 0 and one distractor at log(d / (1 - d)): dilution d
        for d in (0.3, 0.8):
            z = [0.0, np.log(d / (1.0 - d))]
            assert reweighted_formula(z, mask_of(2, [0]), [0.7, 0.7]) == \
                pytest.approx(d, abs=1e-15)
        # no distractor: dilution 0
        assert reweighted_formula([0.5, -1.0], mask_of(2, [0, 1]), [0.7, 0.7]) == 0.0
        for _ in range(20):
            z = rng.normal(0.0, 2.0, size=9)
            useful = mask_of(9, [0, 4])
            res = check_reweighting_identity(z, useful, np.full(9, 0.7))
            assert res.formula == pytest.approx(res.delta, abs=1e-15)

    def test_vanishing_ratio_kills_dilution(self, rng):
        z = rng.normal(size=10)
        useful = mask_of(10, [0])
        r = np.zeros(10)
        r[0] = 1.0
        assert reweighted_formula(z, useful, r) == 0.0
        r[1:] = 1e-9
        assert reweighted_formula(z, useful, r) < 1e-7

    def test_worked_example(self):
        # 10 equal logits, 1 useful: dilution 0.9, retention 1 on it, 0.1 elsewhere
        r = np.full(10, 0.1)
        r[0] = 1.0
        assert reweighted_formula(np.zeros(10), mask_of(10, [0]), r) == \
            pytest.approx(0.473684210526316, abs=1e-14)

    def test_monotone_in_ratio(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 20))
            z = rng.normal(0.0, 2.0, size=n)
            useful = mask_of(n, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            vals = []
            for rate in np.sort(rng.uniform(0, 1, size=8)):
                r = np.where(useful, 1.0, rate)
                vals.append(reweighted_formula(z, useful, r))
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_zero_useful_rate_rejected(self):
        with pytest.raises(ValueError, match="no useful token is retained"):
            reweighted_formula([0.0, 1.0, 2.0], mask_of(3, [0]), [0.0, 0.5, 0.5])


class TestReweightingIdentity:
    def test_all_ones_reproduces_plain_dilution(self, rng):
        z = rng.normal(size=10)
        useful = mask_of(10, [1, 4])
        res = check_reweighting_identity(z, useful, np.ones(10))
        assert res.direct == pytest.approx(res.delta, abs=1e-15)

    def test_indicator_of_useful_gives_zero(self, rng):
        z = rng.normal(size=8)
        useful = mask_of(8, [0, 3])
        r = np.zeros(8)
        r[[0, 3]] = 1.0
        res = check_reweighting_identity(z, useful, r)
        assert res.direct == 0.0
        assert res.formula == 0.0

    def test_exact_identity_randomized(self, rng):
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            z = rng.normal(0, 2, size=n)
            useful = mask_of(n, rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            r = rng.random(n)
            res = check_reweighting_identity(z, useful, r)
            worst = max(worst, abs(res.direct - res.formula))
        assert worst < 1e-12

    def test_non_boolean_or_misshaped_mask_rejected(self, rng):
        z = rng.normal(size=6)
        for bad in (np.array([0, 3]), np.array([1, 0, 0, 1, 0, 0]), np.ones(5, dtype=bool)):
            with pytest.raises(ValueError, match="useful must be a boolean mask"):
                check_reweighting_identity(z, bad, np.ones(6))

    def test_every_token_useful(self, rng):
        z = rng.normal(size=5)
        res = check_reweighting_identity(z, np.ones(5, dtype=bool), rng.random(5))
        assert (res.direct, res.formula, res.delta, res.rho_distractor) == (0.0, 0.0, 0.0, 0.0)

    def test_cross_check_against_retention_dilution_formula(self, rng):
        z = rng.normal(size=12)
        useful = mask_of(12, [0, 1, 2])
        r = rng.random(12)
        res = check_reweighting_identity(z, useful, r)
        # the closed form in the dilution alone: (r d) / ((1 - d) + r d), r = rho_d / rho_u
        a = res.rho_distractor / res.rho_useful * res.delta
        assert res.formula == pytest.approx(a / ((1.0 - res.delta) + a), abs=1e-12)


class TestPersistence:
    def bernoulli_config(self):
        # iid standard normal state; region r >= 0; exact per-step exit 1/2
        return PersistenceConfig(
            transition=np.zeros((1, 1)), offset=np.zeros(1), noise_scale=1.0,
            compat=np.array([[1.0], [-1.0]]), token=0, top_k=1, slack=0.0, block=1)

    def test_bernoulli_survival_is_half_per_step(self):
        res = simulate_persistence(self.bernoulli_config(), n_max=10, trials=20000, seed=5)
        for n in range(1, 6):
            assert res.survival[n - 1] == pytest.approx(0.5 ** n, abs=0.02)
        assert res.epsilon_hat == pytest.approx(0.5, abs=0.08)
        assert res.holds and not res.vacuous

    def test_rate_and_amplitude_formulas(self):
        eps, block = 0.19, 1
        beta = (1 - eps) ** (1 / block)
        assert beta == pytest.approx(0.81)
        assert 1 / (1 - eps) == pytest.approx(1.2345679012345678)

    def test_unstable_dynamics_rejected(self):
        cfg = PersistenceConfig(
            transition=np.eye(2) * 1.01, offset=np.zeros(2), noise_scale=1.0,
            compat=np.eye(2), token=0, top_k=1)
        with pytest.raises(StabilityError):
            simulate_persistence(cfg, n_max=5, trials=1000, seed=0)

    def test_vacuous_region_skips_bound(self):
        # slack so large the region covers the chain's entire reachable set
        cfg = PersistenceConfig(
            transition=np.eye(1) * 0.5, offset=np.zeros(1), noise_scale=0.1,
            compat=np.array([[1.0], [-1.0]]), token=0, top_k=1, slack=100.0, block=1)
        res = simulate_persistence(cfg, n_max=20, trials=1000, seed=0)
        assert res.vacuous
        assert res.epsilon_hat == 0.0
        assert res.holds  # trivially: survival cannot exceed one

    def test_exit_estimate_on_known_chain(self, rng):
        eps, _ = estimate_block_exit(self.bernoulli_config(), rng,
                                     n_starts=400, n_rollouts=400)
        assert eps == pytest.approx(0.5, abs=0.1)

    def test_early_stop_matches_all_steps_when_chains_exit(self):
        # every chain exits within 10 of the 60 steps
        args = (self.bernoulli_config(), 60, 1000, 3, 50, 40)
        want = persistence_all_steps(*args)
        assert want[0][30] == 0.0
        assert_same_persistence(simulate_persistence(*args), want)

    def test_early_stop_matches_all_steps_when_chains_survive(self):
        # the large-slack config of test_vacuous_region_skips_bound
        cfg = PersistenceConfig(
            transition=np.eye(1) * 0.5, offset=np.zeros(1), noise_scale=0.1,
            compat=np.array([[1.0], [-1.0]]), token=0, top_k=1, slack=100.0, block=1)
        args = (cfg, 20, 1000, 0, 50, 40)
        want = persistence_all_steps(*args)
        assert want[0][-1] == 1.0
        assert_same_persistence(simulate_persistence(*args), want)


class TestStationaryLaw:
    @staticmethod
    def configs():
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2))
        return [
            TestPersistence().bernoulli_config(),
            PersistenceConfig(
                transition=a * 0.85 / spectral_radius(a), offset=np.array([0.3, -0.2]),
                noise_scale=1.2, compat=np.eye(2), token=0, top_k=1),
            TestChunkedBlockExit.config(0, 1),
        ]

    @pytest.mark.parametrize("case", range(3))
    def test_solves_the_fixed_point_equations(self, case):
        cfg = self.configs()[case]
        a, s = cfg.transition, cfg.noise_scale
        mu, cov = theory._stationary_law(cfg)
        assert np.abs(mu - a @ mu - cfg.offset).max() <= 1e-12
        assert np.abs(cov - a @ cov @ a.T - s ** 2 * np.eye(a.shape[0])).max() <= 1e-12

    @pytest.mark.parametrize("case", range(3))
    def test_draws_have_the_stationary_moments(self, case):
        cfg = self.configs()[case]
        mu, cov = theory._stationary_law(cfg)
        n = 200_000
        x = theory._stationary(cfg, np.random.default_rng(case), n)
        assert x.shape == (n, mu.shape[0])
        var = np.diag(cov)
        assert np.all(np.abs(x.mean(axis=0) - mu) <= 5 * np.sqrt(var / n))
        # the standard error of a sample covariance of jointly normal entries
        se = np.sqrt((np.outer(var, var) + cov ** 2) / n)
        assert np.all(np.abs(np.cov(x, rowvar=False).reshape(cov.shape) - cov) <= 5 * se)

    def test_zero_noise_is_the_fixed_point(self):
        cfg = dataclasses.replace(TestChunkedBlockExit.config(0, 1), noise_scale=0.0)
        mu, _ = theory._stationary_law(cfg)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        x = theory._stationary(cfg, rng, 5)
        assert np.array_equal(x, np.tile(mu, (5, 1)))
        assert rng.bit_generator.state == before


def persistence_all_steps(cfg, n_max, trials, seed, n_starts, n_rollouts):
    """`simulate_persistence` with its survival loop run for all n_max steps.

    Returns (survival, stderr, bound, epsilon_hat, holds).
    """
    master = np.random.SeedSequence(seed)
    rng_exit, rng_run = [np.random.default_rng(s) for s in master.spawn(2)]
    eps_hat, _ = estimate_block_exit(cfg, rng_exit, n_starts, n_rollouts)
    states = theory._stationary(cfg, rng_run, trials)
    alive = np.ones(trials, dtype=bool)
    survival = np.empty(n_max)
    for n in range(n_max):
        states = theory._step(cfg, states, rng_run.standard_normal(states.shape))
        alive &= theory._in_region(cfg, states)
        survival[n] = alive.mean()
    stderr = np.sqrt(survival * (1.0 - survival) / trials)
    if eps_hat <= 0.0:
        return survival, stderr, np.ones(n_max), eps_hat, True
    beta = (1.0 - eps_hat) ** (1.0 / cfg.block)
    bound = 1.0 / (1.0 - eps_hat) * beta ** np.arange(1, n_max + 1)
    return survival, stderr, bound, eps_hat, bool(np.all(survival <= bound + 3.0 * stderr))


def assert_same_persistence(res, want):
    survival, stderr, bound, eps_hat, holds = want
    assert np.array_equal(res.survival, survival)
    assert np.array_equal(res.stderr, stderr)
    assert np.array_equal(res.bound, bound)
    assert res.epsilon_hat == eps_hat
    assert res.holds == holds


def region_by_partition(cfg, states):
    """The top-K region test by a partition: the oracle for `_in_region`."""
    scores = states @ cfg.compat.T
    own = scores[:, cfg.token]
    col = scores.shape[1] - cfg.top_k
    kth = np.partition(scores, col, axis=1)[:, col]
    return own >= kth - cfg.slack


def search_starts(cfg, rng, n_starts):
    """The in-region start states of `estimate_block_exit`, or None if none is
    found; region membership by partition."""
    state = theory._stationary(cfg, rng, 64)
    starts = []
    steps = 0
    while sum(s.shape[0] for s in starts) < n_starts and steps < theory.SEARCH_STEPS:
        state = theory._step(cfg, state, rng.standard_normal(state.shape))
        mask = region_by_partition(cfg, state)
        if mask.any():
            starts.append(state[mask])
        steps += 1
    return np.concatenate(starts)[:n_starts] if starts else None


def block_exit_whole_array(cfg, rng, n_starts, n_rollouts, alive_after=None):
    """`estimate_block_exit` with every rollout row stepped and tested at once.

    The first step draws noise for every row; each later step draws it, in
    row order, only for the rows alive before it, and moves dead rows by
    the noise-free step. Appends a copy of the rows' alive mask after each
    step to `alive_after`.
    """
    pool = search_starts(cfg, rng, n_starts)
    if pool is None:
        return 0.0, True
    expanded = np.repeat(pool, n_rollouts, axis=0)
    alive = np.ones(expanded.shape[0], dtype=bool)
    for _ in range(cfg.block):
        noise = np.zeros(expanded.shape)
        noise[alive] = rng.standard_normal((int(alive.sum()), expanded.shape[1]))
        expanded = theory._step(cfg, expanded, noise)
        alive &= region_by_partition(cfg, expanded)
        if alive_after is not None:
            alive_after.append(alive.copy())
    stay = alive.reshape(pool.shape[0], n_rollouts).mean(axis=1)
    return float(1.0 - stay.max()), False


@st.composite
def region_cases(draw):
    """A config and states: normal, integer-valued (exact score ties, and ties
    at the threshold under an integer slack), or with repeated compat rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, m, n = draw(st.integers(1, 30)), draw(st.integers(1, 3)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["normal", "integer", "repeated_compat"]))
    if kind == "integer":
        states = rng.integers(-3, 4, size=(rows, m)).astype(np.float64)
        compat = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
    else:
        states = rng.normal(size=(rows, m))
        compat = rng.normal(size=(n, m))
        if kind == "repeated_compat":
            compat = compat[rng.integers(0, draw(st.integers(1, n)), size=n)]
    slack = draw(st.one_of(st.just(0.0), st.integers(0, 3).map(float),
                           st.floats(0.0, 3.0, allow_nan=False)))
    cfg = PersistenceConfig(
        transition=np.zeros((m, m)), offset=np.zeros(m), noise_scale=1.0, compat=compat,
        token=draw(st.integers(0, n - 1)), top_k=draw(st.integers(1, n)), slack=slack)
    return cfg, states


class TestRegionKernel:
    @settings(max_examples=400, deadline=None)
    @given(region_cases())
    def test_count_matches_partition(self, case):
        cfg, states = case
        np.testing.assert_array_equal(theory._in_region(cfg, states),
                                      region_by_partition(cfg, states))

    def test_ties_are_inside(self):
        # own score 1 ties the best score; -1 ties the threshold 1 - slack 2
        cfg = PersistenceConfig(
            transition=np.zeros((1, 1)), offset=np.zeros(1), noise_scale=1.0,
            compat=np.array([[1.0], [1.0], [-1.0]]), token=0, top_k=1)
        states = np.array([[1.0], [-1.0]])
        np.testing.assert_array_equal(theory._in_region(cfg, states), [True, False])
        relaxed = dataclasses.replace(cfg, token=2, slack=2.0)
        np.testing.assert_array_equal(theory._in_region(relaxed, states), [True, True])


class TestChunkedBlockExit:
    """Row chunks reproduce the whole-array estimate and RNG stream exactly."""

    CHUNK = 16

    @staticmethod
    def config(seed, block):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        compat = rng.normal(size=(8, 3))
        return PersistenceConfig(
            transition=a * 0.6 / spectral_radius(a), offset=0.2 * rng.normal(size=3),
            noise_scale=0.9, compat=compat / np.linalg.norm(compat, axis=1, keepdims=True),
            token=int(rng.integers(0, 8)), top_k=2, slack=0.2, block=block)

    @staticmethod
    def check(cfg, seed, n_starts, n_rollouts):
        """Assert both estimates and RNG states agree; return the alive masks."""
        rng_chunked, rng_whole = np.random.default_rng(seed), np.random.default_rng(seed)
        got = estimate_block_exit(cfg, rng_chunked, n_starts=n_starts, n_rollouts=n_rollouts)
        alive_after = []
        want = block_exit_whole_array(cfg, rng_whole, n_starts, n_rollouts, alive_after)
        assert got == want
        assert rng_chunked.bit_generator.state == rng_whole.bit_generator.state
        return got, alive_after

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("block", (1, 2, 3))
    @pytest.mark.parametrize("n_starts,n_rollouts", ((1, 3 * CHUNK + 1), (3, 11), (1, 5)))
    def test_matches_whole_array(self, monkeypatch, seed, block, n_starts, n_rollouts):
        monkeypatch.setattr(theory, "CHUNK_ROWS", self.CHUNK)
        self.check(self.config(seed, block), seed, n_starts, n_rollouts)

    @pytest.mark.parametrize("block", (1, 2, 3))
    def test_every_rollout_exits_at_first_step(self, monkeypatch, block):
        # r' = -0.99 r + 1.99 + 1e-3 e oscillates about 1 with stationary sd
        # 0.0071; the region r <= 0.993 holds on about 16% of swings, and from
        # it r' <= 0.993 needs e < -13.9
        monkeypatch.setattr(theory, "CHUNK_ROWS", self.CHUNK)
        cfg = PersistenceConfig(
            transition=np.array([[-0.99]]), offset=np.array([1.99]), noise_scale=1e-3,
            compat=np.array([[0.0], [1.0]]), token=0, top_k=1, slack=0.993, block=block)
        (eps, unreachable), alive_after = self.check(cfg, 0, 5, 2 * self.CHUNK + 3)
        assert (eps, unreachable) == (1.0, False)
        assert not alive_after[0].any()

    def test_some_chunks_dead_others_live(self, monkeypatch):
        # each of the 30 two-row chunks is dead after step 1 with chance 1/4
        # and after step 2 with chance 9/16
        chunk = 2
        monkeypatch.setattr(theory, "CHUNK_ROWS", chunk)
        cfg = dataclasses.replace(TestPersistence().bernoulli_config(), block=3)
        _, alive_after = self.check(cfg, 1, 2, 30)
        for alive in alive_after[:2]:
            live_chunks = [alive[lo:lo + chunk].any() for lo in range(0, alive.size, chunk)]
            assert any(live_chunks) and not all(live_chunks)

    @pytest.mark.parametrize("block", (1, 2, 3))
    def test_draws_only_for_live_rows(self, monkeypatch, block):
        # after the start and search draws, one normal per row of width m for
        # every rollout at the first step and every live rollout at later ones
        monkeypatch.setattr(theory, "CHUNK_ROWS", self.CHUNK)
        cfg, n_starts, n_rollouts = self.config(1, block), 3, 11
        _, alive_after = self.check(cfg, 1, n_starts, n_rollouts)
        rng = np.random.default_rng(1)
        estimate_block_exit(cfg, rng, n_starts=n_starts, n_rollouts=n_rollouts)
        want = np.random.default_rng(1)
        pool = search_starts(cfg, want, n_starts)
        live = sum(int(alive.sum()) for alive in alive_after[:-1])
        want.standard_normal((pool.shape[0] * n_rollouts + live) * cfg.transition.shape[0])
        assert rng.bit_generator.state == want.bit_generator.state

    def test_default_rollouts_peak_memory(self):
        # 1000 starts x 1000 rollouts; a [10**6, 3] array of states is 24 MB
        rng = np.random.default_rng(7)
        compat = rng.normal(size=(13, 3))
        cfg = PersistenceConfig(
            transition=np.diag([0.5, -0.3, 0.2]), offset=np.zeros(3), noise_scale=1.0,
            compat=compat, token=0, top_k=4, slack=0.1, block=1)
        tracemalloc.start()
        try:
            eps, unreachable = estimate_block_exit(cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not unreachable and 0.0 < eps < 1.0
        assert peak < 10e6, f"estimate_block_exit peaked at {peak / 1e6:.1f} MB"


class TestVar1Fit:
    def test_recovers_known_radius(self, rng):
        m = 4
        a = rng.normal(size=(m, m))
        a *= 0.76 / spectral_radius(a)
        states = np.zeros((3000, m))
        for t in range(2999):
            states[t + 1] = a @ states[t] + 0.05 * rng.normal(size=m)
        fit = fit_var1([states])
        assert fit.spectral_radius == pytest.approx(0.76, abs=0.05)
        assert fit.stable

    def test_iid_data_has_near_zero_radius(self, rng):
        states = rng.normal(size=(500, 3))
        fit = fit_var1([states])
        assert fit.spectral_radius < 0.15

    def test_random_walk_flagged_unstable(self, rng):
        walk = np.cumsum(rng.normal(size=(500, 3)), axis=0)
        fit = fit_var1([walk])
        assert fit.spectral_radius == pytest.approx(1.0, abs=0.05)
        assert not fit.stable

    def test_short_trajectory_rejected(self, rng):
        with pytest.raises(ValueError):
            fit_var1([rng.normal(size=(3, 4))])

    def test_singular_design_rejected(self):
        flat = np.zeros((50, 3))
        with pytest.raises(ValueError):
            fit_var1([flat])

    def test_pooled_trajectories(self, rng):
        a = np.diag([0.5, -0.3])
        trajs = []
        for _ in range(5):
            s = np.zeros((50, 2))
            for t in range(49):
                s[t + 1] = a @ s[t] + 0.1 * rng.normal(size=2)
            trajs.append(s)
        fit = fit_var1(trajs)
        assert fit.spectral_radius == pytest.approx(0.5, abs=0.07)


class TestPcaProject:
    def test_projects_onto_dominant_directions(self, rng):
        base = rng.normal(size=(500, 2)) * np.array([5.0, 1.0])
        mix, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        states = base @ mix[:, :2].T
        proj, comps, eigvals = pca_project(states, 2)
        assert proj.shape == (500, 2)
        assert eigvals[0] > eigvals[1] > 0
        # projected variance captures nearly everything
        assert proj.var(axis=0).sum() == pytest.approx(states.var(axis=0).sum(), rel=0.01)


class TestSurvivalCurve:
    def test_selection_distance_semantics(self):
        # born at 10, last selected at 15
        assert survival_curve(np.array([15 - 10]), [4, 5, 6]).tolist() == [1.0, 1.0, 0.0]

    def test_never_selected_token_is_dead(self):
        assert survival_curve(np.array([-1]), [1, 2]).tolist() == [0.0, 0.0]

    def test_plateau_fraction(self, rng):
        reach = []
        for i in range(100):
            if i < 10:  # 10% of tokens stay selected forever
                reach.append(1000)
            else:
                reach.append(int(rng.integers(1, 5)))
        curve = survival_curve(np.array(reach), [1, 8, 64, 512])
        assert curve[0] == 1.0
        assert curve[-2] == pytest.approx(0.10)
        assert curve[-1] == pytest.approx(0.10)
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    @pytest.mark.parametrize("horizons", [[1.5, 2.7], [2.0], [True]])
    def test_non_integer_horizon_rejected(self, horizons):
        with pytest.raises(ValueError, match="horizons must be integers"):
            survival_curve(np.array([0, 1, 2, 3]), horizons)
