import math

import numpy as np
import pytest

from retainkv.attention import HeadCache, attend_evicted, attend_full, attend_retained
from retainkv.numerics import EmptySupportError
from retainkv.theory import dilution

from conftest import mask_of


def make_cache(rng, n, d=4, betas=None):
    return HeadCache(
        keys=rng.normal(size=(n, d)),
        values=rng.normal(size=(n, d)),
        birth_steps=np.arange(n),
        betas=np.ones(n) if betas is None else np.asarray(betas, dtype=float),
    )


def straight_line_attention(q, keys, values):
    """Independent oracle: plain loops, no shared code with the implementation."""
    d = len(q)
    logits = []
    for k in keys:
        logits.append(sum(qi * ki for qi, ki in zip(q, k)) / math.sqrt(d))
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    weights = [e / total for e in exps]
    out = [sum(w * v[j] for w, v in zip(weights, values)) for j in range(d)]
    return np.array(out), np.array(weights)


class TestAttendFull:
    def test_single_entry(self, rng):
        cache = make_cache(rng, 1)
        out, w = attend_full(rng.normal(size=4), cache)
        np.testing.assert_allclose(w, [1.0])
        np.testing.assert_allclose(out, cache.values[0])

    def test_identical_keys_split_evenly(self, rng):
        k = rng.normal(size=4)
        cache = HeadCache(keys=np.stack([k, k]), values=rng.normal(size=(2, 4)),
                          birth_steps=[0, 1], betas=[1.0, 1.0])
        _, w = attend_full(rng.normal(size=4), cache)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_matches_straight_line_oracle(self, rng):
        for _ in range(20):
            cache = make_cache(rng, 5)
            q = rng.normal(size=4)
            out, w = attend_full(q, cache)
            oracle_out, oracle_w = straight_line_attention(q, cache.keys, cache.values)
            np.testing.assert_allclose(w, oracle_w, atol=1e-13)
            np.testing.assert_allclose(out, oracle_out, atol=1e-13)

    def test_empty_cache_raises(self):
        cache = HeadCache(keys=np.zeros((0, 4)), values=np.zeros((0, 4)),
                          birth_steps=[], betas=[])
        with pytest.raises(ValueError):
            attend_full(np.zeros(4), cache)

    def test_rotation_invariance(self, rng):
        cache = make_cache(rng, 8)
        q = rng.normal(size=4)
        rot, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = HeadCache(keys=cache.keys @ rot.T, values=cache.values,
                            birth_steps=cache.birth_steps, betas=cache.betas)
        _, w = attend_full(q, cache)
        _, w_rot = attend_full(rot @ q, rotated)
        np.testing.assert_allclose(w, w_rot, atol=1e-12)


class TestAttendRetained:
    def test_all_ones_recovers_full(self, rng):
        for _ in range(10):
            cache = make_cache(rng, 6)
            q = rng.normal(size=4)
            out_f, w_f = attend_full(q, cache)
            out_r, w_r = attend_retained(q, cache, step=9)
            np.testing.assert_allclose(w_r, w_f, atol=1e-12)
            np.testing.assert_allclose(out_r, out_f, atol=1e-12)

    def test_newest_token_ignores_own_beta(self, rng):
        betas = [0.3, 0.0]
        cache = make_cache(rng, 2, betas=betas)
        q = rng.normal(size=4)
        _, w = attend_retained(q, cache, step=1)  # newest token age 0
        ref = HeadCache(cache.keys, cache.values, cache.birth_steps, [0.3, 1.0])
        _, w_ref = attend_retained(q, ref, step=1)
        np.testing.assert_allclose(w, w_ref, atol=1e-15)

    def test_geometric_weights_worked_example(self):
        # equal logits, betas [0.5, 1.0], ages [2, 0] -> [0.25, 1] / 1.25
        k = np.ones(4)
        cache = HeadCache(keys=np.stack([k, k]), values=np.eye(4)[:2],
                          birth_steps=[0, 2], betas=[0.5, 1.0])
        _, w = attend_retained(np.zeros(4), cache, step=2)
        np.testing.assert_allclose(w, [0.2, 0.8], atol=1e-15)

    def test_all_zero_weight_is_empty_support(self, rng):
        cache = make_cache(rng, 3, betas=[0.0, 0.0, 0.0])
        with pytest.raises(EmptySupportError):
            attend_retained(rng.normal(size=4), cache, step=10)

    def test_step_before_birth_rejected(self, rng):
        cache = make_cache(rng, 3)
        with pytest.raises(ValueError):
            attend_retained(rng.normal(size=4), cache, step=1)

    def test_binary_betas_match_hard_eviction(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 12))
            cache = make_cache(rng, n)
            keep = rng.random(n) < 0.5
            keep[int(rng.integers(0, n))] = True
            betas = np.where(keep, 1.0, 0.0)
            gated = HeadCache(cache.keys, cache.values, cache.birth_steps, betas)
            q = rng.normal(size=4)
            # ages of non-kept tokens must be positive for beta=0 to evict them
            _, w_soft = attend_retained(q, gated, step=n)
            _, w_hard = attend_evicted(q, cache, np.flatnonzero(keep))
            np.testing.assert_allclose(w_soft, w_hard, atol=1e-12)


class TestAttendEvicted:
    def test_retain_all_equals_full(self, rng):
        cache = make_cache(rng, 7)
        q = rng.normal(size=4)
        out_f, w_f = attend_full(q, cache)
        out_e, w_e = attend_evicted(q, cache, range(7))
        np.testing.assert_allclose(w_e, w_f, atol=1e-15)
        np.testing.assert_allclose(out_e, out_f, atol=1e-15)

    def test_singleton_returns_value_exactly(self, rng):
        cache = make_cache(rng, 5)
        out, w = attend_evicted(rng.normal(size=4), cache, [3])
        assert w[3] == 1.0
        np.testing.assert_array_equal(out, cache.values[3])

    def test_matches_delete_then_softmax_oracle(self, rng):
        for _ in range(20):
            cache = make_cache(rng, 8)
            q = rng.normal(size=4)
            kept = sorted(rng.choice(8, size=4, replace=False))
            _, w = attend_evicted(q, cache, kept)
            _, oracle_w = straight_line_attention(q, cache.keys[kept], cache.values[kept])
            np.testing.assert_allclose(w[kept], oracle_w, atol=1e-12)
            assert np.all(np.delete(w, kept) == 0.0)

    def test_empty_retained_raises(self, rng):
        with pytest.raises(ValueError):
            attend_evicted(rng.normal(size=4), make_cache(rng, 3), [])


class TestDilution:
    def test_all_useful_is_zero(self):
        assert dilution(np.full(4, 0.25), mask_of(4, range(4))) == 0.0

    def test_uniform_fraction(self):
        assert dilution(np.full(10, 0.1), mask_of(10, range(3))) == pytest.approx(0.7)

    def test_empty_useful_set_is_one(self):
        assert dilution(np.full(5, 0.2), mask_of(5, [])) == 1.0

    def test_near_tie_instance_matches_complement_oracle(self, rng):
        # near-tie construction: useful and distractor logits within 0.05 nats
        n = 12
        keys = rng.normal(size=(n, 4))
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        cache = HeadCache(keys=keys, values=rng.normal(size=(n, 4)),
                          birth_steps=np.arange(n), betas=np.ones(n))
        _, w = attend_full(np.zeros(4) + 0.01, cache)
        useful = [0, 5]
        oracle = sum(w[i] for i in range(n) if i not in useful)
        assert dilution(w, mask_of(n, useful)) == pytest.approx(oracle, abs=1e-12)

    def test_matches_sorted_index_oracle_bit_for_bit(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 65))
            w = rng.random(n)
            w /= w.sum()
            useful = rng.random(n) < rng.random()
            if trial % 3 == 0:
                useful[:] = trial % 2 == 0  # all-True and all-False masks
            idx = set(np.flatnonzero(useful).tolist())
            # the dilution of an index list, clamped to [0, 1] as `dilution` does
            oracle = min(1.0, max(0.0, 1.0 - float(w[sorted(idx)].sum())))
            assert dilution(w, useful) == oracle

    def test_non_boolean_or_misshaped_mask_raises(self):
        w = np.full(3, 1 / 3)
        for bad in (np.array([0, 2]), np.array([1, 0, 1]), np.array([1.0, 0.0, 0.0]),
                    np.ones(2, dtype=bool), np.ones((3, 1), dtype=bool)):
            with pytest.raises(ValueError, match="useful must be a boolean mask"):
                dilution(w, bad)

    def test_not_a_distribution_raises(self):
        with pytest.raises(ValueError):
            dilution(np.array([0.5, 0.2]), mask_of(2, [0]))

    def test_removing_distractor_never_increases_dilution(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 16))
            cache = make_cache(rng, n)
            q = rng.normal(size=4)
            useful = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            distractors = sorted(set(range(n)) - useful)
            if not distractors:
                continue
            retained = sorted(useful | set(distractors))
            _, w_before = attend_evicted(q, cache, retained)
            drop = distractors[int(rng.integers(0, len(distractors)))]
            _, w_after = attend_evicted(q, cache, [i for i in retained if i != drop])
            u = mask_of(n, useful)
            assert dilution(w_after, u) <= dilution(w_before, u) + 1e-12


class TestHeadCacheInvariants:
    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            HeadCache(keys=rng.normal(size=(3, 4)), values=rng.normal(size=(2, 4)),
                      birth_steps=[0, 1, 2], betas=[1, 1, 1])

    def test_birth_steps_must_increase(self, rng):
        with pytest.raises(ValueError):
            make_cache(rng, 3).__class__(
                keys=rng.normal(size=(2, 4)), values=rng.normal(size=(2, 4)),
                birth_steps=[1, 1], betas=[1, 1])

    def test_beta_range(self, rng):
        with pytest.raises(ValueError):
            make_cache(rng, 2, betas=[0.5, 1.2])
