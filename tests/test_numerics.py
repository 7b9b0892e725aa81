import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from retainkv.attention import geometric_log_weights
from retainkv.numerics import (
    EmptySupportError,
    sigmoid,
    softmax,
    softmax_kernel,
    softmax_log_space,
)

from conftest import finite_diff_grad

NEG_INF = -np.inf


class TestSoftmaxLogSpace:
    def test_symmetry(self):
        w = softmax_log_space([0.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_hard_suppression_is_exact_zero(self):
        w = softmax_log_space([0.0, 0.0], [0.0, NEG_INF])
        assert w[0] == 1.0
        assert w[1] == 0.0

    def test_matches_high_precision_exp_normalize(self):
        # frozen from a 40-digit decimal exp-normalize of [1, 2, 3]
        expected = [0.090030573170380458, 0.244728471054797652, 0.665240955774821890]
        w = softmax_log_space([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-15)

    def test_empty_support_raises(self):
        with pytest.raises(EmptySupportError):
            softmax_log_space([1.0, 2.0], [NEG_INF, NEG_INF])

    def test_positive_log_weight_rejected(self):
        with pytest.raises(ValueError):
            softmax_log_space([0.0], [0.1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            softmax_log_space([0.0, 1.0], [0.0])

    def test_zero_weights_equal_plain_softmax(self, rng):
        for _ in range(50):
            z = rng.normal(0, 5, size=rng.integers(1, 30))
            np.testing.assert_allclose(
                softmax_log_space(z, np.zeros_like(z)), softmax(z), atol=1e-12)

    def test_minus_inf_equals_delete_then_renormalize(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            z = rng.normal(0, 3, size=n)
            keep = rng.random(n) < 0.6
            if not keep.any():
                keep[0] = True
            lw = np.where(keep, 0.0, NEG_INF)
            full = softmax_log_space(z, lw)
            sub = softmax(z[keep])
            np.testing.assert_allclose(full[keep], sub, atol=1e-12)
            assert np.all(full[~keep] == 0.0)

    def test_permutation_equivariance(self, rng):
        z = rng.normal(0, 2, size=12)
        lw = np.where(rng.random(12) < 0.3, NEG_INF, 0.0)
        lw[0] = 0.0
        perm = rng.permutation(12)
        np.testing.assert_allclose(
            softmax_log_space(z, lw)[perm], softmax_log_space(z[perm], lw[perm]), atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_is_probability_vector(self, logits):
        w = softmax_log_space(logits, np.zeros(len(logits)))
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 0.0)


@st.composite
def logit_rows(draw):
    """1-D or 2-D logits with some entries at -inf, at least one finite per row."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=12))
    z = draw(hnp.arrays(np.float64, shape, elements=st.floats(-800, 800)))
    masked = draw(hnp.arrays(np.bool_, shape))
    masked[..., draw(st.integers(0, shape[-1] - 1))] = False
    z[masked] = NEG_INF
    return z


class TestSoftmaxKernel:
    @given(logit_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_three_array_formula_bit_for_bit(self, z):
        e = np.exp(z - z.max(-1, keepdims=True))
        expected = e / e.sum(-1, keepdims=True)
        before = z.tobytes()
        got = softmax_kernel(z)
        assert z.tobytes() == before
        assert got.shape == z.shape
        assert got.tobytes() == expected.tobytes()

    def test_checked_softmax_leaves_caller_array_alone(self):
        # as_vector returns the caller's own float64 array, not a copy
        z = np.array([1.0, -2.0, 0.5])
        before = z.copy()
        softmax(z)
        assert np.array_equal(z, before)


class TestGeometricLogWeights:
    def test_age_zero_full_weight_even_at_beta_zero(self):
        lw = geometric_log_weights([0.0, 0.0], [0, 1])
        assert lw[0] == 0.0
        assert lw[1] == NEG_INF

    def test_matches_power(self):
        lw = geometric_log_weights([0.5, 0.9], [3, 7])
        np.testing.assert_allclose(np.exp(lw), [0.5 ** 3, 0.9 ** 7], rtol=1e-14)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            geometric_log_weights([1.5], [1])


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_sigmoid_slope_at_zero(self):
        g = finite_diff_grad(lambda v: float(sigmoid(v[0])), np.array([0.0]))
        np.testing.assert_allclose(g, [0.25], atol=1e-9)

    def test_non_finite_raises(self):
        def f(v):
            with np.errstate(divide="ignore", invalid="ignore"):
                return float(np.log(v[0]))

        with pytest.raises(ValueError):
            finite_diff_grad(f, np.array([0.0]))


def test_sigmoid_extremes():
    assert sigmoid(18.0) == pytest.approx(0.999999984770020487, abs=1e-15)
    assert sigmoid(-800.0) == 0.0
    assert sigmoid(800.0) == 1.0
