"""Analytic gate gradients against the central-difference oracle."""

import numpy as np
import pytest

from retainkv.backbone import student_forward, teacher_forward
from retainkv.gates import ModelShape, init_gate_params
from retainkv.training import loss_and_grads

from conftest import finite_diff_grad, random_backbone

SHAPE = ModelShape(layers=2, heads=2, head_dim=4, gate_hidden=4, seq_len=8, vocab=10)


def midrange_gates(rng, d_in, tied=True, gate_input="embedding"):
    """Gates biased into the responsive sigmoid region so gradients are healthy."""
    gates = init_gate_params(SHAPE, d_in, rng, tied=tied, gate_input=gate_input,
                             init_scale=0.8)
    gates.bg -= INIT_OFFSET
    return gates


INIT_OFFSET = 17.0  # pulls sigmoid(18 + noise) down toward beta ~ 0.7


def total_loss_of(bb, gates, tokens, lam, m_global):
    breakdown, _ = loss_and_grads(bb, gates, tokens, lam, m_global)
    return breakdown.total


def fd_check(bb, gates, tokens, lam, m_global, rel_tol=1e-4):
    _, grads = loss_and_grads(bb, gates, tokens, lam, m_global)
    analytic = grads.flat

    def f(vec):
        return total_loss_of(bb, gates.with_flat(vec), tokens, lam, m_global)

    numeric = finite_diff_grad(f, gates.flat)
    scale = np.maximum(np.abs(numeric), np.maximum(np.abs(analytic), 1e-6))
    rel = np.abs(analytic - numeric) / scale
    return float(rel.max()), analytic, numeric


class TestGradientsMatchFiniteDifferences:
    def test_random_instances(self, rng):
        worst = 0.0
        for trial in range(5):
            bb = random_backbone(SHAPE, rng)
            gates = midrange_gates(rng, SHAPE.d_model)
            tokens = rng.integers(0, SHAPE.vocab, size=6)
            rel, _, _ = fd_check(bb, gates, tokens, lam=0.7, m_global=6.0)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_kv_gate_input_variant(self, rng):
        bb = random_backbone(SHAPE, rng)
        gates = midrange_gates(rng, 2 * SHAPE.head_dim, gate_input="kv")
        tokens = rng.integers(0, SHAPE.vocab, size=6)
        rel, _, _ = fd_check(bb, gates, tokens, lam=0.5, m_global=5.0)
        assert rel < 1e-4

    def test_untied_variant(self, rng):
        bb = random_backbone(SHAPE, rng)
        gates = midrange_gates(rng, SHAPE.d_model, tied=False)
        tokens = rng.integers(0, SHAPE.vocab, size=6)
        rel, _, _ = fd_check(bb, gates, tokens, lam=0.5, m_global=5.0)
        assert rel < 1e-4

    def test_quality_only_and_cap_only(self, rng):
        bb = random_backbone(SHAPE, rng)
        gates = midrange_gates(rng, SHAPE.d_model)
        tokens = rng.integers(0, SHAPE.vocab, size=6)
        for lam, m in ((0.0, 1.0), (1.0, 0.5)):
            rel, _, _ = fd_check(bb, gates, tokens, lam=lam, m_global=m)
            assert rel < 1e-4


class TestTiedAccumulation:
    def test_tied_readout_grad_is_sum_of_untied(self, rng):
        """Shared wg/bg gradients equal the sum of per-head gradients."""
        bb = random_backbone(SHAPE, rng)
        tied = midrange_gates(rng, SHAPE.d_model, tied=True)
        untied = init_gate_params(SHAPE, SHAPE.d_model, np.random.default_rng(1),
                                  tied=False)
        untied.w1[:] = tied.w1
        untied.b1[:] = tied.b1
        untied.w2[:] = tied.w2
        untied.b2[:] = tied.b2
        untied.wg[:] = tied.wg  # broadcast the shared readout to every head
        untied.bg[:] = float(tied.bg)
        tokens = rng.integers(0, SHAPE.vocab, size=6)
        _, g_tied = loss_and_grads(bb, tied, tokens, 0.5, 4.0)
        _, g_untied = loss_and_grads(bb, untied, tokens, 0.5, 4.0)
        np.testing.assert_allclose(g_tied.wg, g_untied.wg.sum(axis=(0, 1)), atol=1e-10)
        np.testing.assert_allclose(float(g_tied.bg), g_untied.bg.sum(), atol=1e-10)
        np.testing.assert_allclose(g_tied.w1, g_untied.w1, atol=1e-12)


class TestPlateau:
    def test_zero_gradient_at_constructed_plateau(self, rng):
        """lam=0 and T=2: the only counted position attends a single age-0
        token, so the student equals the teacher there and every gate gradient
        vanishes identically."""
        bb = random_backbone(SHAPE, rng)
        gates = midrange_gates(rng, SHAPE.d_model)
        breakdown, grads = loss_and_grads(bb, gates, np.array([3, 5]), 0.0, 1e9)
        assert breakdown.kl == pytest.approx(0.0, abs=1e-14)
        for arr in grads.tensors().values():
            assert np.all(arr == 0.0)


class TestFreezing:
    def test_backbone_bitwise_unchanged(self, rng):
        bb = random_backbone(SHAPE, rng)
        frozen = {name: getattr(bb, name).copy()
                  for name in ("embed", "pos", "wq", "wk", "wv", "wo",
                               "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2", "unembed")}
        gates = midrange_gates(rng, SHAPE.d_model)
        tokens = rng.integers(0, SHAPE.vocab, size=6)
        for _ in range(3):
            loss_and_grads(bb, gates, tokens, 1.0, 4.0)
        for name, arr in frozen.items():
            assert np.array_equal(arr, getattr(bb, name)), name


class TestStudentTeacherConsistency:
    def test_beta_one_path_matches_teacher(self, rng):
        """With the init bias at 18 the student is numerically the teacher."""
        bb = random_backbone(SHAPE, rng)
        gates = init_gate_params(SHAPE, SHAPE.d_model, rng, init_scale=0.01)
        tokens = rng.integers(0, SHAPE.vocab, size=8)
        t_logits = teacher_forward(bb, tokens)
        s_logits, _ = student_forward(bb, gates, tokens)
        np.testing.assert_allclose(s_logits, t_logits, atol=1e-5)
