import hashlib
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from retainkv import gates
from retainkv.attention import geometric_log_weights
from retainkv.backbone import student_forward, teacher_forward
from retainkv.gates import (
    GATE_INPUTS,
    GateParams,
    ModelShape,
    cap_loss_global_grad,
    gate_features,
    gate_forward_batch,
    gate_layer,
    gate_layer_grad,
    gate_width,
    init_gate_params,
    load_gates,
    quality_loss,
    retention_log_weights,
    retention_log_weights_grad,
    save_gates,
)
from retainkv.numerics import sigmoid

from conftest import finite_diff_grad, random_backbone

SHAPE = ModelShape(layers=2, heads=2, head_dim=4, gate_hidden=6, seq_len=16, vocab=12)


def quality(teacher_logits, student_logits, targets):
    kl, nll, _ = quality_loss(teacher_logits, student_logits, targets)
    return kl + nll


def cap(betas, m_global):
    return cap_loss_global_grad(retention_log_weights(betas), m_global)[0]


@pytest.fixture
def params(rng):
    return init_gate_params(SHAPE, d_in=8, rng=rng)


class TestGateForward:
    def test_zero_readout_gives_sigmoid_of_bias(self, params):
        params.wg[:] = 0.0
        for x in (np.zeros(8), np.ones(8), np.linspace(-3, 3, 8)):
            beta = gate_forward_batch(x[None, :], 0, params)[0, 0]
            assert beta == pytest.approx(0.999999984770020487, abs=1e-15)

    def test_large_negative_bias_clamps_to_zero(self, params):
        params.wg[:] = 0.0
        params.bg -= 800.0
        assert gate_forward_batch(np.ones(8)[None, :], 1, params)[1, 0] == 0.0

    def test_matches_independent_reimplementation(self, rng, params):
        """Head h of a layer-wide call runs head h's own weights."""
        def oracle(x, l, h):
            hidden = [math.tanh(sum(params.w1[l, h][i, j] * x[j] for j in range(8))
                                + params.b1[l, h][i]) for i in range(6)]
            proj = [sum(params.w2[l, h][i, j] * hidden[j] for j in range(6))
                    + params.b2[l, h][i] for i in range(6)]
            u = sum(params.wg[i] * proj[i] for i in range(6)) + float(params.bg)
            return 1.0 / (1.0 + math.exp(-u))

        for _ in range(20):
            x = rng.normal(size=8)
            l, h = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            got = gate_forward_batch(x[None, :], l, params)[h, 0]
            assert got == pytest.approx(oracle(x, l, h), rel=1e-12)

    def test_batch_matches_scalar(self, rng, params):
        xs = rng.normal(size=(5, 8))
        batch = gate_forward_batch(xs, 1, params)[0]
        for i in range(5):
            one = gate_forward_batch(xs[i][None, :], 1, params)[0, 0]
            assert batch[i] == pytest.approx(one, rel=1e-14)

    def test_heads_differ_only_through_projection(self, rng, params):
        x = rng.normal(size=8)
        params.w1[0, 1] = params.w1[0, 0]
        params.b1[0, 1] = params.b1[0, 0]
        params.w2[0, 1] = params.w2[0, 0]
        params.b2[0, 1] = params.b2[0, 0]
        beta = gate_forward_batch(x[None, :], 0, params)[:, 0]
        assert beta[0] == beta[1]

    def test_init_invariant_all_betas_above_point999(self, rng, params):
        xs = rng.normal(size=(64, 8))
        for l in range(2):
            for h in range(2):
                assert np.all(gate_forward_batch(xs, l, params)[h] > 0.999)


class TestQualityLoss:
    def test_equal_logits_one_hot_teacher(self):
        logits = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        loss = quality(logits, logits, [0, 1])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_kl_term_vanishes_when_equal(self, rng):
        logits = rng.normal(size=(4, 6))
        targets = rng.integers(0, 6, size=4)
        loss = quality(logits, logits, targets)
        # loss reduces to the pure NLL of the shared distribution
        log_q = logits - logits.max(1, keepdims=True)
        log_q = log_q - np.log(np.exp(log_q).sum(1, keepdims=True))
        nll = -log_q[np.arange(4), targets].mean()
        assert loss == pytest.approx(nll, rel=1e-12)

    def test_matches_direct_oracle(self, rng):
        for _ in range(20):
            p_logits = rng.normal(size=(2, 3))
            q_logits = rng.normal(size=(2, 3))
            targets = rng.integers(0, 3, size=2)

            def dist(z):
                e = [math.exp(v) for v in z]
                s = sum(e)
                return [v / s for v in e]

            want = 0.0
            for t in range(2):
                p = dist(p_logits[t])
                q = dist(q_logits[t])
                want += sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
                want += -math.log(q[targets[t]])
            want /= 2
            got = quality(p_logits, q_logits, targets)
            assert got == pytest.approx(want, rel=1e-10)

    def test_nonfinite_rejected(self):
        bad = np.array([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            quality_loss(bad, bad, [0])

    def test_mismatched_shapes_rejected(self, rng):
        logits = rng.normal(size=(3, 4))
        with pytest.raises(ValueError, match="share a shape"):
            quality_loss(logits, logits[:2], [0, 1])
        with pytest.raises(ValueError, match="one vocab index"):
            quality_loss(logits, logits, [0, 1])

    @pytest.mark.parametrize("targets", [[-1, 0], [0, 4]])
    def test_target_outside_the_vocab_rejected(self, rng, targets):
        """-1 would read the last column and give a finite NLL."""
        logits = rng.normal(size=(2, 4))
        with pytest.raises(ValueError, match=r"targets must lie in \[0, 4\)"):
            quality_loss(logits, logits, targets)

    @pytest.mark.parametrize("targets", [[0.7, 1.0], [0.0, 1.0], [True, False]])
    def test_non_integer_target_rejected(self, rng, targets):
        """[0.7, 1.0] would run as [0, 1], as token ids may not."""
        logits = rng.normal(size=(2, 4))
        with pytest.raises(ValueError, match="targets must be integer vocab indices"):
            quality_loss(logits, logits, targets)

    def test_integer_and_empty_targets_accepted(self, rng):
        logits = rng.normal(size=(2, 4))
        want = quality_loss(logits, logits, [3, 1])
        got = quality_loss(logits, logits, np.array([3, 1], dtype=np.int32))
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
        empty = np.zeros((0, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the mean of no positions
            assert quality_loss(empty, empty, [])[2].shape == (0, 4)

    def test_grad_matches_finite_differences(self, rng):
        p_logits = rng.normal(size=(3, 5))
        q_logits = rng.normal(size=(3, 5))
        targets = rng.integers(0, 5, size=3)
        _, _, dlogits = quality_loss(p_logits, q_logits, targets)

        def f(flat):
            return quality(p_logits, flat.reshape(3, 5), targets)

        fd = finite_diff_grad(f, q_logits.ravel()).reshape(3, 5)
        np.testing.assert_allclose(dlogits, fd, rtol=1e-6, atol=1e-9)


class TestCapLoss:
    def test_all_zero_beta_costs_head_count(self):
        # each step contributes exactly one unit per head via the age-0 term
        betas = np.zeros((4, 5))
        assert cap(betas, m_global=4.0) == 0.0
        assert cap(betas, m_global=3.0) == pytest.approx(5.0)

    def test_all_one_beta_worked_example(self):
        betas = np.ones((1, 3))
        # per-step masses 1, 2, 3 against budget 2
        assert cap(betas, m_global=2.0) == pytest.approx(1.0)

    def test_infinite_budget_is_free(self, rng):
        betas = rng.random((4, 8))
        assert cap(betas, m_global=np.inf) == 0.0

    def test_under_budget_is_zero(self, rng):
        betas = 0.1 * rng.random((2, 6))
        assert cap(betas, 12.0) == 0.0

    def test_grad_matches_finite_differences(self, rng):
        betas = rng.uniform(0.2, 0.95, size=(2, 5))
        m = 3.0
        _, grad = cap_loss_global_grad(retention_log_weights(betas), m)

        def f(flat):
            return cap(flat.reshape(2, 5), m)

        fd = finite_diff_grad(f, betas.ravel()).reshape(2, 5)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def cap_oracle(betas, m_global):
    """Double loop over steps t and tokens i <= t: beta**0 == 1, and
    d beta**(t-i) / d beta == (t - i) * beta**(t - i - 1)."""
    G, T = betas.shape
    loss = 0.0
    dbeta = np.zeros((G, T))
    for t in range(T):
        mass = sum(1.0 if i == t else float(betas[g, i]) ** (t - i)
                   for g in range(G) for i in range(t + 1))
        if mass > m_global:
            loss += mass - m_global
            for g in range(G):
                for i in range(t):
                    dbeta[g, i] += (t - i) * float(betas[g, i]) ** (t - i - 1)
    return loss, dbeta


class TestCapLossOracle:
    """Loss and gradient against `cap_oracle`, including the betas exactly 0
    and 1 that central differences cannot reach."""

    @pytest.mark.parametrize("G,T", [(1, 1), (3, 1), (1, 6), (4, 9), (2, 17)])
    @pytest.mark.parametrize("kind", ["random", "zeros", "ones", "mixed"])
    def test_matches_oracle(self, rng, G, T, kind):
        betas = {"random": rng.random((G, T)),
                 "zeros": np.zeros((G, T)),
                 "ones": np.ones((G, T)),
                 "mixed": rng.choice([0.0, 0.5, 1.0], size=(G, T))}[kind]
        for m_global in (0.0, 0.5 * G, 0.3 * G * T, float(G * T)):
            loss, dbeta = cap_loss_global_grad(retention_log_weights(betas), m_global)
            want_loss, want_dbeta = cap_oracle(betas, m_global)
            assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(dbeta, want_dbeta, rtol=1e-12, atol=1e-12)
            assert dbeta.shape == (G, T)

    def test_zero_beta_gradient_counts_age_one_only(self):
        # masses are 1 and 1 + 0**1; the age-1 term has slope 1 * 0**0 == 1
        loss, dbeta = cap_loss_global_grad(retention_log_weights(np.zeros((1, 2))), 0.5)
        assert loss == 0.5 + 0.5
        assert dbeta.tolist() == [[1.0, 0.0]]

    def test_one_beta_gradient_is_sum_of_ages(self):
        loss, dbeta = cap_loss_global_grad(retention_log_weights(np.ones((2, 3))), 0.0)
        assert loss == 2.0 + 4.0 + 6.0
        assert dbeta.tolist() == [[3.0, 1.0, 0.0]] * 2

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan])
    def test_out_of_range_rejected(self, bad):
        # token 1 of 3: the last token's beta enters no log weight, as no step
        # follows it
        betas = np.full((2, 3), 0.5)
        betas[1, 1] = bad
        with pytest.raises(ValueError, match=r"\[-inf, 0\]"):
            cap_loss_global_grad(retention_log_weights(betas), 1.0)

    @pytest.mark.parametrize("bad", [1e-300, np.inf, np.nan])
    def test_log_weight_above_zero_or_nan_rejected(self, bad):
        lw = retention_log_weights(np.full((2, 4), 0.5))
        lw[0, 3, 1] = bad
        with pytest.raises(ValueError, match=r"\[-inf, 0\]"):
            cap_loss_global_grad(lw, 1.0)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (1, 2, 3, 3)])
    def test_log_weights_not_groups_by_square_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\[groups, T, T\]"):
            cap_loss_global_grad(np.zeros(shape), 1.0)

    def test_log_weights_become_the_decay_in_place(self, rng):
        betas = rng.random((3, 7))
        lw = retention_log_weights(betas)
        want = cap_oracle(betas, 4.0)
        loss, dbeta = cap_loss_global_grad(lw, 4.0)
        ages = gates._ages(7)
        decay = np.where(ages >= 0, betas[:, None, :] ** np.maximum(ages, 0), 0.0)
        np.testing.assert_allclose(lw, decay, rtol=1e-12, atol=0)
        assert loss == pytest.approx(want[0], rel=1e-12)
        np.testing.assert_allclose(dbeta, want[1], rtol=1e-12, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng, params):
        path = tmp_path / "gates.ckpt"
        save_gates(path, params)
        loaded = load_gates(path)
        for name, arr in params.tensors().items():
            assert np.array_equal(arr, loaded.tensors()[name]), name
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert loaded.tied == params.tied
        assert loaded.gate_input == params.gate_input

    def test_round_trip_untied(self, tmp_path, rng):
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=False, gate_input="kv")
        path = tmp_path / "untied.ckpt"
        save_gates(path, params)
        loaded = load_gates(path)
        assert not loaded.tied
        assert loaded.gate_input == "kv"
        assert np.array_equal(loaded.wg, params.wg)
        assert np.array_equal(loaded.bg, params.bg)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_unknown_gate_input_rejected(self, tmp_path, params):
        path = tmp_path / "gates.ckpt"
        save_gates(path, params)
        blob = path.read_bytes()
        # same length, so the header length field still holds
        path.write_bytes(blob.replace(b'"gate_input": "embedding"', b'"gate_input": "bogusmode"'))
        with pytest.raises(ValueError, match="gate_input 'bogusmode' is not one of"):
            load_gates(path)

    @staticmethod
    def with_header(path, **changes):
        """Rewrite the checkpoint at `path` with header keys replaced."""
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<I", blob, 8)
        header = dict(json.loads(blob[12:12 + n]), **changes)
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + n:])

    @pytest.mark.parametrize("seed", ["abc", -1, True, 1.5, [0]])
    def test_bad_seed_rejected(self, tmp_path, rng, seed):
        path = tmp_path / "gates.ckpt"
        save_gates(path, init_gate_params(SHAPE, d_in=8, rng=rng, seed=3))
        self.with_header(path, seed=seed)
        with pytest.raises(ValueError, match="seed must be null or a non-negative integer"):
            load_gates(path)

    @pytest.mark.parametrize("seed", [None, 0, 2 ** 31 - 1])
    def test_good_seed_round_trips(self, tmp_path, rng, seed):
        path = tmp_path / "gates.ckpt"
        save_gates(path, init_gate_params(SHAPE, d_in=8, rng=rng, seed=3))
        self.with_header(path, seed=seed)
        assert load_gates(path).seed == seed

    def test_save_is_byte_deterministic(self, tmp_path, rng, params):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_gates(p1, params)
        save_gates(p2, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAGATE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_gates(path)

    def test_trailing_bytes_rejected(self, tmp_path, params):
        path = tmp_path / "gates.ckpt"
        save_gates(path, params)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_gates(path)

    @pytest.mark.parametrize("keep", [4, 11, 30, -1, -8])
    def test_truncated_rejected(self, tmp_path, params, keep):
        path = tmp_path / "gates.ckpt"
        save_gates(path, params)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError):
            load_gates(path)

    def test_pinned_checkpoint_bytes_reproduced(self, tmp_path):
        pinned = Path(__file__).parents[1] / "bench" / "gates_seed0.ckpt"
        path = tmp_path / "gates.ckpt"
        save_gates(path, load_gates(pinned))
        assert path.read_bytes() == pinned.read_bytes()

    @pytest.mark.parametrize("tied", [True, False])
    def test_payload_is_per_head_blocks_then_readout(self, tmp_path, rng, tied):
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=tied)
        path = tmp_path / "gates.ckpt"
        save_gates(path, params)
        blocks = [a for l in range(SHAPE.layers) for h in range(SHAPE.heads)
                  for a in (params.w1[l, h], params.b1[l, h], params.w2[l, h], params.b2[l, h])]
        if tied:
            blocks += [params.wg, params.bg]
        else:
            blocks += [a for l in range(SHAPE.layers) for h in range(SHAPE.heads)
                       for a in (params.wg[l, h], params.bg[l, h])]
        payload = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in blocks)
        assert path.read_bytes().endswith(payload)

    def test_reloaded_tensors_view_a_fresh_vector(self, tmp_path, rng):
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=False)
        path = tmp_path / "gates.ckpt"
        save_gates(path, params)
        loaded = load_gates(path)
        for name, arr in loaded.tensors().items():
            assert np.shares_memory(arr, loaded.flat) and arr.flags.writeable, name
            assert arr.shape == params.tensors()[name].shape, name
        flat = loaded.flat
        assert flat.flags.c_contiguous and flat.flags.writeable and flat.flags.owndata

    # sha256 of each tensor's C-order bytes, from the pinned checkpoint
    PINNED_DIGESTS = {
        "w1": "e9fbb1527989f34f151459617cf4ccf128d660889bf3945d6cbbad2fa40be5ba",
        "b1": "531026c5b2e54e098630380c99904866094ce79e0dc1d0a6ac2fbb9a33a4dea3",
        "w2": "69593979c21b8ad064ff69c65cedac844c36119f952c9795ab357be446e8162e",
        "b2": "969d6bd6431189b7f0956bc4c1ad051cbe53834d894502cd93769a3914bf6f1d",
        "wg": "5a2b77553db78fa0438a592bdc73eef3da835dea271e792e1b2b36b83b05b4e2",
        "bg": "d90cab96ae53f9ce4a71193191f8b77894b9e586bf363f8976839f4e45414b4c",
    }

    def test_pinned_checkpoint_tensor_values(self):
        loaded = load_gates(Path(__file__).parents[1] / "bench" / "gates_seed0.ckpt")
        digests = {name: hashlib.sha256(np.ascontiguousarray(t).tobytes()).hexdigest()
                   for name, t in loaded.tensors().items()}
        assert digests == self.PINNED_DIGESTS


class TestFlatVector:
    """The six tensors are views of `flat`, which is the checkpoint's payload."""

    @pytest.mark.parametrize("tied", [True, False])
    def test_tensors_are_views_in_payload_order(self, tmp_path, rng, tied):
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=tied)
        path = tmp_path / "gates.ckpt"
        save_gates(path, params)
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<I", blob, 8)
        assert params.flat.tobytes() == blob[12 + n:]
        # (layer 1, head 0) owns block 2; w1 opens each block of dg * (d_in + dg + 2)
        dg, d_in = SHAPE.gate_hidden, 8
        block = dg * (d_in + dg + 2)
        params.w1[1, 0, 2, 3] = 7.0
        assert params.flat[2 * block + 2 * d_in + 3] == 7.0
        # the readout rows (wg, bg) follow the blocks: one row, or (1, 0)'s is row 2
        at, row = ((), 0) if tied else ((1, 0), 2)
        params.bg[at] = -5.0
        assert params.flat[SHAPE.head_count * block + row * (dg + 1) + dg] == -5.0
        assert np.count_nonzero(params.flat == -5.0) == 1
        params.flat[:] = 0.0
        assert all(not np.any(t) for t in params.tensors().values())

    def test_with_flat_views_its_vector(self, params):
        vec = np.arange(params.flat.size, dtype=np.float64)
        other = params.with_flat(vec)
        assert other.flat is vec and other.w1.base is vec
        assert (other.tied, other.d_in, other.d_gate) == (params.tied, 8, 6)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_rejected(self, params, delta):
        with pytest.raises(ValueError, match="flat has shape"):
            params.with_flat(np.zeros(params.flat.size + delta))

    def test_unknown_gate_input_rejected(self, rng, params):
        with pytest.raises(ValueError, match="gate_input 'bogus' is not one of"):
            GateParams(params.flat, 2, 2, 6, 8, gate_input="bogus")
        with pytest.raises(ValueError, match="gate_input 'bogus' is not one of"):
            init_gate_params(SHAPE, d_in=8, rng=rng, gate_input="bogus")


def test_gate_input_width_and_rows(rng):
    """`embedding` feeds the layer input x [n, d_model] to every head; `kv`
    feeds head h its k || v [n, 2 * head_dim]."""
    shape = ModelShape(layers=1, heads=3, head_dim=4, gate_hidden=6, seq_len=16, vocab=12)
    x = rng.normal(size=(5, shape.d_model))
    k, v = rng.normal(size=(2, shape.heads, 5, shape.head_dim))
    assert GATE_INPUTS == ("embedding", "kv")
    assert gate_features(x, k, v, "embedding") is x
    assert gate_width(shape, "embedding") == x.shape[-1] == 12
    rows = gate_features(x, k, v, "kv")
    assert rows.shape == (3, 5, gate_width(shape, "kv")) == (3, 5, 8)
    assert np.array_equal(rows[1], np.hstack([k[1], v[1]]))


class TestGateForwardAllHeads:
    """One call runs every head of a layer; `test_matches_independent_reimplementation`
    checks each head against its own weights."""

    @pytest.mark.parametrize("tied", [True, False])
    def test_shared_input_matches_per_head(self, rng, tied):
        """Rows shared by the heads give the bits of one block per head holding them."""
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=tied, init_scale=2.0)
        params.bg -= 18.0
        xs = rng.normal(size=(5, 8))
        blocks = np.stack([xs] * SHAPE.heads)
        for layer in range(SHAPE.layers):
            got = gate_forward_batch(xs, layer, params)
            assert got.shape == (SHAPE.heads, 5)
            assert np.array_equal(got, gate_forward_batch(blocks, layer, params))

    def test_per_head_input_matches_per_head(self, rng):
        """Head h reads block h only: its betas are the bits of a call that
        gives every head block h."""
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=False, gate_input="kv",
                                  init_scale=2.0)
        params.bg -= 18.0
        xs = rng.normal(size=(SHAPE.heads, 1, 8))
        got = gate_forward_batch(xs, 1, params)
        for head in range(SHAPE.heads):
            alone = gate_forward_batch(xs[head], 1, params)
            assert np.array_equal(got[head], alone[head])

    @pytest.mark.parametrize("tied", [True, False])
    def test_stacked_rows_match_one_row_calls(self, rng, tied):
        """Rows [n, 1 or heads, 1, d_in] give [n, heads, 1], each row the bits
        of a call with that row alone."""
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=tied, init_scale=2.0)
        params.bg -= 18.0
        for blocks in (1, SHAPE.heads):
            xs = rng.normal(size=(7, blocks, 1, 8))
            got = gate_forward_batch(xs, 1, params)
            assert got.shape == (7, SHAPE.heads, 1)
            for i in range(7):
                one = xs[i, 0] if blocks == 1 else xs[i]     # [1, d_in] or [heads, 1, d_in]
                assert np.array_equal(got[i], gate_forward_batch(one, 1, params))

    def test_bad_input_rejected(self, params):
        with pytest.raises(ValueError):
            gate_forward_batch(np.ones(8), 0, params)
        with pytest.raises(ValueError):
            gate_forward_batch(np.full((1, 8), np.nan), 0, params)
        # stacked rows: one block or one per head, one row per block, four axes
        for shape in ((2, 3, 1, 8), (2, 1, 2, 8), (2, 1, 1, 1, 8), (2, 1, 1, 7)):
            with pytest.raises(ValueError):
                gate_forward_batch(np.ones(shape), 0, params)
        with pytest.raises(ValueError):
            gate_forward_batch(np.full((2, 1, 1, 8), np.inf), 0, params)


class TestGateLayerGrad:
    """`gate_layer_grad` against central differences of `gate_layer`, on
    f = sum of c * beta, whose gradient at the pre-sigmoid scores is
    du = c * beta * (1 - beta)."""

    @staticmethod
    def case(rng, tied, shared):
        params = init_gate_params(SHAPE, d_in=8, rng=rng, tied=tied, init_scale=1.5)
        params.bg -= 18.0
        x = rng.normal(size=(5, 8) if shared else (SHAPE.heads, 5, 8))
        c = rng.normal(size=(SHAPE.heads, 5))
        return params, x, c

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_head"])
    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    def test_matches_finite_differences(self, rng, tied, shared):
        params, x, c = self.case(rng, tied, shared)
        layer = 1
        h1, p, beta = gate_layer(x, layer, params)
        grads = params.with_flat(np.zeros_like(params.flat))
        dx = gate_layer_grad(x, layer, params, h1, p, c * beta * (1.0 - beta), grads)

        def f_params(flat):
            return (c * gate_layer(x, layer, params.with_flat(flat))[2]).sum()

        def f_x(vec):
            return (c * gate_layer(vec.reshape(x.shape), layer, params)[2]).sum()

        numeric = finite_diff_grad(f_params, params.flat)
        np.testing.assert_allclose(grads.flat, numeric, rtol=1e-6, atol=1e-9)
        assert not grads.w1[0].any() and not grads.b2[0].any()   # only this layer's heads
        assert dx.shape == (SHAPE.heads, 5, 8)
        # a shared x feeds every head, so its gradient is the sum over heads
        np.testing.assert_allclose(dx.sum(axis=0) if shared else dx,
                                   finite_diff_grad(f_x, x.ravel()).reshape(x.shape),
                                   rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    def test_adds_into_grads(self, rng, tied):
        """A second call adds the same gradients again, as the layers of one
        backward pass do into the shared readout."""
        params, x, c = self.case(rng, tied, shared=True)
        h1, p, beta = gate_layer(x, 0, params)
        du = c * beta * (1.0 - beta)
        once = params.with_flat(np.zeros_like(params.flat))
        gate_layer_grad(x, 0, params, h1, p, du, once)
        twice = params.with_flat(np.zeros_like(params.flat))
        for _ in range(2):
            gate_layer_grad(x, 0, params, h1, p, du, twice)
        np.testing.assert_allclose(twice.flat, 2.0 * once.flat, rtol=1e-15)


class TestRetentionLogWeights:
    """The geometric retention weight beta_i ** (t - i), in log space, and its adjoint."""

    BETAS = (0.0, 0.3, 1.0)
    LENGTHS = (1, 2, 37, 105)

    @staticmethod
    def betas(T, beta, rng):
        """Every entry `beta`, with a second row that mixes the three values."""
        return np.stack([np.full(T, beta),
                         rng.choice(TestRetentionLogWeights.BETAS, size=T)])

    @pytest.mark.parametrize("T", LENGTHS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_oracle_on_and_below_the_diagonal(self, rng, T, beta):
        b = self.betas(T, beta, rng)
        lw = retention_log_weights(b)
        assert lw.shape == (2, T, T)
        past = np.tri(T, dtype=bool)
        ages = np.maximum(np.arange(T)[:, None] - np.arange(T)[None, :], 0)
        for row, got in zip(b, lw):
            want = geometric_log_weights(np.broadcast_to(row, (T, T)), ages)
            assert np.array_equal(got[past], want[past])
            assert not np.any(got[~past])
        assert np.array_equal(lw[0], retention_log_weights(b[0]))

    @pytest.mark.parametrize("T", LENGTHS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_out_overwrites_every_entry(self, rng, T, beta):
        b = self.betas(T, beta, rng)
        dirty = np.full((2, T, T), np.nan)
        got = retention_log_weights(b, out=dirty)
        assert got is dirty
        assert got.tobytes() == retention_log_weights(b).tobytes()

    @pytest.mark.parametrize("T", LENGTHS)
    @pytest.mark.parametrize("beta", BETAS)
    def test_grad_matches_finite_differences(self, rng, T, beta):
        """Central differences of sum(c * lw) against the pre-sigmoid scores;
        beta 0 and 1 are taken at scores of -40 and 40."""
        u = np.full(T, {0.0: -40.0, 0.3: math.log(0.3 / 0.7), 1.0: 40.0}[beta])
        c = rng.normal(size=(T, T))  # above the diagonal too, where lw is constant

        def f(score):
            return float((c * retention_log_weights(sigmoid(score))).sum())

        fd = finite_diff_grad(f, u)
        got = retention_log_weights_grad(c, sigmoid(u))
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6)

    def test_grad_at_exact_bounds(self, rng):
        """At beta 0 the gradient is its limit, sum_t c * age; at beta 1 it is 0."""
        T = 37
        c = rng.normal(size=(2, T, T))
        ages = np.maximum(np.arange(T)[:, None] - np.arange(T)[None, :], 0)
        got = retention_log_weights_grad(c, np.stack([np.zeros(T), np.ones(T)]))
        np.testing.assert_allclose(got[0], (c[0] * ages).sum(axis=0), rtol=1e-12)
        assert np.array_equal(got[1], np.zeros(T))

    def test_age_table_is_read_only(self):
        retention_log_weights(np.full(5, 0.5))
        with pytest.raises(ValueError, match="read-only"):
            gates._ages(5)[1, 0] = 0.0
        assert retention_log_weights(np.full(5, 0.5))[1, 0] == math.log(0.5)

    def test_clipped_age_table_is_cached_and_read_only(self):
        T = 6
        past = gates._past_ages(T)
        assert past is gates._past_ages(T)
        assert np.array_equal(past, np.maximum(gates._ages(T), 0.0))
        with pytest.raises(ValueError, match="read-only"):
            past[2, 0] = 0.0

    def test_teacher_builds_no_age_table(self, rng):
        shape = ModelShape(layers=2, heads=2, head_dim=4, gate_hidden=6, seq_len=40, vocab=12)
        bb = random_backbone(shape, rng)
        tokens = rng.integers(0, 12, size=33)
        gates._ages.cache_clear()
        teacher_forward(bb, tokens)
        assert gates._ages.cache_info().currsize == 0
        student_forward(bb, init_gate_params(shape, d_in=8, rng=rng), tokens)
        assert gates._ages.cache_info().currsize == 1
