import numpy as np
import pytest

from retainkv.backbone import new_trace, student_forward, teacher_forward
from retainkv.gates import (ModelShape, cap_loss_global_grad, init_gate_params,
                            retention_log_weights)
from retainkv.training import DivergenceError, loss_and_grads, train_gates

from conftest import random_backbone

SHAPE = ModelShape(layers=2, heads=2, head_dim=4, gate_hidden=4, seq_len=12, vocab=12)


@pytest.fixture
def setup(rng):
    bb = random_backbone(SHAPE, rng)
    sequences = [rng.integers(0, SHAPE.vocab, size=12) for _ in range(8)]
    gates = init_gate_params(SHAPE, SHAPE.d_model, rng)
    return bb, gates, sequences


class TestTrainGates:
    def test_unconstrained_training_drives_kl_to_zero(self, setup):
        """lam=0: the student needs only to track the teacher, which the
        near-one initialization already achieves; quality sits at its floor."""
        bb, gates, sequences = setup

        def pool_quality(params):
            return np.mean([loss_and_grads(bb, params, seq, 0.0, 1.0)[0].quality
                            for seq in sequences])

        res = train_gates(bb, gates, sequences, lam=0.0, m_global=1.0,
                          lr=0.002, steps=60, batch_size=2, seed=0)
        assert res.final.kl < 1e-3
        assert pool_quality(res.params) <= pool_quality(gates) + 0.02

    def test_tight_budget_is_met_after_training(self, setup):
        bb, gates, sequences = setup
        m_global = 0.3 * SHAPE.seq_len * SHAPE.head_count
        res = train_gates(bb, gates, sequences, lam=1.0, m_global=m_global,
                          lr=0.01, steps=150, batch_size=2, seed=0)
        # a zero hinge at 1.1 * m_global means no step's mass exceeds it
        for seq in sequences:
            _, trace = student_forward(bb, res.params, seq)
            over, _ = cap_loss_global_grad(
                retention_log_weights(trace.betas.reshape(SHAPE.head_count, -1)), 1.1 * m_global)
            assert over == 0.0

    def test_identical_seeds_give_bit_identical_params(self, setup, tmp_path):
        from retainkv.gates import save_gates

        bb, gates, sequences = setup
        out = []
        for run in range(2):
            res = train_gates(bb, gates, sequences, lam=1.0, m_global=10.0,
                              lr=0.01, steps=25, batch_size=2, seed=123)
            path = tmp_path / f"run{run}.ckpt"
            save_gates(path, res.params)
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_input_gates_left_unchanged(self, setup):
        bb, gates, sequences = setup
        before = gates.flat.tobytes()
        res = train_gates(bb, gates, sequences, lam=1.0, m_global=10.0,
                          lr=0.01, steps=3, batch_size=2, seed=0)
        assert gates.flat.tobytes() == before
        assert res.params.flat.tobytes() != before

    def test_divergence_aborts_with_diagnostic(self, setup):
        bb, gates, sequences = setup
        # force the capacity term past the abort threshold: at m_global 0 the
        # hinge is at least the T * G age-0 terms
        with pytest.raises(DivergenceError, match="learning rate"):
            train_gates(bb, gates, sequences, lam=1e7, m_global=0.0,
                        lr=0.01, steps=5, batch_size=2, seed=0)

    def test_empty_dataset_rejected(self, setup):
        bb, gates, _ = setup
        with pytest.raises(ValueError):
            train_gates(bb, gates, [], lam=1.0, m_global=1.0, steps=1)

    @pytest.mark.parametrize("bad", [{"steps": 0}, {"batch_size": 0}, {"lr": 0.0},
                                     {"lr": -1.0}, {"lr": np.nan}, {"lr": np.inf},
                                     {"m_global": -5.0}, {"m_global": np.nan},
                                     {"m_global": np.inf}],
                             ids=lambda b: "{}={}".format(*next(iter(b.items()))))
    def test_bad_arguments_rejected(self, setup, bad):
        bb, gates, sequences = setup
        kwargs = dict(lam=1.0, m_global=1.0, lr=0.01, steps=2, batch_size=2, seed=0)
        kwargs.update(bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            train_gates(bb, gates, sequences, **kwargs)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_bad_lambda_rejected(self, setup, lam):
        bb, gates, sequences = setup
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            loss_and_grads(bb, gates, sequences[0], lam, 1.0)

    def test_loss_rows_schema(self, setup):
        bb, gates, sequences = setup
        res = train_gates(bb, gates, sequences, lam=1.0, m_global=10.0,
                          lr=0.01, steps=5, batch_size=2, seed=0)
        cols = res.loss_columns()   # one row per step, as loss.csv's columns
        assert set(cols) == {"step", "quality", "cap", "total"}
        assert all(len(col) == 5 for col in cols.values())
        assert cols["step"][3] == 3

    def test_cap_shrinks_to_under_ten_percent_on_the_task(self, rng):
        from retainkv.tasks import TaskSpec, build_task_model, default_shape, generate_dataset

        spec = TaskSpec(context_len=64, n_queries=3)
        bb = build_task_model(spec, rng)
        data = [s.tokens for s in generate_dataset(spec, 16, rng)]
        gates = init_gate_params(default_shape(spec), bb.shape.d_model, rng)
        m_global = 0.15 * spec.seq_len * bb.shape.head_count
        res = train_gates(bb, gates, data, lam=1.0, m_global=m_global,
                          lr=0.005, steps=150, batch_size=4, seed=1)
        assert res.final.cap < 0.1 * res.history[0].cap


class TestLossAndGrads:
    def test_breakdown_consistency(self, setup, rng):
        bb, gates, sequences = setup
        br, _ = loss_and_grads(bb, gates, sequences[0], lam=0.7, m_global=3.0)
        assert br.total == pytest.approx(br.quality + 0.7 * br.cap, rel=1e-12)
        assert br.quality == pytest.approx(br.kl + br.nll, rel=1e-12)
        assert br.cap >= 0.0

    def test_zero_cap_total_is_quality(self, setup):
        bb, gates, sequences = setup
        # no step's mass exceeds head_count * T, its value at betas all 1
        m_global = float(SHAPE.head_count * len(sequences[0]))
        br, _ = loss_and_grads(bb, gates, sequences[0], lam=1.0, m_global=m_global)
        assert br.cap == 0.0
        assert br.total == br.quality

    @pytest.mark.parametrize("m_global", [np.nan, np.inf, -1.0])
    def test_bad_m_global_rejected(self, setup, m_global):
        bb, gates, sequences = setup
        with pytest.raises(ValueError, match="m_global must be finite and >= 0"):
            loss_and_grads(bb, gates, sequences[0], 1.0, m_global)

    def test_negative_lambda_rejected(self, setup):
        bb, gates, sequences = setup
        with pytest.raises(ValueError, match="lambda"):
            loss_and_grads(bb, gates, sequences[0], lam=-0.1, m_global=1.0)

    def test_too_short_sequence_rejected(self, setup):
        bb, gates, _ = setup
        with pytest.raises(ValueError):
            loss_and_grads(bb, gates, np.array([1]), 1.0, 1.0)

    def test_supplied_teacher_logits_change_nothing(self, setup):
        bb, gates, sequences = setup
        seq = sequences[0]
        want_br, want_grads = loss_and_grads(bb, gates, seq, 0.7, 3.0)
        got_br, got_grads = loss_and_grads(bb, gates, seq, 0.7, 3.0, teacher_forward(bb, seq))
        assert [float.hex(v) for v in vars(got_br).values()] == \
            [float.hex(v) for v in vars(want_br).values()]
        for name, want in want_grads.tensors().items():
            assert got_grads.tensors()[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("shape", [(11, 12), (12, 13), (12,)])
    def test_wrong_teacher_logits_shape_rejected(self, setup, shape):
        bb, gates, sequences = setup
        with pytest.raises(ValueError, match="teacher logits"):
            loss_and_grads(bb, gates, sequences[0], 1.0, 1.0, np.zeros(shape))


class TestTraceReuse:
    """A trace refilled through `out=` is invisible in every output bit."""

    @staticmethod
    def world(rng, tied, gate_input):
        bb = random_backbone(SHAPE, rng)
        d_in = SHAPE.d_model if gate_input == "embedding" else 2 * SHAPE.head_dim
        gates = init_gate_params(SHAPE, d_in, rng, tied=tied, gate_input=gate_input,
                                 init_scale=2.0)
        gates.bg -= 18.0  # betas spread over (0, 1)
        # head (0, 1) scores far below the sigmoid's range: beta == 0 exactly,
        # so its log weights are -inf below the diagonal
        wg = gates.wg if tied else gates.wg[0, 1]
        gates.b2[0, 1] = -1e3 * np.sign(wg)
        sequences = [rng.integers(0, SHAPE.vocab, size=SHAPE.seq_len) for _ in range(5)]
        return bb, gates, sequences

    @pytest.mark.parametrize("tied,gate_input", [(True, "embedding"), (False, "kv")])
    def test_refilled_trace_gives_fresh_bits(self, rng, tied, gate_input):
        bb, gates, sequences = self.world(rng, tied, gate_input)
        trace = new_trace(SHAPE, SHAPE.seq_len)
        weights, log_weights = trace.weights, trace.log_weights
        # each sequence twice, in shuffled order, so every refill overwrites another's
        for i in rng.permutation(np.repeat(np.arange(len(sequences)), 2)):
            seq = sequences[i]
            want_logits, want = student_forward(bb, gates, seq)
            assert np.all(want.betas[0, 1] == 0.0)
            logits, got = student_forward(bb, gates, seq, out=trace)
            assert got is trace
            assert logits.tobytes() == want_logits.tobytes()
            for name in ("tokens", "betas", "log_weights", "weights"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert np.shares_memory(got.weights, weights)
            assert np.shares_memory(got.log_weights, log_weights)
            for got_layer, want_layer in zip(got.layers, want.layers):
                assert np.shares_memory(got_layer.w, weights)
                assert got_layer.w.tobytes() == want_layer.w.tobytes()

            want_br, want_grads = loss_and_grads(bb, gates, seq, 0.7, 3.0)
            got_br, got_grads = loss_and_grads(bb, gates, seq, 0.7, 3.0, out=trace)
            assert [float.hex(v) for v in vars(got_br).values()] == \
                [float.hex(v) for v in vars(want_br).values()]
            assert got_grads.flat.tobytes() == want_grads.flat.tobytes()
            # the forward refilled the trace passed in
            assert trace.weights is weights and trace.log_weights is log_weights
            assert trace.tokens.tobytes() == seq.tobytes()

    @pytest.mark.parametrize("T,gated", [(9, True), (SHAPE.seq_len, False)])
    def test_unfit_trace_left_alone(self, setup, T, gated):
        """A trace of another length or gate use gets fresh arrays, and the
        one passed in keeps what it held."""
        bb, gates, sequences = setup
        _, trace = student_forward(bb, gates, sequences[0])
        before = trace.weights.copy(), trace.log_weights.copy()
        _, got = student_forward(bb, gates if gated else None, sequences[1][:T], out=trace)
        assert got is not trace
        assert got.weights.shape == (SHAPE.layers, SHAPE.heads, T, T)
        assert (got.log_weights is not None) == gated
        assert not np.shares_memory(got.weights, trace.weights)
        assert trace.weights.tobytes() == before[0].tobytes()
        assert trace.log_weights.tobytes() == before[1].tobytes()


def test_fractional_tokens_rejected(setup):
    """Ids are checked before the int64 cast, which would truncate 3.7 to 3."""
    bb, gates, sequences = setup
    with pytest.raises(ValueError, match="integer ids"):
        loss_and_grads(bb, gates, sequences[0] + 0.7, 1.0, 4.0)
