from dataclasses import replace

import numpy as np
import pytest

from retainkv import evaluate
from retainkv.backbone import teacher_forward
from retainkv.cli import DEFAULT_CONFIG
from retainkv.eviction import POLICIES, SCORED, trace_columns
from retainkv.evaluate import SelectionRecorder, decode_sequence, evaluate_policies, make_policy
from retainkv.gates import ModelShape, gate_forward_batch, init_gate_params
from retainkv.numerics import softmax_kernel
from retainkv.paged_cache import PagedKVStore
from retainkv.tasks import Sample, TaskSpec, build_task_model, default_shape, generate_dataset

from conftest import admit, random_backbone

SPEC = TaskSpec(context_len=40, n_keys=4, n_values=3, n_queries=2,
                n_distractor_vocab=8, vocab=40)


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(11)
    bb = build_task_model(SPEC, rng)
    samples = generate_dataset(SPEC, 6, rng)
    return bb, samples


class TestDecodeSequence:
    def test_full_budget_makes_all_policies_identical(self, world):
        """With budget >= the whole cache no eviction fires, so every policy
        runs the same arithmetic and the outputs must match exactly."""
        bb, samples = world
        ref = [decode_sequence(bb, None, s, "full", 1.0) for s in samples]
        for policy in ("global", "per_head", "recency"):
            got = [decode_sequence(bb, None, s, policy, 1.0) for s in samples]
            for a, b in zip(ref, got):
                assert np.array_equal(a.predictions, b.predictions)
                assert a.correct == b.correct

    def test_budget_bounds_cache(self, world):
        bb, samples = world
        for policy in ("global", "per_head", "recency"):
            res = decode_sequence(bb, None, samples[0], policy, 0.25, cadence=1)
            T = samples[0].tokens.shape[0]
            budget = int(np.ceil(0.25 * T * bb.shape.layers * bb.shape.heads))
            # new tokens are admitted before the compression that follows them
            assert res.peak_entries <= budget + bb.shape.layers * bb.shape.heads
            assert res.mean_retained <= budget

    def test_deterministic(self, world):
        bb, samples = world
        a = decode_sequence(bb, None, samples[1], "global", 0.3)
        b = decode_sequence(bb, None, samples[1], "global", 0.3)
        assert np.array_equal(a.predictions, b.predictions)
        assert a.mean_retained == b.mean_retained

    def test_unscored_policies_never_run_the_gate(self, world, monkeypatch):
        """`full` and `recency` read no beta: with a checkpoint they skip the
        gate and decode exactly as without one."""
        bb, samples = world
        gates = init_gate_params(default_shape(SPEC, 8), bb.shape.d_model,
                                 np.random.default_rng(3))

        def no_gate(*args, **kwargs):
            raise AssertionError("the gate ran")

        monkeypatch.setattr(evaluate, "gate_forward_batch", no_gate)
        with pytest.raises(AssertionError, match="the gate ran"):
            decode_sequence(bb, gates, samples[0], "global", 0.25)
        for policy in ("full", "recency"):
            for s in samples[:2]:
                want = decode_sequence(bb, None, s, policy, 0.25)
                got = decode_sequence(bb, gates, s, policy, 0.25)
                assert np.array_equal(got.predictions, want.predictions)
                assert (got.correct, got.mean_retained, got.peak_entries, got.peak_pages) == \
                    (want.correct, want.mean_retained, want.peak_entries, want.peak_pages)

    def test_trace_collection(self, world):
        bb, samples = world
        trace = []
        decode_sequence(bb, None, samples[0], "global", 0.2, trace=trace)
        cols = trace_columns(trace)
        assert cols["step"].size
        assert set(cols["retained"].tolist()) == {True, False}
        steps = cols["step"].tolist()
        assert steps == sorted(steps)

    def test_sample_longer_than_the_model_rejected(self):
        """A sample past `seq_len` fails up front, naming both lengths."""
        short = build_task_model(replace(SPEC, context_len=32), np.random.default_rng(1))
        sample = generate_dataset(replace(SPEC, context_len=64), 1, np.random.default_rng(2))[0]
        assert (sample.tokens.shape[0], short.shape.seq_len) == (69, 37)
        for policy in ("full", "global"):
            with pytest.raises(ValueError, match="length 69 exceeds model limit 37"):
                decode_sequence(short, None, sample, policy, 0.25)

    @pytest.mark.parametrize("bad", [-1, SPEC.vocab])
    def test_token_id_outside_the_vocab_rejected(self, world, bad):
        """An id outside [0, vocab) fails up front: -1 would be scored as the
        last token and `vocab` would raise a bare IndexError."""
        bb, samples = world
        tokens = samples[0].tokens.copy()
        tokens[3] = bad
        for policy in ("full", "global"):
            with pytest.raises(ValueError, match=r"token ids must lie in \[0, 40\)"):
                decode_sequence(bb, None, replace(samples[0], tokens=tokens), policy, 0.25)

    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan"), float("inf")])
    def test_budget_fraction_not_positive_and_finite_rejected(self, world, bad):
        """0 and -0.5 would run as a budget of one entry per group; NaN would
        fail converting to an integer."""
        bb, samples = world
        for policy in ("full", "recency", "global"):
            with pytest.raises(ValueError, match=f"budget_fraction must be finite and > 0; "
                                                 f"got {bad!r}"):
                decode_sequence(bb, None, samples[0], policy, bad)

    def test_budget_fraction_above_one_keeps_every_entry(self, world):
        bb, samples = world
        whole = decode_sequence(bb, None, samples[0], "recency", 1.0)
        more = decode_sequence(bb, None, samples[0], "recency", 1.5)
        assert more.peak_entries == whole.peak_entries
        assert np.array_equal(more.predictions, whole.predictions)

    def test_layer_zero_and_appends_run_once_per_token_and_layer(self, world, monkeypatch):
        """A scored decode of T tokens gates layer 0 in one call and every
        later layer once per token, and appends each layer's heads in one call."""
        bb, samples = world
        gates = init_gate_params(default_shape(SPEC, 8), bb.shape.d_model,
                                 np.random.default_rng(3))
        calls = {"gate": 0, "append": 0}
        real_append = PagedKVStore.append

        def gate(*args, **kwargs):
            calls["gate"] += 1
            return gate_forward_batch(*args, **kwargs)

        def append(*args, **kwargs):
            calls["append"] += 1
            return real_append(*args, **kwargs)

        monkeypatch.setattr(evaluate, "gate_forward_batch", gate)
        monkeypatch.setattr(PagedKVStore, "append", append)
        T, L = samples[0].tokens.shape[0], bb.shape.layers
        for policy, gate_calls in (("global", 1 + (L - 1) * T), ("full", 0)):
            calls.update(gate=0, append=0)
            decode_sequence(bb, gates, samples[0], policy, 0.25)
            assert calls == {"gate": gate_calls, "append": L * T}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("context_len", [96, 480])
def test_decode_predicts_the_forward_argmax(context_len, seed):
    """Decode re-implements the backbone's forward row by row: `full` must
    predict `teacher_forward`'s argmax at every position, at T=105 and T=489,
    and so must the scored policies at budget 1.0, where gates only rank."""
    spec = TaskSpec(**{**DEFAULT_CONFIG["task"], "context_len": context_len})
    rng = np.random.default_rng(seed)
    bb = build_task_model(spec, rng)
    sample = generate_dataset(spec, 1, rng)[0]
    want = np.argmax(teacher_forward(bb, sample.tokens), axis=-1)
    assert want.shape == (spec.seq_len,)
    assert np.array_equal(decode_sequence(bb, None, sample, "full", 1.0).predictions, want)
    gates = init_gate_params(bb.shape, bb.shape.d_model, rng, init_scale=2.0)
    gates.bg -= 18.0      # betas spread over (0, 1)
    for policy in ("global", "per_head"):
        got = decode_sequence(bb, gates, sample, policy, 1.0).predictions
        assert np.array_equal(got, want), policy


GATE_KINDS = ("none", "tied_embedding", "untied_kv")


def _bit_world(T, kind):
    shape = ModelShape(layers=2, heads=2, head_dim=16, gate_hidden=8, seq_len=T, vocab=40)
    rng = np.random.default_rng(T)
    bb = random_backbone(shape, rng)
    gates = None
    if kind != "none":
        tied = kind == "tied_embedding"
        gates = init_gate_params(shape, shape.d_model if tied else 2 * shape.head_dim, rng,
                                 tied=tied, gate_input="embedding" if tied else "kv",
                                 init_scale=2.0)
        gates.bg -= 18.0      # betas spread over (0, 1)
    return bb, gates, rng.normal(size=(T, shape.d_model))


@pytest.mark.parametrize("kind", GATE_KINDS)
@pytest.mark.parametrize("T", [105, 489])
def test_stacked_rows_equal_one_row_calls(T, kind):
    """Decode projects layer 0 and unembeds as stacked rows and every later
    layer one row at a time; both must give the same bits as one-row calls."""
    bb, gates, X = _bit_world(T, kind)
    wqkv = np.concatenate([bb.wq, bb.wk, bb.wv], axis=1)
    for layer in range(bb.shape.layers):
        stacked = evaluate._project(wqkv, gates, layer, X)
        assert [a.shape for a in stacked] == [(T, 2, 16)] * 3 + [(T, 2)]
        for i in range(T):
            one = evaluate._project(wqkv, gates, layer, X[i:i + 1])
            for a, b in zip(stacked, one):
                assert a[i].tobytes() == b[0].tobytes()
            # and the plain per-row products of the backbone's weights
            for a, w in zip(stacked, (bb.wq, bb.wk, bb.wv)):
                assert a[i].tobytes() == (X[i] @ w[layer]).tobytes()
        if gates is not None:
            assert np.ptp(stacked[3]) > 0.5     # the gates respond to their input
    logits = X[:, None, :] @ bb.unembed
    for i in range(T):
        assert logits[i, 0].tobytes() == (X[i] @ bb.unembed).tobytes()


def per_head_decode(bb, gates, sample, policy_name, budget_fraction, recorder, trace):
    """Reference decode: each head gathered and attended on its own, with 2-D
    products, as decode did before it attended runs of heads. Returns the
    final hidden rows, predictions, mean retained, peak entries and peak pages."""
    if policy_name not in SCORED:
        gates = None
    L, H, dh = bb.shape.layers, bb.shape.heads, bb.shape.head_dim
    T = sample.tokens.shape[0]
    store = PagedKVStore(L, H, dh)
    policy = make_policy(policy_name, max(1, int(np.ceil(budget_fraction * T * L * H))),
                         store, trace=trace)
    wqkv = np.concatenate([bb.wq, bb.wk, bb.wv], axis=1)
    x0 = bb.embed[sample.tokens] + bb.pos[:T]
    layer0 = list(zip(*evaluate._project(wqkv, gates, 0, x0)))
    final = np.empty_like(x0)
    retained, peak_entries, peak_pages = [], 0, 0
    for t in range(T):
        h = x0[t]
        for l in range(L):
            q, k, v, betas = layer0[t] if l == 0 else \
                [a[0] for a in evaluate._project(wqkv, gates, l, h[None])]
            store.append(l, None, k, v, t, betas)
            attn = np.zeros_like(h)
            for hd in range(H):
                snap = store.gather(l, hd)
                w = softmax_kernel(snap.keys @ q[hd] / np.sqrt(dh))
                attn += (w @ snap.values) @ bb.wo[l, hd]
                recorder.observe(l, hd, t, snap.births, w)
            h = h + attn
            a = np.tanh(h @ bb.mlp_w1[l] + bb.mlp_b1[l])
            h = h + a @ bb.mlp_w2[l] + bb.mlp_b2[l]
        final[t] = h
        peak_entries = max(peak_entries, store.total_entries())
        peak_pages = max(peak_pages, store.pages_in_use())
        policy.step(t)
        retained.append(store.total_entries())
    predictions = np.argmax(final[:, None, :] @ bb.unembed, axis=-1)[:, 0]
    return final, predictions, float(np.mean(retained)), peak_entries, peak_pages


def _spy_unembed(bb):
    """`bb` with an unembedding that records the hidden rows multiplied into it."""
    seen = []

    class Spy(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            seen.append(np.array(inputs[0]))
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    return replace(bb, unembed=bb.unembed.view(Spy)), seen


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("T, heads", [(105, 2), (489, 2), (105, 3)])
def test_stacked_runs_equal_per_head_attention(T, heads, policy, monkeypatch):
    """Decode attends each run of equal-length heads in one stacked call; its
    hidden rows, outputs, trace and selections equal the per-head loop's bit
    for bit. With three heads `global` attends runs of one, two and three."""
    shape = ModelShape(layers=2, heads=heads, head_dim=16, gate_hidden=8, seq_len=T, vocab=40)
    rng = np.random.default_rng(T + heads)
    bb = random_backbone(shape, rng)
    gates = init_gate_params(shape, 2 * shape.head_dim, rng, tied=False, gate_input="kv",
                             init_scale=2.0)
    gates.bg -= 18.0      # betas spread over (0, 1)
    queries = np.arange(T - 8, T)
    sample = Sample(rng.integers(0, shape.vocab, size=T), queries,
                    rng.integers(0, shape.vocab, size=8), np.zeros(0, np.int64),
                    np.zeros(0, np.int64))
    run_sizes = set()
    gather_layer = PagedKVStore.gather_layer

    def spy_gather_layer(self, layer):
        out = gather_layer(self, layer)
        lengths, lo = out[0], 0
        for hi in range(1, len(lengths) + 1):
            if hi == len(lengths) or lengths[hi] != lengths[lo]:
                run_sizes.add(hi - lo)
                lo = hi
        return out

    monkeypatch.setattr(PagedKVStore, "gather_layer", spy_gather_layer)
    spied, hidden = _spy_unembed(bb)
    recorders, traces = (SelectionRecorder(), SelectionRecorder()), ([], [])
    got = decode_sequence(spied, gates, sample, policy, 0.125, recorder=recorders[0],
                          trace=traces[0])
    final, predictions, mean_retained, peak_entries, peak_pages = per_head_decode(
        bb, gates, sample, policy, 0.125, recorders[1], traces[1])
    assert hidden[-1][:, 0].tobytes() == final.tobytes()
    assert got.predictions.tobytes() == predictions.tobytes()
    assert (got.mean_retained, got.peak_entries, got.peak_pages) == \
        (mean_retained, peak_entries, peak_pages)
    want = trace_columns(traces[1])
    for field, col in trace_columns(traces[0]).items():
        assert col.tobytes() == want[field].tobytes(), field
    assert (policy in SCORED) == bool(traces[0])
    assert recorders[0].mass_set_sizes == recorders[1].mass_set_sizes
    for criterion in recorders[0].criteria():
        for l in range(2):
            for h in range(heads):
                assert recorders[0].reach(criterion, l, h, T).tobytes() == \
                    recorders[1].reach(criterion, l, h, T).tobytes()
    if policy == "global" and heads == 3:
        assert run_sizes == {1, 2, 3}
    elif policy != "global":
        assert run_sizes == {heads}     # every head of a layer holds the same rows


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("entropy", 10, PagedKVStore(2, 2, 1))

    def test_recency_keeps_sliding_window(self):
        store = PagedKVStore(2, 2, 1)
        policy = make_policy("recency", total_budget=8, store=store)
        for t in range(20):
            for l in range(2):
                for h in range(2):
                    admit(store, l, h, t, 1.0)
            policy.step(t)
        # window of 2 per head
        for l in range(2):
            for h in range(2):
                assert store.gather(l, h).births.tolist() == [18, 19]
        assert policy.total_alive() == 8

    def test_per_head_budget_is_local(self):
        store = PagedKVStore(2, 2, 1)
        policy = make_policy("per_head", total_budget=8, store=store)
        for t in range(10):
            for l in range(2):
                for h in range(2):
                    admit(store, l, h, t, 0.9 if h == 0 else 0.1)
            policy.step(t)
        # each head keeps exactly its local budget of 2, scores notwithstanding
        for l in range(2):
            for h in range(2):
                assert store.gather(l, h).births.tolist() == [8, 9]


class TestEvaluatePolicies:
    def test_grid_shape_and_pairing(self, world):
        bb, samples = world
        cells = evaluate_policies(bb, None, samples, ["full", "recency"], [0.5, 1.0])
        assert len(cells) == 4
        combos = {(c.policy, c.budget) for c in cells}
        assert combos == {("full", 0.5), ("full", 1.0), ("recency", 0.5), ("recency", 1.0)}
        at_full = {c.policy: c.accuracy for c in cells if c.budget == 1.0}
        assert at_full["full"] == at_full["recency"]


class TestSelectionRecorder:
    def test_topk_and_mass_selection(self):
        rec = SelectionRecorder(top_k=(1, 2), tau=(0.9,))
        births = np.array([0, 1, 2])
        weights = np.array([0.7, 0.2, 0.1])
        rec.observe(0, 0, step=5, births=births, weights=weights)
        assert rec.reach("top1", 0, 0, 3).tolist() == [5, -1, -1]
        assert rec.reach("top2", 0, 0, 3).tolist() == [5, 4, -1]
        # 0.7 + 0.2 reaches 0.9: the mass set is exactly the top two
        assert rec.reach("mass0.9", 0, 0, 3).tolist() == [5, 4, -1]
        assert rec.mass_set_sizes == [2]

    def test_reach_matches_a_record_of_every_selection(self):
        """Random observations, in step order as decode makes them, against a
        brute-force record of every step that selected each birth."""
        rng = np.random.default_rng(16)
        top_k, tau = (1, 3), (0.5, 0.99)
        for _ in range(200):
            rec = SelectionRecorder(top_k=top_k, tau=tau)
            n_tokens = int(rng.integers(1, 25))
            history = {}   # (layer, head, criterion) -> {birth: [steps]}
            for step in np.sort(rng.integers(0, 40, size=rng.integers(0, 30))).tolist():
                layer, head = rng.integers(0, 2, size=2).tolist()
                births = np.sort(rng.choice(n_tokens, size=rng.integers(1, n_tokens + 1),
                                            replace=False))
                weights = rng.random(births.size) ** 4
                weights /= weights.sum()
                rec.observe(layer, head, step, births, weights)
                order = np.argsort(-weights, kind="stable")
                chosen = {f"top{k}": births[order[:k]] for k in top_k}
                for t in tau:
                    size = min(int(np.searchsorted(np.cumsum(weights[order]), t - 1e-12)) + 1,
                               births.size)
                    chosen[f"mass{t}"] = births[order[:size]]
                for criterion, picked in chosen.items():
                    slot = history.setdefault((layer, head, criterion), {})
                    for b in picked.tolist():
                        slot.setdefault(b, []).append(step)
            for layer in range(2):
                for head in range(2):
                    for criterion in rec.criteria():
                        slot = history.get((layer, head, criterion), {})
                        want = [max(slot[b]) - b if b in slot else -1 for b in range(n_tokens)]
                        assert rec.reach(criterion, layer, head, n_tokens).tolist() == want

    @pytest.mark.parametrize("bad", [{"top_k": (-1,)}, {"top_k": (0, 2)}, {"top_k": (1.5,)},
                                     {"top_k": (True,)}, {"tau": (0.0,)}, {"tau": (1.5,)},
                                     {"tau": (float("nan"),)}],
                             ids=lambda b: "{}={}".format(*next(iter(b.items()))))
    def test_bad_criteria_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SelectionRecorder(**bad)

    def test_steps_must_not_go_back(self):
        rec = SelectionRecorder()
        rec.observe(0, 0, 3, np.arange(2), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            rec.observe(1, 0, 2, np.arange(2), np.array([0.5, 0.5]))

    def test_mass_set_is_prefix_of_topk_order(self, rng):
        rec = SelectionRecorder(top_k=(3,), tau=(0.99,))
        for step in range(10):
            w = rng.random(step + 1)
            w /= w.sum()
            rec.observe(0, 0, step, np.arange(step + 1), w)
        for size in rec.mass_set_sizes:
            assert size >= 1
