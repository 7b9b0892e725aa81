import numpy as np
import pytest

from retainkv.backbone import teacher_forward
from retainkv.tasks import TaskSpec, build_task_model, default_shape, generate_dataset, generate_sample


class TestTaskSpec:
    def test_token_blocks_are_disjoint_and_fit(self):
        spec = TaskSpec()
        ids = set()
        for k in range(spec.n_keys):
            for v in range(spec.n_values):
                ids.add(spec.needle_id(k, v))
            ids.add(spec.key_id(k))
        for v in range(spec.n_values):
            ids.add(spec.value_id(v))
        ids.add(spec.filler_id)
        assert len(ids) == spec.n_keys * spec.n_values + spec.n_keys + spec.n_values + 1
        assert max(ids) < spec.vocab

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(n_keys=8, n_values=8, vocab=64)

    def test_too_many_queries_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(n_queries=9, n_keys=8)

    def test_registers_must_fit_d_model(self):
        """build_task_model needs 2 * n_keys + n_values + 9 dims of d_model 32."""
        spec = TaskSpec(n_keys=9, n_values=5, vocab=128)      # exactly 32
        assert build_task_model(spec, np.random.default_rng(0)).embed.shape[1] == 32
        for keys, values in ((10, 4), (9, 6)):                 # 33 needed
            with pytest.raises(ValueError, match=r"too small for task registers \(33 needed\)"):
                TaskSpec(n_keys=keys, n_values=values, vocab=128)


class TestGenerateSample:
    def test_structure(self, rng):
        spec = TaskSpec()
        s = generate_sample(spec, rng)
        assert s.tokens.shape[0] == spec.seq_len
        assert s.tokens[0] == spec.filler_id
        assert len(s.query_positions) == spec.n_queries
        for pos, answer in zip(s.query_positions, s.answers):
            key_tok = s.tokens[pos]
            key = key_tok - spec.key_base
            assert spec.value_base <= answer < spec.value_base + spec.n_values
            # the answer token actually follows the query in the input
            assert s.tokens[pos + 1] == answer
            # and matches the needle placed in the context
            assert spec.needle_id(key, answer - spec.value_base) in set(s.tokens.tolist())

    def test_needles_at_uniformish_positions(self, rng):
        spec = TaskSpec()
        positions = np.concatenate(
            [generate_sample(spec, rng).needle_positions for _ in range(200)])
        # uniform placement: mean near the context midpoint
        assert abs(positions.mean() - (1 + spec.context_len / 2)) < 4.0

    def test_distractor_ratio(self, rng):
        spec = TaskSpec()
        s = generate_sample(spec, rng)
        context = s.tokens[1:1 + spec.context_len]
        n_distractors = int(np.sum(context >= spec.distractor_base))
        assert n_distractors >= 4 * spec.n_keys


class TestTaskModel:
    def test_full_cache_solves_most_queries(self, rng):
        spec = TaskSpec()
        bb = build_task_model(spec, rng)
        samples = generate_dataset(spec, 25, rng)
        correct = total = 0
        for s in samples:
            logits = teacher_forward(bb, s.tokens)
            pred = logits[s.query_positions].argmax(axis=1)
            correct += int(np.sum(pred == s.answers))
            total += len(s.answers)
        assert 0.7 <= correct / total <= 1.0

    def test_dilution_is_substantial_at_queries(self, rng):
        """Distractors must steal real attention mass or the task is trivial."""
        from retainkv.backbone import student_forward

        spec = TaskSpec()
        bb = build_task_model(spec, rng)
        s = generate_dataset(spec, 5, rng)[0]
        _, trace = student_forward(bb, None, s.tokens)
        w = trace.layers[0].w[0]
        useful = set(s.needle_positions.tolist())
        diluted = []
        for pos in s.query_positions:
            mass = sum(w[pos, i] for i in useful)
            diluted.append(1.0 - mass)
        assert np.mean(diluted) > 0.2

    def test_oracle_eviction_beats_full_cache(self, rng):
        """Dropping every distractor recovers the diluted queries."""
        from retainkv.evaluate import decode_sequence

        spec = TaskSpec()
        bb = build_task_model(spec, rng)
        samples = generate_dataset(spec, 25, rng)
        full = sum(decode_sequence(bb, None, s, "full", 1.0).correct for s in samples)

        correct = 0
        for s in samples:
            pruned = [i for i, tok in enumerate(s.tokens)
                      if tok < spec.distractor_base or i == 0]
            keep = np.asarray(pruned)
            logits = teacher_forward(bb, s.tokens[keep])
            remap = {int(orig): j for j, orig in enumerate(keep)}
            pred = logits[[remap[int(p)] for p in s.query_positions]].argmax(axis=1)
            correct += int(np.sum(pred == s.answers))
        assert correct >= full

    def test_model_is_deterministic_given_rng(self):
        spec = TaskSpec()
        a = build_task_model(spec, np.random.default_rng(3))
        b = build_task_model(spec, np.random.default_rng(3))
        assert np.array_equal(a.embed, b.embed)
        assert np.array_equal(a.wq, b.wq)

    def test_shape_defaults(self):
        spec = TaskSpec()
        shape = default_shape(spec)
        assert shape.d_model == shape.heads * shape.head_dim
        assert shape.seq_len == spec.seq_len
