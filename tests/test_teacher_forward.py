"""The full-cache forward keeps no trace and returns the student path's bits."""

import tracemalloc

import numpy as np
import pytest

from retainkv.backbone import student_forward, teacher_forward, token_ids
from retainkv.cli import DEFAULT_CONFIG
from retainkv.gates import ModelShape
from retainkv.tasks import TaskSpec, build_task_model, generate_dataset

from conftest import random_backbone


def task_model(context_len):
    spec = TaskSpec(**{**DEFAULT_CONFIG["task"], "context_len": context_len})
    rng = np.random.default_rng(0)
    bb = build_task_model(spec, rng)
    return bb, generate_dataset(spec, 1, rng)[0].tokens


@pytest.fixture(scope="module")
def long_model():
    # the shape of the benchmark's decode_long workload: T = 489
    return task_model(480)


@pytest.mark.parametrize("T", [2, 105, 489])
def test_task_model_logits_equal_student_path(long_model, T):
    bb, tokens = long_model
    tokens = tokens[:T]
    assert tokens.shape[0] == T
    assert np.array_equal(teacher_forward(bb, tokens), student_forward(bb, None, tokens)[0])


def test_random_backbone_logits_equal_student_path(rng):
    for _ in range(20):
        shape = ModelShape(layers=int(rng.integers(1, 4)), heads=int(rng.integers(1, 4)),
                           head_dim=int(rng.integers(2, 9)), gate_hidden=4, seq_len=40,
                           vocab=int(rng.integers(2, 30)))
        bb = random_backbone(shape, rng, scale=float(rng.uniform(0.2, 3.0)))
        tokens = rng.integers(0, shape.vocab, size=int(rng.integers(1, 41)))
        assert np.array_equal(teacher_forward(bb, tokens), student_forward(bb, None, tokens)[0])


def test_teacher_peak_memory_at_long_context(long_model):
    """The lean path holds at most two [489, 489] arrays (1.9 MB each) at once.

    A kept trace holds 4 heads' weights (7.7 MB); keeping one head's logits
    and weights until the next head's are built peaks near 6.9 MB.
    """
    bb, tokens = long_model
    assert tokens.shape[0] == 489
    teacher_forward(bb, tokens)
    tracemalloc.start()
    try:
        teacher_forward(bb, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"teacher_forward peaked at {peak / 1e6:.1f} MB"


class TestTokenIds:
    """Token ids index the embedding only after `token_ids` checks them."""

    SHAPE = ModelShape(layers=1, heads=2, head_dim=4, gate_hidden=4, seq_len=8, vocab=64)

    @pytest.mark.parametrize("forward", [teacher_forward,
                                         lambda bb, t: student_forward(bb, None, t)],
                             ids=["teacher", "student"])
    @pytest.mark.parametrize("tokens, match", [
        ([3, -1, 5], r"in \[0, 64\)"),       # would read the embedding's last row
        ([3, 64, 5], r"in \[0, 64\)"),       # would raise a bare IndexError
        ([3, 3.7, 5], "integer ids"),         # would run as 3
        ([[3, 5]], "1-D"),
        (list(range(9)), "length 9 exceeds model limit 8"),
    ], ids=["negative", "vocab", "fractional", "2-D", "too_long"])
    def test_bad_ids_rejected(self, rng, forward, tokens, match):
        bb = random_backbone(self.SHAPE, rng)
        with pytest.raises(ValueError, match=match):
            forward(bb, tokens)

    def test_valid_ids_pass_unchanged(self, rng):
        bb = random_backbone(self.SHAPE, rng)
        tokens = rng.integers(0, 64, size=8)
        ids = token_ids(self.SHAPE, tokens.astype(np.int32))
        assert ids.dtype == np.int64 and np.array_equal(ids, tokens)
        assert token_ids(self.SHAPE, tokens) is tokens
        assert np.array_equal(teacher_forward(bb, tokens.tolist()), teacher_forward(bb, tokens))
