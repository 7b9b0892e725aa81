"""Synthetic multi-key needle task and a frozen backbone constructed to solve it.

A sample interleaves `n_keys` single-token needles (each binding a key to a
value in its embedding) with a long run of distractor tokens whose key
signatures partially overlap the real keys; a query section then asks a
subset of keys and expects the bound value as the next token. Overlapping
distractors produce near-tie attention competition, so full-cache accuracy
degrades as the distractor pool grows while an oracle that drops distractors
recovers it.

The backbone is built by construction rather than pretraining: one head
performs the key-value recall, a second head attends by token type (purely
local usefulness), and the second layer is a weak random mixer. All weights
are frozen; only retention gates are ever trained on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import Backbone
from .gates import ModelShape


@dataclass(frozen=True)
class TaskSpec:
    """Multi-key needle task dimensions."""

    context_len: int = 96        # needles + distractors, excluding BOS and queries
    n_keys: int = 8
    n_values: int = 4
    n_queries: int = 4
    n_distractor_vocab: int = 16
    vocab: int = 64

    def __post_init__(self):
        if self.n_queries > self.n_keys:
            raise ValueError("cannot query more keys than exist")
        if self.context_len < self.n_keys:
            raise ValueError("context too short to place every needle")
        if self.used_vocab > self.vocab:
            raise ValueError(
                f"vocab {self.vocab} too small for {self.used_vocab} distinct tokens")
        # build_task_model's registers: key, value + junk, probe, 6 type, 2 spare
        need, d = 2 * self.n_keys + self.n_values + 9, default_shape(self).d_model
        if need > d:
            raise ValueError(f"d_model {d} too small for task registers ({need} needed): "
                             f"2 * n_keys + n_values + 9 must be at most {d}")

    # token id blocks, in order; the needles start at id 0
    @property
    def key_base(self) -> int:
        return self.n_keys * self.n_values

    @property
    def value_base(self) -> int:
        return self.key_base + self.n_keys

    @property
    def distractor_base(self) -> int:
        return self.value_base + self.n_values

    @property
    def filler_id(self) -> int:
        return self.distractor_base + self.n_distractor_vocab

    @property
    def used_vocab(self) -> int:
        return self.filler_id + 1

    @property
    def seq_len(self) -> int:
        return 1 + self.context_len + 2 * self.n_queries

    def needle_id(self, key: int, value: int) -> int:
        return key * self.n_values + value

    def key_id(self, key: int) -> int:
        return self.key_base + key

    def value_id(self, value: int) -> int:
        return self.value_base + value


@dataclass
class Sample:
    tokens: np.ndarray
    query_positions: np.ndarray  # positions holding key tokens
    answers: np.ndarray          # expected value token id per query
    needle_positions: np.ndarray
    assignment: np.ndarray       # value index per key


def generate_sample(spec: TaskSpec, rng: np.random.Generator) -> Sample:
    """One sample: needles at uniform random context positions, then queries."""
    assignment = rng.integers(0, spec.n_values, size=spec.n_keys)
    context = rng.integers(spec.distractor_base,
                           spec.distractor_base + spec.n_distractor_vocab,
                           size=spec.context_len)
    needle_pos = rng.choice(spec.context_len, size=spec.n_keys, replace=False)
    for k in range(spec.n_keys):
        context[needle_pos[k]] = spec.needle_id(k, int(assignment[k]))
    queried = rng.choice(spec.n_keys, size=spec.n_queries, replace=False)
    tail = []
    query_positions = []
    answers = []
    base = 1 + spec.context_len
    for j, k in enumerate(queried):
        tail.extend([spec.key_id(int(k)), spec.value_id(int(assignment[k]))])
        query_positions.append(base + 2 * j)
        answers.append(spec.value_id(int(assignment[k])))
    tokens = np.concatenate([
        [spec.filler_id], context, np.asarray(tail, dtype=np.int64)])
    return Sample(tokens.astype(np.int64), np.asarray(query_positions),
                  np.asarray(answers), 1 + needle_pos, assignment)


def generate_dataset(spec: TaskSpec, n: int, rng: np.random.Generator) -> list[Sample]:
    return [generate_sample(spec, rng) for _ in range(n)]


# -- constructed backbone -----------------------------------------------------


# how hard the recall problem is for full attention
MATCH_SCALE = 9.0        # needle logit at a matching query, in nats
DECOY_OVERLAP = 0.72     # distractor key signature as a fraction of a real key
DECOY_VALUE_GAIN = 0.8
DECOY_JUNK_GAIN = 0.8
TYPE_SCALE = 4.0         # same-type attraction for the local head
OUT_GAIN = 6.0           # unembedding sharpness on the value register


def default_shape(spec: TaskSpec, gate_hidden: int = 16) -> ModelShape:
    return ModelShape(layers=2, heads=2, head_dim=16, gate_hidden=gate_hidden,
                      seq_len=spec.seq_len, vocab=spec.vocab)


def build_task_model(spec: TaskSpec, rng: np.random.Generator) -> Backbone:
    """Frozen backbone whose first layer solves the recall task by construction.

    Register layout inside d_model: key signature, value payload plus one junk
    direction, query probe, and token-type features. Distractor ids carry a
    scaled-down signature of one real key plus a junk/value payload, making
    them near-tie competitors of that key's needle.
    """
    shape = default_shape(spec)
    d = shape.d_model
    nk, nv = spec.n_keys, spec.n_values
    n_type = 6
    k0, v0 = 0, nk                     # key register, value register (+1 junk dim)
    p0 = v0 + nv + 1                   # probe register
    t0 = p0 + nk                       # type register
    spare0 = t0 + n_type               # two or more spare dims: TaskSpec checks d
    junk = v0 + nv

    # orthonormal token-type features: separability of the classes must not
    # depend on the draw, or gate training quality varies wildly across seeds
    basis, _ = np.linalg.qr(rng.normal(size=(n_type, n_type)))
    names = ("needle", "query", "value", "distractor", "filler")
    types = {name: basis[:, i] for i, name in enumerate(names)}

    embed = np.zeros((shape.vocab, d))

    def set_type(tok: int, name: str):
        embed[tok, t0:t0 + n_type] = types[name] + 0.08 * rng.normal(size=n_type)

    for k in range(nk):
        for v in range(nv):
            tok = spec.needle_id(k, v)
            embed[tok, k0 + k] = 1.0
            embed[tok, v0 + v] = 1.0
            set_type(tok, "needle")
    for k in range(nk):
        tok = spec.key_id(k)
        embed[tok, p0 + k] = 1.0
        set_type(tok, "query")
    for v in range(nv):
        tok = spec.value_id(v)
        embed[tok, v0 + v] = 0.3
        set_type(tok, "value")
    decoy_key = np.zeros(spec.n_distractor_vocab, dtype=np.int64)
    for j in range(spec.n_distractor_vocab):
        tok = spec.distractor_base + j
        k = j % nk
        v = int(rng.integers(0, nv))
        decoy_key[j] = k
        sig = np.zeros(nk)
        sig[k] = DECOY_OVERLAP
        sig += 0.05 * rng.normal(size=nk)
        embed[tok, k0:k0 + nk] = sig
        embed[tok, v0 + v] = DECOY_VALUE_GAIN
        embed[tok, junk] = DECOY_JUNK_GAIN
        set_type(tok, "distractor")
    set_type(spec.filler_id, "filler")

    L, H, dh = shape.layers, shape.heads, shape.head_dim
    wq = np.zeros((L, H, d, dh))
    wk = np.zeros((L, H, d, dh))
    wv = np.zeros((L, H, d, dh))
    wo = np.zeros((L, H, dh, d))

    # layer 0 head 0: recall. Probe register queries the key register; the
    # value register (and junk direction) rides along into the output.
    sq = MATCH_SCALE * np.sqrt(dh)
    for k in range(nk):
        wq[0, 0, p0 + k, k] = sq
        wk[0, 0, k0 + k, k] = 1.0
    for v in range(nv + 1):
        wv[0, 0, v0 + v, nk + v] = 1.0
        wo[0, 0, nk + v, v0 + v] = 1.0

    # layer 0 head 1: token-type attraction; local usefulness only.
    st = TYPE_SCALE * np.sqrt(dh)
    for j in range(n_type):
        wq[0, 1, t0 + j, j] = st
        wk[0, 1, t0 + j, j] = 1.0
        wv[0, 1, t0 + j, j] = 0.05
        wo[0, 1, j, spare0] = 0.05

    # layer 1: weak random mixer over type/spare registers; near-passthrough.
    for hd in range(H):
        wq[1, hd, t0:, :] = 0.2 * rng.normal(size=(d - t0, dh))
        wk[1, hd, t0:, :] = 0.2 * rng.normal(size=(d - t0, dh))
        wv[1, hd, t0:, :] = 0.05 * rng.normal(size=(d - t0, dh))
        wo[1, hd, :, spare0:] = 0.05 * rng.normal(size=(dh, d - spare0))

    unembed = np.zeros((d, shape.vocab))
    for v in range(nv):
        unembed[v0 + v, spec.value_id(v)] = OUT_GAIN
    unembed[junk, spec.filler_id] = OUT_GAIN

    d_ff = 2 * d
    return Backbone(
        shape=shape,
        embed=embed,
        pos=np.zeros((shape.seq_len, d)),
        wq=wq, wk=wk, wv=wv, wo=wo,
        mlp_w1=np.zeros((L, d, d_ff)),
        mlp_b1=np.zeros((L, d_ff)),
        mlp_w2=np.zeros((L, d_ff, d)),
        mlp_b2=np.zeros((L, d)),
        unembed=unembed,
    )
