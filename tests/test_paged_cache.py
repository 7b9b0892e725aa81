import json

import numpy as np
import pytest

from retainkv.attention import HeadCache, attend_full
from retainkv.paged_cache import PagedKVStore

from conftest import check_accounting, snapshot


class ShadowStore:
    """Contiguous reference: per-head python lists, nothing shared with pages."""

    def __init__(self):
        self.rows = {}

    def append(self, layer, head, key, value, birth, beta):
        self.rows.setdefault((layer, head), []).append(
            (int(birth), np.array(key), np.array(value), float(beta)))

    def evict(self, layer, head, births):
        gone = set(int(b) for b in births)
        self.rows[(layer, head)] = [r for r in self.rows[(layer, head)] if r[0] not in gone]

    def gather(self, layer, head):
        rows = self.rows.get((layer, head), [])
        if not rows:
            return (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=np.int64),
                    np.zeros(0))
        keys = np.stack([r[1] for r in rows])
        values = np.stack([r[2] for r in rows])
        births = np.array([r[0] for r in rows], dtype=np.int64)
        betas = np.array([r[3] for r in rows])
        return keys, values, births, betas

    def retain(self, keep):
        """Keep the entries `keep` marks True, a mask over every head's rows in
        (layer, head, birth) order; returns the evicted births per head."""
        evicted, start = {}, 0
        for key in sorted(self.rows):
            rows = self.rows[key]
            marks = keep[start:start + len(rows)].tolist()
            start += len(rows)
            if not all(marks):
                evicted[key] = [r[0] for r, k in zip(rows, marks) if not k]
            self.rows[key] = [r for r, k in zip(rows, marks) if k]
        return evicted

    def total(self):
        return sum(len(v) for v in self.rows.values())


def assert_matches_shadow(store, shadow, layer, head):
    snap = store.gather(layer, head)
    keys, values, births, betas = shadow.gather(layer, head)
    assert np.array_equal(snap.births, births)
    if len(snap):
        assert np.array_equal(snap.keys, keys)
        assert np.array_equal(snap.values, values)
        assert np.array_equal(snap.betas, betas)


class TestAppend:
    def test_page_arithmetic(self, rng):
        store = PagedKVStore(1, 1, 4, page_size=16)
        for i in range(20):
            store.append(0, 0, rng.normal(size=4), rng.normal(size=4), i, 0.5)
        assert snapshot(store)["tables"]["0,0"] == {"logical_length": 20, "pages": 2}
        assert store.pages_in_use() == 2
        assert len(store.gather(0, 0)) == 20

    def test_interleaved_heads_are_independent(self, rng):
        store = PagedKVStore(1, 2, 4, page_size=4)
        for i in range(10):
            store.append(0, i % 2, rng.normal(size=4), rng.normal(size=4), i, 1.0)
        assert len(store.gather(0, 0)) == 5
        assert len(store.gather(0, 1)) == 5
        assert set(store.gather(0, 0).births) == {0, 2, 4, 6, 8}

    def test_many_appends_match_shadow(self, rng):
        store = PagedKVStore(2, 4, 4, page_size=8)
        shadow = ShadowStore()
        for i in range(10_000):
            l, h = int(rng.integers(0, 2)), int(rng.integers(0, 4))
            k, v = rng.normal(size=4), rng.normal(size=4)
            store.append(l, h, k, v, i, 0.3)
            shadow.append(l, h, k, v, i, 0.3)
        for l in range(2):
            for h in range(4):
                assert_matches_shadow(store, shadow, l, h)

    def test_fractional_birth_rejected(self, rng):
        """A birth is an integer index: 2.7 raises and changes no head (it was
        stored as 2); numpy integers pass."""
        store = PagedKVStore(1, 2, 4)
        store.append(0, None, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), 1, rng.random(2))
        before = head_bytes(store)
        for head, rows, beta in ((0, (4,), 0.5), (None, (2, 4), [0.5, 0.5])):
            with pytest.raises(TypeError):
                store.append(0, head, np.ones(rows), np.ones(rows), 2.7, beta)
            assert head_bytes(store) == before and store.total_entries() == 2
        store.append(0, 0, np.ones(4), np.ones(4), np.int64(2), 0.5)
        store.append(0, None, np.ones((2, 4)), np.ones((2, 4)), np.int32(3), [0.5, 0.5])
        assert store.gather(0, 0).births.tolist() == [1, 2, 3]
        assert store.gather(0, 1).births.tolist() == [1, 3]

    def test_monotone_births_enforced(self, rng):
        store = PagedKVStore(1, 1, 2)
        store.append(0, 0, [1, 2], [3, 4], 5, 1.0)
        with pytest.raises(ValueError):
            store.append(0, 0, [1, 2], [3, 4], 5, 1.0)


class TestEvict:
    def test_evict_all_frees_everything(self, rng):
        store = PagedKVStore(1, 1, 4, page_size=4)
        for i in range(10):
            store.append(0, 0, rng.normal(size=4), rng.normal(size=4), i, 1.0)
        store.evict(0, 0, range(10))
        assert len(store.gather(0, 0)) == 0
        assert store.pages_in_use() == 0
        assert len(store.gather(0, 0)) == 0

    def test_every_other_preserves_order(self, rng):
        store = PagedKVStore(1, 1, 4, page_size=16)
        shadow = ShadowStore()
        for i in range(32):
            k, v = rng.normal(size=4), rng.normal(size=4)
            store.append(0, 0, k, v, i, 1.0)
            shadow.append(0, 0, k, v, i, 1.0)
        store.evict(0, 0, range(0, 32, 2))
        shadow.evict(0, 0, range(0, 32, 2))
        assert_matches_shadow(store, shadow, 0, 0)
        assert store.pages_in_use() == 1  # the 16 survivors moved down into one page

    def test_three_thirds_become_one_page(self, rng):
        store = PagedKVStore(1, 1, 4, page_size=3)
        for i in range(9):
            store.append(0, 0, rng.normal(size=4), rng.normal(size=4), i, 1.0)
        assert store.pages_in_use() == 3
        store.evict(0, 0, [0, 1, 3, 4, 6, 7])
        assert store.pages_in_use() == 1
        assert snapshot(store)["tables"]["0,0"]["pages"] == 1
        assert list(store.gather(0, 0).births) == [2, 5, 8]

    def test_unknown_birth_raises(self, rng):
        store = PagedKVStore(1, 1, 2)
        store.append(0, 0, [1, 1], [1, 1], 0, 1.0)
        with pytest.raises(KeyError):
            store.evict(0, 0, [7])

    def test_no_resurrection_after_evict(self, rng):
        store = PagedKVStore(1, 1, 2)
        for i in range(4):
            store.append(0, 0, [i, i], [i, i], i, 1.0)
        store.evict(0, 0, [1, 2])
        with pytest.raises(ValueError):
            store.append(0, 0, [9, 9], [9, 9], 2, 1.0)
        store.append(0, 0, [9, 9], [9, 9], 4, 1.0)
        assert list(store.gather(0, 0).births) == [0, 3, 4]


def assert_pages_follow_rows(store):
    """Every head holds exactly the pages its rows fill."""
    ps = store.page_size
    held = [-(-len(store.gather(l, h)) // ps)
            for l in range(store.layers) for h in range(store.heads)]
    assert [t["pages"] for t in snapshot(store)["tables"].values()] == held
    assert store.pages_in_use() == sum(held)


def random_script(store, shadow, rng, ops, layers=2, heads=2, dim=4, check_every=250):
    birth = 0
    for op_idx in range(ops):
        l, h = int(rng.integers(0, layers)), int(rng.integers(0, heads))
        roll = rng.random()
        present = shadow.rows.get((l, h), [])
        if roll < 0.55 or not present:
            k, v = rng.normal(size=dim), rng.normal(size=dim)
            beta = float(rng.random())
            store.append(l, h, k, v, birth, beta)
            shadow.append(l, h, k, v, birth, beta)
            birth += 1
        elif roll < 0.85:
            n = int(rng.integers(1, min(8, len(present)) + 1))
            chosen = rng.choice([r[0] for r in present], size=n, replace=False)
            store.evict(l, h, chosen)
            shadow.evict(l, h, chosen)
        else:
            assert_pages_follow_rows(store)
        if op_idx % check_every == 0:
            check_accounting(store)
            assert_matches_shadow(store, shadow, l, h)
    check_accounting(store)
    for l in range(layers):
        for h in range(heads):
            assert_matches_shadow(store, shadow, l, h)


class TestShadowEquivalence:
    def test_randomized_script(self, rng):
        store = PagedKVStore(2, 2, 4, page_size=8)
        shadow = ShadowStore()
        random_script(store, shadow, rng, ops=3000)

    def test_pages_in_use_equal_rows_after_every_op(self, rng):
        store = PagedKVStore(2, 2, 4, page_size=8)
        shadow = ShadowStore()
        random_script(store, shadow, rng, ops=1500, check_every=1)
        assert_pages_follow_rows(store)

    def test_attention_over_paged_equals_contiguous(self, rng):
        store = PagedKVStore(1, 1, 4, page_size=4)
        shadow = ShadowStore()
        for i in range(30):
            k, v = rng.normal(size=4), rng.normal(size=4)
            store.append(0, 0, k, v, i, 1.0)
            shadow.append(0, 0, k, v, i, 1.0)
        store.evict(0, 0, rng.choice(30, size=11, replace=False))
        shadow.rows[(0, 0)] = [r for r in shadow.rows[(0, 0)]
                               if r[0] in set(store.gather(0, 0).births)]
        q = rng.normal(size=4)
        snap = store.gather(0, 0)
        keys, values, births, betas = shadow.gather(0, 0)
        paged = attend_full(q, HeadCache(snap.keys, snap.values, snap.births, snap.betas))
        contiguous = attend_full(q, HeadCache(keys, values, births, betas))
        np.testing.assert_allclose(paged[1], contiguous[1], atol=1e-12)
        np.testing.assert_allclose(paged[0], contiguous[0], atol=1e-12)


def test_snapshot_is_json_serializable(rng):
    store = PagedKVStore(2, 2, 4, page_size=4)
    for i in range(10):
        store.append(0, 0, rng.normal(size=4), rng.normal(size=4), i, 1.0)
    blob = json.dumps(snapshot(store))
    parsed = json.loads(blob)
    assert parsed["tables"]["0,0"]["logical_length"] == 10


class TestCheckAccounting:
    """Corrupt one stored birth; the birth-order check catches it."""

    def store(self, rng):
        store = PagedKVStore(1, 2, 2, page_size=2)
        for i in range(6):
            store.append(0, i % 2, rng.normal(size=2), rng.normal(size=2), i, 1.0)
        store.evict(0, 0, [0, 2])     # head 0 keeps one row in one page
        check_accounting(store)
        assert store.pages_in_use() == 3
        return store

    @pytest.mark.parametrize("row, birth", [(1, 1), (2, 3), (2, 0)])
    def test_repeated_birth_rejected(self, rng, row, birth):
        """Head (0, 1) stores births [1, 3, 5]; a repeat or a step back fails."""
        store = self.store(rng)
        store._cols[2][0, 1, row] = birth     # the births array, [layer, head, row]
        with pytest.raises(AssertionError, match=r"stored entries of \(0, 1\) repeat a birth"):
            check_accounting(store)


class TestZeroCopySnapshots:
    def test_gather_returns_views_of_one_copy(self, rng):
        store = PagedKVStore(1, 1, 4, page_size=4)
        for i in range(6):
            store.append(0, 0, rng.normal(size=4), rng.normal(size=4), i, 0.5)
        a, b = store.gather(0, 0), store.gather(0, 0)
        for f in ("keys", "values", "births", "betas"):
            assert np.shares_memory(getattr(a, f), getattr(b, f)), f

    def test_snapshot_valid_until_evict_of_its_head(self, rng):
        """Appends, array growth included, and evictions of another head never
        change a snapshot; nor does an accounting check. An evict of its own
        head moves rows in place, and the snapshot taken after it matches a
        fresh copy."""
        fields = ("keys", "values", "births", "betas")
        store = PagedKVStore(2, 1, 4, page_size=4)
        shadow = ShadowStore()
        held = {0: [], 1: []}
        birth = grew = 0
        for op in range(400):
            roll = rng.random()
            h = int(rng.integers(0, 2))
            live = store.gather(h, 0).births
            if roll < 0.6 or not len(live):
                k, v, beta = rng.normal(size=4), rng.normal(size=4), float(rng.random())
                store.append(h, 0, k, v, birth, beta)
                shadow.append(h, 0, k, v, birth, beta)
                birth += 1
            elif roll < 0.9:
                gone = rng.choice(live, size=min(2, len(live)), replace=False)
                store.evict(h, 0, gone)
                shadow.evict(h, 0, gone)
                held[h] = []
            else:
                check_accounting(store)
            assert_matches_shadow(store, shadow, h, 0)
            snap = store.gather(h, 0)
            grew += bool(held[h]) and held[h][-1][0].keys.base is not snap.keys.base
            held[h].append((snap, [np.array(getattr(snap, f)) for f in fields]))
            for s, copies in held[0] + held[1]:
                for f, want in zip(fields, copies):
                    assert np.array_equal(getattr(s, f), want), f
        check_accounting(store)
        assert grew

    def test_bad_evict_leaves_store_unchanged(self, rng):
        store = PagedKVStore(1, 1, 2, page_size=2)
        for i in range(4):
            store.append(0, 0, [i, i], [i, i], i, 1.0)
        before = snapshot(store)
        # the error names the first birth, in argument order, that is missing
        # or named a second time
        for births, bad in (([1, 7], 7), ([2, 2], 2), ([3, 1, 3, 9], 3), ([9, 2, 2], 9),
                            ([-1], -1), ([4], 4)):
            with pytest.raises(KeyError, match=f"birth {bad} "):
                store.evict(0, 0, births)
            assert snapshot(store) == before
            assert list(store.gather(0, 0).births) == [0, 1, 2, 3]
        check_accounting(store)


class TestAppendLayer:
    """`append(layer, None, ...)` gives every head of a layer one entry."""

    def test_matches_one_head_appends(self, rng):
        layer_wise = PagedKVStore(2, 3, 4, page_size=4)
        head_wise = PagedKVStore(2, 3, 4, page_size=4)
        for t in range(40):      # the arrays grow past their first capacity
            for l in range(2):
                keys, values = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
                betas = rng.random(3)
                layer_wise.append(l, None, keys, values, t, betas)
                for h in range(3):
                    head_wise.append(l, h, keys[h], values[h], t, float(betas[h]))
        for l in range(2):
            for h in range(3):
                a, b = layer_wise.gather(l, h), head_wise.gather(l, h)
                for f in ("keys", "values", "births", "betas"):
                    assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f
        assert snapshot(layer_wise) == snapshot(head_wise)

    @pytest.mark.parametrize("fault", ["nan_key", "inf_value", "beta_above_one",
                                       "negative_beta", "nan_beta", "stale_birth"])
    def test_fault_in_last_head_writes_no_head(self, rng, fault):
        store = PagedKVStore(1, 3, 4, page_size=4)
        for t in range(5):
            store.append(0, None, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), t,
                         rng.random(3))
        store.append(0, 2, rng.normal(size=4), rng.normal(size=4), 7, 0.5)  # last head is ahead
        keys, values = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        betas = rng.random(3)
        birth = 6 if fault == "stale_birth" else 8
        if fault == "nan_key":
            keys[2, 1] = np.nan
        elif fault == "inf_value":
            values[2, 3] = np.inf
        elif fault != "stale_birth":
            betas[2] = {"beta_above_one": 1.5, "negative_beta": -0.1, "nan_beta": np.nan}[fault]
        before = [[np.array(getattr(store.gather(0, h), f))
                   for f in ("keys", "values", "births", "betas")] for h in range(3)]
        with pytest.raises(ValueError):
            store.append(0, None, keys, values, birth, betas)
        for h in range(3):
            after = store.gather(0, h)
            for want, f in zip(before[h], ("keys", "values", "births", "betas")):
                assert np.array_equal(getattr(after, f), want), (h, f)
        # a good append after every head's last birth still goes through
        store.append(0, None, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), 8,
                     rng.random(3))
        assert [len(store.gather(0, h)) for h in range(3)] == [6, 6, 7]

    @pytest.mark.parametrize("head, keys, values, betas", [
        (None, (3, 4), (2, 4), (2,)),     # one key row too many
        (None, (2, 5), (2, 5), (2,)),     # wrong dim
        (None, (4,), (4,), (2,)),         # one row for every head
        (None, (2, 4), (2, 4), (3,)),     # a beta too many
        (None, (2, 4), (2, 4), (1,)),     # a beta too few
        (None, (2, 4), (2, 4), ()),       # a scalar beta
        (0, (1, 4), (1, 4), ()),          # one head takes a [dim] key
        (0, (4,), (4,), (1,)),            # and one scalar beta
        (0, (3,), (3,), ()),
    ])
    def test_bad_shapes_rejected(self, head, keys, values, betas):
        store = PagedKVStore(1, 2, 4)
        with pytest.raises(ValueError):
            store.append(0, head, np.zeros(keys), np.zeros(values), 0, np.full(betas, 0.5))
        assert store.total_entries() == 0


def head_bytes(store):
    """Every head's gathered columns, as bytes."""
    return [[getattr(store.gather(l, h), f).tobytes()
             for f in ("keys", "values", "births", "betas")]
            for l in range(store.layers) for h in range(store.heads)]


class TestEvictRows:
    """Rows leave a head by birth (`evict`) or by a keep mask over every live
    entry (`retain`); both end in the same drop."""

    def test_matches_evict_by_birth(self, rng):
        by_mask = PagedKVStore(2, 2, 4, page_size=4)
        by_birth = PagedKVStore(2, 2, 4, page_size=4)
        for t in range(60):
            keys, values, betas = rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), rng.random(2)
            for store in (by_mask, by_birth):
                store.append(t % 2, None, keys, values, t, betas)
            if t % 5 == 4:
                l, h = int(rng.integers(0, 2)), int(rng.integers(0, 2))
                n = len(by_mask.gather(l, h))
                rows = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                         replace=False).tolist())
                births = by_mask.gather(l, h).births[rows].tolist()
                # the head's rows start after every earlier head's rows
                start = sum(len(by_mask.gather(a, b))
                            for a in range(2) for b in range(2) if (a, b) < (l, h))
                keep = np.ones(by_mask.total_entries(), dtype=bool)
                keep[[start + r for r in rows]] = False
                by_birth.evict(l, h, births)
                assert by_mask.retain(keep) == {(l, h): births}
                assert head_bytes(by_mask) == head_bytes(by_birth)
                assert by_mask.total_entries() == by_birth.total_entries()
        check_accounting(by_mask)

    @pytest.mark.parametrize("births", [[1, 1], [0, 2, 2], [-1], [-1, 2], [4], [0, 4],
                                        [1, 2, 3, 4]],
                             ids=["repeat", "repeat_last", "negative", "negative_first",
                                  "at_n", "past_n", "one_past_n"])
    def test_bad_rows_leave_every_head_unchanged(self, rng, births):
        """Head (1, 0) holds births 0-3, one per row; a birth named twice or
        not live raises, and no head changes."""
        store = PagedKVStore(2, 2, 4, page_size=2)
        for t in range(4):
            for l in range(2):
                store.append(l, None, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), t,
                             rng.random(2))
        before = head_bytes(store)
        with pytest.raises(KeyError, match=r"not present in \(1, 0\)"):
            store.evict(1, 0, births)
        assert head_bytes(store) == before
        assert store.total_entries() == 16
        check_accounting(store)

    def test_no_rows_change_nothing(self, rng):
        store = PagedKVStore(1, 1, 4)
        store.append(0, 0, rng.normal(size=4), rng.normal(size=4), 0, 0.5)
        before = head_bytes(store)
        store.evict(0, 0, [])
        assert store.retain(np.ones(1, dtype=bool)) == {}
        assert head_bytes(store) == before and store.total_entries() == 1

    def test_non_integer_row_rejected(self, rng):
        """A birth is an integer index: on births 0-3, [2.7] evicted birth 2
        and [np.float64(1.2)] birth 1. Now they raise and change nothing;
        numpy integers pass."""
        store = PagedKVStore(1, 1, 4)
        for t in range(4):
            store.append(0, 0, rng.normal(size=4), rng.normal(size=4), t, 0.5)
        before = head_bytes(store)
        for births in ([2.7], [np.float64(1.2)], [0, 1.5]):
            with pytest.raises(TypeError):
                store.evict(0, 0, births)
            assert head_bytes(store) == before and store.total_entries() == 4
        store.evict(0, 0, [np.int64(2)])
        assert store.gather(0, 0).births.tolist() == [0, 1, 3]


class TestRetain:
    """`retain(keep)` evicts the live entries its mask marks False."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_masks_match_shadow(self, seed):
        """Seeded random, all-True and all-False masks, over heads that may
        hold no rows, interleaved with appends that grow the arrays; checked
        after every op against the shadow store."""
        rng = np.random.default_rng(seed)
        L, H, D, ps = 2, 3, 4, 3
        store = PagedKVStore(L, H, D, page_size=ps)
        shadow = ShadowStore()
        heads = [(l, h) for l in range(L) for h in range(H)]
        kinds = {"random": 0, "all": 0, "none": 0, "empty_head": 0}
        birth = 0
        for _ in range(400):
            l, h = int(rng.integers(0, L)), int(rng.integers(0, H))
            roll = rng.random()
            if roll < 0.3:
                keys, values, betas = rng.normal(size=(H, D)), rng.normal(size=(H, D)), rng.random(H)
                store.append(l, None, keys, values, birth, betas)
                for j in range(H):
                    shadow.append(l, j, keys[j], values[j], birth, betas[j])
                birth += 1
            elif roll < 0.6:
                k, v, beta = rng.normal(size=D), rng.normal(size=D), float(rng.random())
                store.append(l, h, k, v, birth, beta)
                shadow.append(l, h, k, v, birth, beta)
                birth += 1
            else:
                n = store.total_entries()
                kind = ("all" if roll < 0.65 else "none" if roll < 0.68 else "random")
                keep = (np.ones(n, dtype=bool) if kind == "all" else
                        np.zeros(n, dtype=bool) if kind == "none" else
                        rng.random(n) < rng.random())
                kinds[kind] += 1
                kinds["empty_head"] += any(not shadow.rows.get(g) for g in heads)
                got = store.retain(keep)
                assert list(got.items()) == list(shadow.retain(keep).items())
                assert all(type(b) is int for births in got.values() for b in births)
            for a, b in heads:
                assert_matches_shadow(store, shadow, a, b)
            assert store.total_entries() == shadow.total()
            assert store.pages_in_use() == sum(-(-len(shadow.rows.get(g, [])) // ps)
                                               for g in heads)
        assert min(kinds.values()) > 0
        assert store.gather_layer(0)[1].shape[1] > ps     # the arrays grew

    @pytest.mark.parametrize("keep", [
        np.zeros(7, dtype=bool), np.zeros(9, dtype=bool), np.zeros(0, dtype=bool),
        np.zeros((2, 4), dtype=bool), np.zeros(8, dtype=np.int64), np.zeros(8),
        [0, 3], [False] * 7 + [0]],
        ids=["short", "long", "empty", "2d", "int", "float", "row_positions", "mixed_list"])
    def test_bad_mask_changes_nothing(self, rng, keep):
        store = PagedKVStore(2, 2, 4, page_size=2)
        for t in range(2):
            for l in range(2):
                store.append(l, None, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), t,
                             rng.random(2))
        before = head_bytes(store)
        with pytest.raises(ValueError, match="boolean mask of the 8 live entries"):
            store.retain(keep)
        assert head_bytes(store) == before and store.total_entries() == 8


def test_total_entries_is_a_running_count(rng):
    """Appends, layer appends, rejected appends and both evictions keep the
    count equal to the heads' lengths."""
    store = PagedKVStore(2, 3, 4)
    birth = 0
    for _ in range(300):
        roll = rng.random()
        l, h = int(rng.integers(0, 2)), int(rng.integers(0, 3))
        n = len(store.gather(l, h))
        if roll < 0.3 or not n:
            store.append(l, None, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), birth,
                         rng.random(3))
            birth += 1
        elif roll < 0.45:
            store.append(l, h, rng.normal(size=4), rng.normal(size=4), birth, 0.5)
            birth += 1
        elif roll < 0.55:
            with pytest.raises(ValueError):
                store.append(l, None, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)),
                             birth, np.full(3, 2.0))
        elif roll < 0.75:
            store.evict(l, h, store.gather(l, h).births[:int(rng.integers(1, n + 1))])
        else:
            store.retain(rng.random(store.total_entries()) < 0.5)
        assert store.total_entries() == sum(
            len(store.gather(a, b)) for a in range(2) for b in range(3))
        check_accounting(store)


class TestLayerMajorAgainstShadow:
    """Random interleavings of one-head appends, layer appends over heads of
    equal and of unequal length, growth past the capacity, `evict` and
    `retain`, checked after every op against the shadow store."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleavings(self, seed):
        rng = np.random.default_rng(seed)
        L, H, D, ps = 2, 3, 4, 4
        store = PagedKVStore(L, H, D, page_size=ps)
        shadow = ShadowStore()
        fields = ("keys", "values", "births", "betas")
        held = {(l, h): [] for l in range(L) for h in range(H)}   # views and their bytes
        layer_appends = {"equal": 0, "unequal": 0}
        birth = grew = 0
        for _ in range(500):
            l, h = int(rng.integers(0, L)), int(rng.integers(0, H))
            n = len(shadow.rows.get((l, h), []))
            roll = rng.random()
            if roll < 0.35 or not n:
                keys, values, betas = rng.normal(size=(H, D)), rng.normal(size=(H, D)), rng.random(H)
                lengths = {len(shadow.rows.get((l, j), [])) for j in range(H)}
                layer_appends["equal" if len(lengths) == 1 else "unequal"] += 1
                store.append(l, None, keys, values, birth, betas)
                for j in range(H):
                    shadow.append(l, j, keys[j], values[j], birth, betas[j])
                birth += 1
            elif roll < 0.55:
                k, v, beta = rng.normal(size=D), rng.normal(size=D), float(rng.random())
                store.append(l, h, k, v, birth, beta)
                shadow.append(l, h, k, v, birth, beta)
                birth += 1
            elif roll < 0.75:
                live = [r[0] for r in shadow.rows[(l, h)]]
                gone = rng.permutation(live)[:int(rng.integers(1, n + 1))].tolist()
                store.evict(l, h, gone)
                shadow.evict(l, h, gone)
                held[(l, h)] = []
            else:
                keep = rng.random(shadow.total()) < 0.7
                evicted = store.retain(keep)
                assert list(evicted.items()) == list(shadow.retain(keep).items())
                for g in evicted:       # a drop moves only its own head's rows
                    held[g] = []
            lengths = {(a, b): len(shadow.rows.get((a, b), [])) for a in range(L) for b in range(H)}
            for a, b in lengths:
                assert_matches_shadow(store, shadow, a, b)
            assert store.total_entries() == shadow.total()
            assert store.pages_in_use() == sum(-(-m // ps) for m in lengths.values())
            assert snapshot(store) == {"page_size": ps, "tables": {
                f"{a},{b}": {"logical_length": m, "pages": -(-m // ps)}
                for (a, b), m in lengths.items()}}
            # the layer's stacked views show the same rows as each head's gather
            counts, keys, values, births = store.gather_layer(l)
            assert counts == tuple(lengths[(l, b)] for b in range(H))
            for b, m in enumerate(counts):
                snap = store.gather(l, b)
                for got, want in ((keys[b, :m], snap.keys), (values[b, :m], snap.values),
                                  (births[b, :m], snap.births)):
                    assert got.tobytes() == want.tobytes()
            snap = store.gather(l, h)
            grew += bool(held[(l, h)]) and held[(l, h)][-1][0].keys.base is not snap.keys.base
            held[(l, h)] = held[(l, h)][-4:] + [(snap, [getattr(snap, f).tobytes() for f in fields])]
            for views in held.values():
                for old, want in views:
                    assert [getattr(old, f).tobytes() for f in fields] == want
        check_accounting(store)
        assert grew and min(layer_appends.values()) > 0

    def test_layer_views_are_read_only(self, rng):
        store = PagedKVStore(2, 2, 4)
        store.append(1, None, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), 0, rng.random(2))
        _, keys, values, births = store.gather_layer(1)
        for a in (keys, values, births):
            with pytest.raises(ValueError):
                a[0, 0] = 0
        with pytest.raises(IndexError, match=r"no such \(layer, head\): \(2, 0\)"):
            store.gather_layer(2)
