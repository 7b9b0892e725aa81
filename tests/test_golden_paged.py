"""Golden paged-store contents: rows, per-head lengths and page counts.

`tests/data/golden_paged.json` holds seeded append/evict scripts replayed on a
2-layer, 2-head `PagedKVStore` at page sizes 1, 3 and 16. A script appends,
evicts the oldest, the newest or a random set of a head's births (in random
order), evicts duplicate and missing births, and appends stale births. After
every op it stores one line: a sha256 of conftest's `snapshot(store)` (each
head's length and pages held), the op's result as JSON (null, or the name of
the exception it raised) and `pages_in_use()`. Per script it also stores one
sha256 over the gathered arrays of the touched head and `total_entries()`
after every op. All of it must match exactly, and `check_accounting(store)`
(each head's stored births strictly increase) must pass after every op.

Golden decode checks page counts only through `peak_pages`; this file pins
them after every op.

Regenerate only when a layout change is intended and explained:

    PYTHONPATH=src python tests/test_golden_paged.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from retainkv.paged_cache import PagedKVStore

from conftest import check_accounting, snapshot

GOLDEN = Path(__file__).with_name("data") / "golden_paged.json"
LAYERS, HEADS, DIM = 2, 2, 3
OPS = 250
# name -> (page_size, seed, append probability)
SCRIPTS = {
    "page1": (1, 11, 0.5),
    "page3": (3, 12, 0.5),
    "page16": (16, 13, 0.55),
}


def _sha_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _ops(rng: np.random.Generator, store: PagedKVStore, p_append: float):
    """Yield (layer, head, op) for each op of one script; `op()` runs it."""
    birth = 0
    while True:
        l, h = int(rng.integers(0, LAYERS)), int(rng.integers(0, HEADS))
        live = store.gather(l, h).births.tolist()
        roll = rng.random()
        if roll < p_append or not live:
            k, v = rng.normal(size=DIM), rng.normal(size=DIM)
            beta = float(rng.random())
            if rng.random() < 0.04 and birth:
                b = int(rng.integers(0, birth))      # stale: never after the max
                yield l, h, lambda: store.append(l, h, k, v, b, beta)
            else:
                yield l, h, lambda: store.append(l, h, k, v, birth, beta)
                birth += 1
            continue
        n = int(rng.integers(1, len(live) + 1))
        kind = rng.random()
        if kind < 0.2:
            gone = live[:n]
        elif kind < 0.35:
            gone = live[-n:]
        elif kind < 0.85:
            gone = [int(b) for b in rng.permutation(live)[:n]]
        elif kind < 0.92:
            gone = live[:1] + [live[0]]               # duplicate
        else:
            dead = [b for b in range(birth) if b not in live]
            gone = live[:1] + ([int(rng.choice(dead))] if dead else [birth + 7])
        yield l, h, lambda: store.evict(l, h, gone)


def replay(name: str) -> dict:
    page_size, seed, p_append = SCRIPTS[name]
    store = PagedKVStore(LAYERS, HEADS, DIM, page_size=page_size)
    rng = np.random.default_rng(seed)
    ops = []
    digest = hashlib.sha256()
    for (l, h, op), _ in zip(_ops(rng, store, p_append), range(OPS)):
        try:
            result = op()
        except (KeyError, ValueError) as exc:
            result = type(exc).__name__
        check_accounting(store)
        ops.append(f"{_sha_json(snapshot(store))} {json.dumps(result)} {store.pages_in_use()}")
        snap = store.gather(l, h)
        for a in (snap.keys, snap.values, snap.births, snap.betas):
            digest.update(np.ascontiguousarray(a).tobytes())
        digest.update(repr(store.total_entries()).encode())
    return {"ops": ops, "arrays": digest.hexdigest()}


def compute() -> dict:
    return {name: replay(name) for name in SCRIPTS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_store_matches_golden(name, golden):
    want = golden[name]
    got = replay(name)
    for i, (g, w) in enumerate(zip(got["ops"], want["ops"])):
        assert g == w, f"op {i} of {name} differs"
    assert len(got["ops"]) == len(want["ops"])
    assert got["arrays"] == want["arrays"]


def test_scripts_reach_every_outcome(golden):
    """The scripts exercise each result kind, so the golden pins all of them."""
    results = [json.loads(op.split(" ", 1)[1].rsplit(" ", 1)[0])
               for script in golden.values() for op in script["ops"]]
    kinds = {r if isinstance(r, str) else type(r).__name__ for r in results}
    assert kinds == {"NoneType", "KeyError", "ValueError"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_paged.py --write")
    payload = compute()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} scripts to {GOLDEN}")
