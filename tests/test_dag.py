import random

import pytest

from bbca_chain.blocks import (
    GENESIS_BLOCK,
    GENESIS_NEW_VIEW,
    GENESIS_REF,
    EvidenceKind,
    Justification,
    make_backbone,
    make_data,
)
from bbca_chain.dag import DagStore, UnknownBlockError
from bbca_chain.simnet import Scenario, run


def data(author, view, refs, payload):
    return make_data(author, view, refs, payload)


def linked(*parents, author=0, view=1, payload=b""):
    return data(author, view, [p.digest for p in parents], payload)


def brute_force_closure(blocks_by_ref, root):
    """Independent transitive-closure oracle: expand until a fixed point."""
    closure = {root}
    while True:
        grown = set(closure)
        for ref in closure:
            grown.update(blocks_by_ref[ref].refs)
        if grown == closure:
            return closure
        closure = grown


def is_linear_extension(order, blocks_by_ref):
    seen = set()
    for ref in order:
        if any(parent not in seen for parent in blocks_by_ref[ref].refs
               if parent in blocks_by_ref):
            return False
        seen.add(ref)
    return True


def random_dag(rng, size):
    """A connected random DAG rooted at genesis."""
    blocks = [GENESIS_BLOCK]
    for index in range(size):
        count = rng.randint(1, min(3, len(blocks)))
        parents = rng.sample(blocks, count)
        blocks.append(data(rng.randrange(4), rng.randrange(1, 6),
                           [p.digest for p in parents], b"%d" % index))
    return blocks


# -- insert / causal delivery ---------------------------------------------------

def test_insert_genesis_delivers_immediately():
    store = DagStore()
    assert store.insert(GENESIS_BLOCK) == [GENESIS_BLOCK]


def test_buffering_until_ancestry_arrives():
    store = DagStore()
    b1 = data(0, 1, [], b"b1")
    b2 = linked(b1, payload=b"b2")
    assert store.insert(b2) == []
    assert b2.digest not in store
    assert store.insert(b1) == [b1, b2]
    assert b2.digest in store


def test_duplicate_insert_is_empty():
    store = DagStore()
    b1 = data(0, 1, [], b"b1")
    assert store.insert(b1) == [b1]
    assert store.insert(b1) == []


def test_diamond_inserted_backwards():
    store = DagStore()
    b1 = data(0, 1, [], b"b1")
    b2 = linked(b1, author=1, payload=b"b2")
    b3 = linked(b1, author=2, payload=b"b3")
    b4 = linked(b2, b3, author=3, payload=b"b4")
    assert store.insert(b4) == []
    assert store.insert(b3) == []
    assert store.insert(b2) == []
    delivered = store.insert(b1)
    assert len(delivered) == 4
    by_ref = {b.digest: b for b in (b1, b2, b3, b4)}
    assert is_linear_extension([b.digest for b in delivered], by_ref)


@pytest.mark.parametrize("b_sorts_first", [True, False],
                         ids=["b_before_w", "w_before_b"])
def test_cascade_delivers_a_waiter_after_its_last_missing_ref(b_sorts_first):
    # W waits on A and on B, and B itself waits on A.  Inserting A wakes B
    # and W together; W must still come after B, and only once, whichever
    # of the two digests the cascade visits first.
    a = data(0, 1, [], b"a")
    for salt in range(64):
        b = linked(a, author=1, payload=b"b%d" % salt)
        w = linked(a, b, author=2, payload=b"w")
        if (b.digest < w.digest) == b_sorts_first:
            break
    else:
        pytest.fail("no salt gives the wanted digest order")
    store = DagStore()
    assert store.insert(w) == []
    assert store.insert(b) == []
    assert store.insert(a) == [a, b, w]
    assert not store.pending


def test_self_reference_rejected():
    store = DagStore()
    block = data(0, 1, [GENESIS_REF], b"x")
    # A real digest can never appear among its own preimage's refs; plant
    # the cached digest to exercise the guard.
    block.__dict__["digest"] = GENESIS_REF
    with pytest.raises(ValueError):
        store.insert(block)


def test_convergence_under_insertion_orders():
    rng = random.Random(7)
    blocks = random_dag(rng, 24)
    reference = None
    for _ in range(10):
        shuffled = blocks[:]
        rng.shuffle(shuffled)
        store = DagStore()
        for block in shuffled:
            store.insert(block)
        state = (sorted(store.delivered), store.tips())
        assert not store.pending
        if reference is None:
            reference = state
        assert state == reference


# -- order_under ------------------------------------------------------------------

def test_order_under_bare_backbone():
    store = DagStore()
    store.insert(GENESIS_BLOCK)
    b1 = linked(GENESIS_BLOCK, payload=b"b1")
    store.insert(b1)
    assert store.order_under(b1.digest, {GENESIS_REF}) == [b1.digest]


def test_order_under_unknown_backbone_errors():
    store = DagStore()
    with pytest.raises(UnknownBlockError):
        store.order_under(GENESIS_REF, set())


def test_order_under_deterministic_across_stores():
    rng = random.Random(1234)
    blocks = random_dag(rng, 20)
    orders = []
    for _ in range(2):
        shuffled = blocks[:]
        rng.shuffle(shuffled)
        store = DagStore()
        for block in shuffled:
            store.insert(block)
        orders.append(store.order_under(blocks[-1].digest, set()))
    assert orders[0] == orders[1]


def test_order_under_is_linear_extension_ending_at_backbone():
    rng = random.Random(5150)
    for round_index in range(20):
        blocks = random_dag(rng, 20)
        store = DagStore()
        for block in blocks:
            store.insert(block)
        by_ref = {b.digest: b for b in blocks}
        target = blocks[-1]
        order = store.order_under(target.digest, set())
        assert order[-1] == target.digest
        assert set(order) == brute_force_closure(by_ref, target.digest)
        assert is_linear_extension(order, by_ref)


def test_order_under_composes_across_commits():
    # Committing view by view concatenates into one duplicate-free linear
    # extension of the union of ancestries.
    rng = random.Random(31337)
    blocks = random_dag(rng, 25)
    store = DagStore()
    for block in blocks:
        store.insert(block)
    by_ref = {b.digest: b for b in blocks}
    first = rng.choice(blocks[1:13])
    second = linked(first, blocks[-1], author=3, view=9, payload=b"2nd")
    store.insert(second)
    by_ref[second.digest] = second

    committed = set()
    log = []
    for backbone in (first, second):
        part = store.order_under(backbone.digest, committed)
        log.extend(part)
        committed.update(part)
    assert len(log) == len(set(log))
    assert set(log) == brute_force_closure(by_ref, second.digest)
    assert is_linear_extension(log, by_ref)


def brute_force_order(blocks_by_ref, members):
    """Kahn's algorithm with the smallest (view, author, digest) taken first,
    by a linear scan: the order's definition, written without a heap."""
    order = []
    remaining = set(members)
    while remaining:
        ready = [ref for ref in remaining
                 if not any(parent in remaining
                            for parent in blocks_by_ref[ref].refs)]
        pick = min(ready, key=lambda ref: (blocks_by_ref[ref].view,
                                           blocks_by_ref[ref].author, ref))
        order.append(pick)
        remaining.discard(pick)
    return order


def test_order_under_matches_definition_across_successive_commits():
    # Any backbone's full ancestry joined to a downward-closed committed set
    # stays downward-closed, so every call below meets the precondition.
    rng = random.Random(4242)
    for round_index in range(8):
        blocks = random_dag(rng, 40)
        store = DagStore()
        for block in blocks:
            store.insert(block)
        by_ref = {b.digest: b for b in blocks}
        committed = {GENESIS_REF} if round_index % 2 else set()
        backbones = rng.sample(blocks[1:], 8)
        for backbone in backbones:
            expected = brute_force_order(
                by_ref, brute_force_closure(by_ref, backbone.digest)
                - committed)
            assert store.order_under(backbone.digest, committed) == expected
            committed.update(expected)


# -- commit ------------------------------------------------------------------------

def test_collected_bodies_still_count_as_delivered():
    store = DagStore()
    store.insert(GENESIS_BLOCK)
    payload = linked(GENESIS_BLOCK, payload=b"tx")
    backbone = make_backbone(1, 1, Justification(EvidenceKind.COMPLETE,
                                                 (GENESIS_NEW_VIEW,)),
                             extra_refs={payload.digest, GENESIS_REF})
    store.insert(GENESIS_NEW_VIEW)
    store.insert(payload)
    store.insert(backbone)
    order = store.order_under(backbone.digest, store.committed)
    blocks = store.commit(backbone.digest)
    # The committed blocks come back in ``order_under`` order, and their
    # digests are committed.
    assert [block.digest for block in blocks] == order
    assert blocks[-1] is backbone and payload in blocks
    assert store.committed == set(order)
    # Every body is gone, the backbone's too, and the committed set holds
    # the blocks' own digests, not equal copies from ``refs``.
    assert not store.delivered.keys() & store.committed
    for block in blocks:
        with pytest.raises(UnknownBlockError):
            store.get(block.digest)
    held = {id(ref) for ref in store.committed}
    assert all(id(block.digest) in held for block in blocks)
    # The digests still answer ``in``, ``holds`` and ``insert``; a late
    # block on top of a collected one is delivered at once.
    assert payload.digest in store and store.holds(payload.digest)
    assert store.insert(payload) == []
    late = linked(payload, backbone, view=2, payload=b"late")
    assert store.insert(late) == [late]
    assert late.digest in store.tips()
    assert store.order_under(late.digest, store.committed) == [late.digest]


# -- tips ------------------------------------------------------------------------

def test_tips_match_brute_force_after_every_insert():
    rng = random.Random(2718)
    for _ in range(6):
        blocks = random_dag(rng, 30)
        rng.shuffle(blocks)
        store = DagStore()
        for block in blocks:
            store.insert(block)
            referenced = {parent for held in store.delivered.values()
                          for parent in held.refs}
            assert store.tips() == sorted(
                ref for ref in store.delivered if ref not in referenced)
        assert not store.pending


# -- cost of ordering over a long run ------------------------------------------

def test_order_under_lookups_grow_with_committed_blocks(monkeypatch):
    # Ordering must cost in proportion to what it commits, not to the
    # history behind it: count every `delivered` lookup made inside
    # `order_under` over a whole run.
    counter = {"active": False, "lookups": 0, "committed": 0}

    class CountingDict(dict):
        def _count(self):
            if counter["active"]:
                counter["lookups"] += 1

        def __getitem__(self, key):
            self._count()
            return dict.__getitem__(self, key)

        def __contains__(self, key):
            self._count()
            return dict.__contains__(self, key)

        def get(self, key, default=None):
            self._count()
            return dict.get(self, key, default)

    original_init = DagStore.__init__
    original_order = DagStore.order_under

    def counting_init(self):
        original_init(self)
        self.delivered = CountingDict(self.delivered)

    def counting_order(self, backbone, already_committed):
        counter["active"] = True
        try:
            out = original_order(self, backbone, already_committed)
        finally:
            counter["active"] = False
        counter["committed"] += len(out)
        return out

    monkeypatch.setattr(DagStore, "__init__", counting_init)
    monkeypatch.setattr(DagStore, "order_under", counting_order)
    result = run(Scenario(n=4, seed=3, delta_post=5, delay_mode="random",
                          horizon=200))
    assert not result.failed
    assert min(node.last_committed for node in result.nodes.values()) >= 190
    assert counter["committed"] > 0
    assert counter["lookups"] <= 4 * counter["committed"], counter
