import copy
import hashlib
import random
import re
import weakref
from collections import Counter

import pytest

import mutants
from bbca_chain import explore as ex
from bbca_chain.chain import NO_OP
from bbca_chain.identity import ConfigError, params_for
from bbca_chain.simnet import Deliver, Scenario, Simulator


def test_depth_zero_single_deterministic_leaf():
    result = ex.explore(ex.bbca_correct_sender(), depth=0,
                        check_validity=True)
    assert result.leaves == 1
    assert result.ok and not result.partial


def test_correct_sender_small_depth():
    result = ex.explore(ex.bbca_correct_sender(), depth=3,
                        check_validity=True)
    assert result.leaves > 100
    assert result.ok


def test_correct_sender_with_probes_no_validity_requirement():
    # Probing can abort nodes, so only the safety properties are asserted.
    result = ex.explore(ex.bbca_correct_sender(probes=(1, 2)), depth=3)
    assert result.ok


def test_equivocating_sender_consistency():
    result = ex.explore(ex.bbca_equivocating_sender(), depth=3)
    assert result.leaves > 100
    assert result.ok


def test_crashed_nodes_consistency():
    result = ex.explore(ex.bbca_crashed(), depth=3)
    assert result.ok


def test_replay_with_probes():
    result = ex.explore(ex.bbca_replay_with_probes(), depth=3)
    assert result.leaves > 100
    assert result.ok


def test_probes_first_schedule_forbids_completion():
    # Deterministic schedule: both probes fire before any delivery, so no
    # correct node may ever complete, even with a replaying byzantine node.
    world = ex.bbca_replay_with_probes()
    probe_indexes = [i for i, step in enumerate(world.pool)
                     if isinstance(step, ex.Probe)]
    for offset, index in enumerate(probe_indexes):
        world.execute(index - offset)
    assert len(world.probe_noadopt) == world.params.f + 1
    while world.pool:
        world.execute(0)
    assert all(node.completed is None for node in world.nodes.values())
    assert world.check_leaf(False) == []


def test_leaf_cap_marks_partial():
    result = ex.explore(ex.bbca_correct_sender(), depth=4, max_leaves=50)
    assert result.partial
    assert result.leaves == 50


def test_leaf_cap_equal_to_the_tree_is_not_partial():
    # ``bbca_correct_sender`` at depth 4 has 6,072 leaves: a cap that
    # reaches the last of them ends nothing early; one fewer does.
    result = ex.explore(ex.bbca_correct_sender(), depth=4, max_leaves=6072)
    assert (result.leaves, result.partial) == (6072, False)
    result = ex.explore(ex.bbca_correct_sender(), depth=4, max_leaves=6071)
    assert (result.leaves, result.partial) == (6071, True)


def _visiting_order(result):
    """A digest of every violation and its witness, in the order found."""
    return hashlib.sha256("\n".join(
        f"{problem}|{' '.join(witness)}"
        for problem, witness in result.violations).encode()).hexdigest()


# mutant, case, depth, leaf cap -> leaves, violations, partial, order digest.
# A mutant makes leaves report, so the witnesses pin the order in which the
# DFS visits them, branch 0 first.
VISITING_ORDER = [
    (("ready_despite_abort", ex.bbca_replay_with_probes, 3, 200_000),
     (1208, 1208, False, "ca71cdc1e30c6b687e3ebc0dcad8d3d4"
                         "f8875f1cdcf7ed5f4011924ed58faec3")),
    (("ready_despite_abort", ex.bbca_replay_with_probes, 3, 300),
     (300, 300, True, "fca280124c3c5b2f7e8b7761f48ad877"
                      "7ffe1c79dad03fe827381b570d9889ba")),
    (("reversed_commit_batches", ex.chain_two_views, 2, 200_000),
     (88, 704, False, "b521ab467b75efd4f9c90a2171e9f889"
                      "1e3fe7bffee64d230b52f3cb42a9b983")),
]


@pytest.mark.parametrize("run, expected", VISITING_ORDER,
                         ids=["bbca", "bbca-capped", "chain"])
def test_visiting_order_is_pinned(monkeypatch, run, expected):
    name, builder, depth, max_leaves = run
    mutants.apply(monkeypatch, name)
    result = ex.explore(builder(), depth, max_leaves=max_leaves)
    assert (result.leaves, len(result.violations), result.partial,
            _visiting_order(result)) == expected


@pytest.mark.parametrize("builder, depth", [(ex.bbca_correct_sender, 4),
                                            (ex.chain_two_views, 3)])
def test_clones_alive_at_once_stay_within_depth_plus_one(monkeypatch,
                                                         builder, depth):
    # A branch is cloned only when its turn comes, so the DFS holds at most
    # one clone per level on top of the one running.
    alive, most = weakref.WeakSet(), 0
    for cls in (ex.BbcaWorld, ex.ChainWorld):
        def tracked(world, clone=cls.clone):
            nonlocal most
            twin = clone(world)
            alive.add(twin)
            most = max(most, len(alive))
            return twin
        monkeypatch.setattr(cls, "clone", tracked)
    result = ex.explore(builder(), depth)
    assert result.leaves > 1 and result.ok
    assert 0 < most <= depth + 1


def test_chain_two_views_prefix_safe():
    result = ex.explore(ex.chain_two_views(), depth=2)
    assert result.leaves > 50
    assert result.ok


def test_witness_is_reported_on_violation():
    # Sabotage a world so the checker has something to report: pretend a
    # node completed a message that was never broadcast.
    world = ex.bbca_correct_sender()
    while world.pool:
        world.execute(0)
    world.sent_message = b"something else entirely"
    problems = world.check_leaf(False)
    assert any("integrity" in p for p in problems)


def test_chain_leaf_reports_agreement_and_prefix_violations():
    world = ex.chain_two_views()
    while world.pool:
        world.execute(0)
    assert world.check_leaf() == []
    world.nodes[0].finalized[1] = NO_OP
    world.nodes[1].committed_log.reverse()
    problems = world.check_leaf()
    assert any(p.startswith("agreement") for p in problems)
    assert any(p.startswith("prefix") for p in problems)


def test_safety_violation_ends_the_schedule_as_a_leaf():
    # Node 0 holds view 1 as a skip, so committing view 1's block raises;
    # the branch stops there and its leaf reports the violation's text.
    world = ex.chain_two_views()
    world.nodes[0].finalized[1] = NO_OP
    result = ex.explore(world, depth=0)
    assert result.leaves == 1
    assert [problem for problem, _ in result.violations] == [
        "safety: conflicting finalization for view 1: 'NO-OP' vs "
        "Block(BACKBONE v=1 a=1 a6286e26eef6)"]
    assert result.violations[0][1][-1] == "deliver(2->0)"


def test_timer_token_for_a_missing_node_rejected():
    with pytest.raises(ConfigError,
                       match="timer token for node 9, out of range for n=4"):
        ex.chain_two_views(timeout_node=9)


def test_both_drivers_route_the_start_alike():
    # Under uniform delays the simulator queues, from its start, the same
    # deliveries that a fresh chain world pools.
    sim = Simulator(Scenario(n=4, horizon=2))
    sim._start()
    queued = [event for bucket in sim._queue.values() for event in bucket
              if type(event) is Deliver]
    world = ex.ChainWorld(params_for(4), horizon=2, timer_tokens={})
    assert queued and Counter(world.pool) == Counter(queued)


# -- structured clones ----------------------------------------------------------

def _forked_chain_world(seed=2):
    """A two-view chain world stopped, by a seeded random schedule, at the
    first step where a node holds a block whose ancestry has not arrived."""
    world = ex.chain_two_views()
    rng = random.Random(seed)
    while not any(node.dag.pending for node in world.nodes.values()):
        assert world.pool, "schedule reached quiescence without a pending block"
        world.execute(rng.randrange(len(world.pool)))
    return world


def _pending_node(world):
    return next(node for node in world.nodes.values() if node.dag.pending)


def _immutable(value):
    # A tuple, records included, is immutable only if its members are: a
    # record that carried a list, dict or set into a clone is caught.
    if isinstance(value, tuple):
        return all(_immutable(member) for member in value)
    params = getattr(type(value), "__dataclass_params__", None)
    return (value is None or callable(value)
            or isinstance(value, (int, str, bytes, frozenset))
            or (params is not None and params.frozen))


def _shared_mutables(a, b, path="clone"):
    """Paths at which ``a`` and ``b`` hold one and the same mutable object,
    apart from the ``memo`` of pure results, which clones share on
    purpose."""
    if _immutable(a):
        return []
    if a is b:
        return [path]
    if isinstance(a, dict):
        pairs = [(f"{path}[{key!r}]", a[key], b[key]) for key in a if key in b]
    elif isinstance(a, (list, tuple)):
        pairs = [(f"{path}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, (set, bytearray)):
        pairs = []  # members are hashable or bytes, hence immutable here
    else:
        pairs = [(f"{path}.{name}", value, getattr(b, name))
                 for name, value in vars(a).items() if name != "memo"]
    return [shared for sub, x, y in pairs
            for shared in _shared_mutables(x, y, sub)]


def _dag_state(dag):
    return (set(dag.delivered), dict(dag.pending), dict(dag._missing),
            dict(dag._waiters), dag.tips(), set(dag.committed))


def _instance_state(inst):
    return (dict(inst.pending), dict(inst.echo_sigs), dict(inst.ready_sigs),
            set(inst.received_echo), set(inst.received_ready),
            inst.echo, inst.ready, inst.abort, inst.completed)


def _node_state(node):
    return (node.view,
            dict(node.finalized),
            list(node.committed_log), bytes(node.committed_rows),
            _dag_state(node.dag),
            dict(node.awaiting),
            {view: (inst.echo, inst.ready, inst.abort, inst.completed)
             for view, inst in node.instances.items()},
            dict(node.outcomes), node.probed, node.proposed,
            node.emitted_nvb)


def _world_state(world):
    return ({i: _node_state(node) for i, node in world.nodes.items()},
            list(world.pool), [ex.describe(step) for step in world.executed],
            world.broken, world.ancestry)


def _run_world(world, seed):
    rng = random.Random(seed)
    while world.pool:
        world.execute(rng.randrange(len(world.pool)))


def _addressee(step):
    return step.node if isinstance(step, ex.Timer) else step.to


def _run_node(node, steps, seed):
    """Run the given steps addressed to ``node`` in a seeded order."""
    steps = list(steps)
    random.Random(seed).shuffle(steps)
    for step in steps:
        if isinstance(step, ex.Timer):
            node.handle_timer(node.view)
        else:
            node.handle_message(step.frm, step.msg)


def _all_blocks(world):
    """Every block a node holds as the world runs to its end, gathered at
    each step: a commit drops the bodies it commits."""
    finished = world.clone()
    blocks = {}
    while True:
        for node in finished.nodes.values():
            blocks.update(node.dag.delivered)
            blocks.update(node.dag.pending)
        if not finished.pool:
            return blocks
        finished.execute(0)


def _busy_instance(world):
    """A broadcast instance holding message state, and the pool's messages
    for it."""
    for node in world.nodes.values():
        for inst in node.instances.values():
            msgs = [(step.frm, step.msg) for step in world.pool
                    if isinstance(step, Deliver) and step.to == node.id
                    and getattr(step.msg, "instance", None) == inst.instance]
            if inst.pending and msgs:
                return inst, msgs
    raise AssertionError("no instance with message state and traffic")


def _fork_cases():
    """name -> (original, drive(target, seed), state) per cloneable piece."""
    world = _forked_chain_world()
    node = _pending_node(world)
    # The nested containers a clone must copy are all populated here.
    assert node.dag.pending and node.dag._waiters
    assert any(per_view for view, per_view in node.new_view_blocks.items()
               if view > 0)
    assert node.instances
    node_steps = [step for step in world.pool if _addressee(step) == node.id]
    blocks = list(_all_blocks(world).values())

    def insert_all(dag, seed):
        for block in random.Random(seed).sample(blocks, len(blocks)):
            dag.insert(block)

    inst, inst_msgs = _busy_instance(world)

    def deliver_all(target, seed):
        for frm, msg in random.Random(seed).sample(inst_msgs, len(inst_msgs)):
            target.handle_message(frm, msg)

    return {"ChainWorld": (world, _run_world, _world_state),
            "ChainNode": (node,
                          lambda target, seed: _run_node(target, node_steps,
                                                         seed),
                          _node_state),
            "DagStore": (node.dag, insert_all, _dag_state),
            "BbcaInstance": (inst, deliver_all, _instance_state)}


FORK_CASES = ["ChainWorld", "ChainNode", "DagStore", "BbcaInstance"]


@pytest.mark.parametrize("case", FORK_CASES)
def test_clone_has_the_same_attributes(case):
    original, _, _ = _fork_cases()[case]
    assert vars(original.clone()).keys() == vars(original).keys()


@pytest.mark.parametrize("case", FORK_CASES)
def test_clone_shares_no_mutable_container(case):
    original, _, _ = _fork_cases()[case]
    twin = original.clone()
    assert _shared_mutables(twin, original) == []
    assert getattr(twin, "memo", None) is getattr(original, "memo", None)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", FORK_CASES)
def test_clone_is_independent_and_equivalent(case, seed):
    original, drive, state = _fork_cases()[case]
    snapshot = copy.deepcopy(original)
    before = state(snapshot)
    assert state(original) == before
    twin = original.clone()
    drive(twin, seed)
    assert state(twin) != before, "the schedule did nothing"
    assert state(original) == before
    drive(snapshot, seed)
    assert state(twin) == state(snapshot)


# -- per-step cost and witnesses ---------------------------------------------------

def test_digest_work_does_not_grow_with_leaf_count(monkeypatch):
    calls = 0
    blake2b = hashlib.blake2b

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return blake2b(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    result = ex.explore(ex.bbca_correct_sender(), depth=3,
                        check_validity=True)
    assert result.leaves == 624 and result.ok
    # 21,292 steps here handle one message and its two statements; each is
    # digested once, not once per delivery.
    assert calls <= 64


WITNESS_STEP = re.compile(r"deliver\(\d+->\d+\)|probe\(\d+\)|timer\(\d+\)")


def _assert_readable(violations):
    assert violations
    for _, witness in violations:
        assert isinstance(witness, tuple) and witness
        assert all(isinstance(step, str) and WITNESS_STEP.fullmatch(step)
                   for step in witness)


def test_explore_reports_readable_bbca_witnesses():
    world = ex.bbca_correct_sender(probes=(1,))
    world.sent_message = b"something else entirely"
    result = ex.explore(world, depth=2)
    assert all(problem.startswith("integrity")
               for problem, _ in result.violations)
    _assert_readable(result.violations)
    assert any("probe(1)" in witness for _, witness in result.violations)


def test_explore_reports_readable_chain_witnesses(monkeypatch):
    monkeypatch.setattr(ex, "agreement",
                        lambda nodes, correct: ["agreement: forced"])
    result = ex.explore(ex.chain_two_views(), depth=1)
    assert len(result.violations) == result.leaves
    _assert_readable(result.violations)
    assert any("timer(3)" in witness for _, witness in result.violations)
