from bbca_chain import explore as ex
from bbca_chain.chain import NO_OP


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
    probe_indexes = [i for i, act in enumerate(world.pool)
                     if act.kind == "probe"]
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
