"""The per-instance BBCA rules are one library: an explored leaf and a
simulator run report a broken rule in the same words, and signature-less
ECHO/READY traffic is dropped on every path into a broadcast instance."""

from types import SimpleNamespace

import pytest

import mutants
from bbca_chain import explore as ex
from bbca_chain import harness
from bbca_chain.bbca import BbcaInstance, BbcaMsg, InstanceId, MsgKind
from bbca_chain.blocks import GENESIS_REF, make_data
from bbca_chain.chain import (
    NO_OP,
    WIRE_TYPES,
    BlockMsg,
    ChainNode,
    Committed,
    get_proposer,
)
from bbca_chain.encoding import digest32, echo_statement
from bbca_chain.identity import params_for, sign
from bbca_chain.invariants import (
    check_authorship,
    check_bbca_complete_adopt,
    check_bbca_consistency,
    check_censorship,
    check_commit_ancestry,
    check_echo_once,
    check_liveness_deadline,
    check_log_identical,
    commit_ancestry,
)
from bbca_chain.scenario import parse_config
from bbca_chain.simnet import Deliver, Scenario, Simulator, Strategy, run
from bbca_chain.trace import NOT_YET, TICK

NEVER_PROPOSED = digest32(b"never proposed")


def consistency_text(view, digests):
    return (f"bbca-consistency: view {view} decided "
            f"{sorted(d.hex()[:12] for d in digests)}")


def noadopt_text(view):
    return (f"complete-adopt: view {view} completed despite f+1 correct "
            f"noadopt probes")


def adopters_text(view, adopters):
    return (f"complete-adopt: view {view} completed with only {adopters} "
            f"end-of-run adopters")


def echo_once_text(node, count, kind, sender, view):
    return f"echo-once: node {node} sent {count} x {kind} s{sender} v{view}"


def explored_leaf():
    """Correct sender, oldest-first schedule, run to quiescence: every node
    completed b"proposal" in view 1."""
    world = ex.bbca_correct_sender()
    while world.pool:
        world.execute(0)
    return world


def audited_run():
    """n=4 failure-free run, audited from its final node state: views 1 and
    2 complete everywhere; view 1 is node 1's."""
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=2))
    assert check_bbca_consistency(result) == []
    assert check_bbca_complete_adopt(result) == []
    return result


def view_one_block(result):
    return result.nodes[0].finalized[1]


def set_view_one(node, inst):
    """Give ``node``'s view 1 the answers of ``inst``, in whichever table
    holds that view: the live instance or the dropped instance's row."""
    if 1 in node.instances:
        node.instances[1] = inst
    else:
        node.outcomes[1] = inst.outcome()


def test_clean_leaf_and_run_report_nothing():
    assert explored_leaf().check_leaf(True) == []
    result = audited_run()
    assert check_echo_once(result) == []


def runtime_adoption(world):
    world.probe_adopt[1] = NEVER_PROPOSED


def restarted_with_echo_quorum(params, instance, node_id):
    """An instance that restarted and collected an echo quorum for another
    message, so the end-of-run audit finds it adopting that message."""
    node = BbcaInstance(params, instance, node_id)
    sender, view = instance
    for signer in (0, 1, 2):
        sig = sign(signer, echo_statement(sender, view, NEVER_PROPOSED))
        node.on_echo(b"never proposed", sig, signer)
    assert node.adoptable_digest() == NEVER_PROPOSED
    return node


def audited_adoption(world):
    world.nodes[3] = restarted_with_echo_quorum(world.params,
                                                world.instance, 3)


@pytest.mark.parametrize("sabotage", [runtime_adoption, audited_adoption])
def test_consistency_has_one_wording(sabotage):
    world = explored_leaf()
    sabotage(world)
    expected = consistency_text(1, {digest32(b"proposal"), NEVER_PROPOSED})
    assert expected in world.check_leaf(False)


def test_consistency_has_one_wording_in_a_run():
    result = audited_run()
    node = result.nodes[2]
    set_view_one(node, restarted_with_echo_quorum(
        node.params, InstanceId(get_proposer(1, node.params), 1), 2))
    assert check_bbca_consistency(result) == [
        consistency_text(1, {view_one_block(result), NEVER_PROPOSED})]


def test_runtime_probe_adoptions_count_for_consistency_in_a_run():
    # The golden shape n4-equivocate-init-audit: node 1 equivocates its
    # view-1 proposal and correct nodes adopt when their timers fire.
    result = run(Scenario(n=4, seed=5, delta_post=5, delay_mode="random",
                          horizon=4,
                          strategies={1: Strategy("equivocate_init")}))
    adoptions = [(node_id, index, entry) for node_id in
                 result.scenario.correct_nodes()
                 for index, entry in enumerate(result.trace.probes[node_id])
                 if entry[2]]
    assert adoptions
    assert check_bbca_consistency(result) == []
    node_id, index, (tick, view, _, ref) = adoptions[0]
    result.trace.probes[node_id][index] = (tick, view, True, NEVER_PROPOSED)
    assert check_bbca_consistency(result) == [
        consistency_text(view, {ref, NEVER_PROPOSED})]


def test_noadopt_half_of_complete_adopt_has_one_wording():
    world = explored_leaf()
    world.probe_noadopt.update({1, 2})  # f+1 correct noadopt probes
    assert world.check_leaf(False) == [noadopt_text(1)]

    result = audited_run()
    for node_id in (1, 2):
        result.trace.probes.setdefault(node_id, []).append(
            (0, 1, False, None))
    assert check_bbca_complete_adopt(result) == [noadopt_text(1)]


def test_adopter_half_of_complete_adopt_has_one_wording():
    world = explored_leaf()
    for node in world.nodes.values():
        node.echo_sigs.clear()  # forget every echo: nothing left to adopt
    assert world.check_leaf(False) == [adopters_text(1, 0)]

    result = audited_run()
    for node_id in result.scenario.correct_nodes():
        node = result.nodes[node_id]
        if 1 in node.instances:
            node.instances[1].echo_sigs.clear()
        else:
            completed, _ = node.outcomes[1]
            node.outcomes[1] = (completed, None)
    assert check_bbca_complete_adopt(result) == [adopters_text(1, 0)]


def test_echo_once_has_one_wording(monkeypatch):
    # Protocol mutant: INIT re-arms the echo, so a sender that already
    # echoed in ``broadcast`` echoes again on its own INIT.
    on_init = BbcaInstance.on_init

    def forgetful_on_init(self, message, frm):
        self.echo = False
        return on_init(self, message, frm)

    monkeypatch.setattr(BbcaInstance, "on_init", forgetful_on_init)
    result = ex.explore(ex.bbca_correct_sender(), depth=0)
    assert [problem for problem, _ in result.violations] == [
        echo_once_text(0, 2, "ECHO", 0, 1)]

    sim = run(Scenario(n=4, seed=1, delta_post=10, horizon=2))
    assert check_echo_once(sim) == [echo_once_text(1, 2, "ECHO", 1, 1),
                                    echo_once_text(2, 2, "ECHO", 2, 2)]


# -- signature-less ECHO and READY ------------------------------------------------

UNSIGNED_KINDS = [MsgKind.ECHO, MsgKind.READY]


@pytest.mark.parametrize("kind", UNSIGNED_KINDS)
def test_chain_node_drops_signature_less_bbca_traffic(kind):
    params = params_for(4)
    leader_id = get_proposer(1, params)
    leader = ChainNode(leader_id, params)
    leader.start()
    echo = next(out for out in leader.take_outbox()
                if isinstance(out, BbcaMsg) and out.kind == MsgKind.ECHO)
    node = ChainNode(2, params)
    node.start()
    node.take_outbox()
    held = dict(node.held_certs)
    node.handle_message(leader_id,
                        echo._replace(kind=kind, sig=None))
    assert not any(isinstance(out, WIRE_TYPES)
                   for out in node.take_outbox())
    inst = node.instances[1]
    assert not inst.received_echo and not inst.received_ready
    assert node.held_certs == held


@pytest.mark.parametrize("kind", UNSIGNED_KINDS)
def test_bbca_world_drops_signature_less_traffic(kind):
    world = ex.bbca_correct_sender()
    world.pool.insert(0, Deliver(1, 0,
                                 BbcaMsg(kind, world.instance, b"proposal")))
    world.execute(0)
    node = world.nodes[1]
    assert not node.received_echo and not node.received_ready
    assert len(world.pool) == 8  # the sender's INIT and ECHO, to 4 nodes
    while world.pool:
        world.execute(0)
    assert world.check_leaf(True) == []


def test_commit_ancestry_names_a_block_committed_before_its_reference():
    scenario = Scenario(n=4, seed=1, delta_post=10, horizon=3)
    assert check_commit_ancestry(run(scenario)) == []
    # Node 2's last commit, a view-3 block, references earlier commits of
    # its batch; moving it to the front of the batch commits it before
    # them.  The simulator checks each batch as it drains it.
    sim = Simulator(scenario)
    dag = sim.nodes[2].dag
    order_under = dag.order_under
    moved = []

    def view_3_block_first(backbone, already_committed):
        batch = order_under(backbone, already_committed)
        if dag.get(backbone).view != 3:
            return batch
        moved.append(batch[-1])
        return [batch[-1], *batch[:-1]]

    dag.order_under = view_3_block_first
    result = sim.run()
    assert moved == [result.nodes[2].finalized[3]]
    assert check_commit_ancestry(result) == [
        f"ancestry: node 2 committed {moved[0].hex()[:12]} before one of its "
        f"references"]


def test_commit_ancestry_checks_every_batch_of_an_event_together():
    # One event commits two batches, and the first holds a block that
    # references one of the second: each batch alone is in a right order,
    # the event's log is not.
    lower = make_data(1, 1, {GENESIS_REF}, b"lower")
    upper = make_data(2, 1, {lower.digest}, b"upper")
    records = [Committed(1, (upper,)), Committed(2, (lower,))]
    expected = [f"ancestry: node 0 committed {upper.digest.hex()[:12]} "
                f"before one of its references"]

    def committed_node():
        node = ChainNode(0, params_for(4))
        node.committed_set.update((lower.digest, upper.digest))
        node.outbox += records
        return node

    node = committed_node()
    assert commit_ancestry(node, [lower, upper]) == []
    assert commit_ancestry(node, [upper]) == []
    assert commit_ancestry(node, [lower]) == []
    assert commit_ancestry(node, [upper, lower]) == expected
    # Both drivers check the event's blocks, not each record's.
    sim = Simulator(Scenario(n=4, seed=1))
    sim.nodes[0] = committed_node()
    sim._drain(0)
    assert sim.trace.ancestry == expected
    world = ex.chain_two_views()
    world.nodes[0] = committed_node()
    world._drain(0)
    assert world.ancestry == expected
    assert expected[0] in world.check_leaf()


# -- authorship -------------------------------------------------------------------

FORGED = make_data(0, 1, [GENESIS_REF], b"forged-by-3")


def forged_run(forgery=BlockMsg(FORGED)):
    """n=4, seed 1, horizon 4: byzantine node 3 (``delay_own`` with no lag)
    also sends, with its first message, ``forgery``: by default a DATA
    block in node 0's name that node 0 never made."""
    config = parse_config({"name": "forged", "n": 4, "seed": 1, "horizon": 4,
                           "adversary": {"3": {"strategy": "delay_own"}}})
    sim = Simulator(config.scenario)
    outgoing = sim.adversaries[3].outgoing
    forgeries = [(forgery, sim.everyone, 0)]

    def forging(msg):
        sends = outgoing(msg) + forgeries
        forgeries.clear()
        return sends

    sim.adversaries[3].outgoing = forging
    return config, sim.run()


def test_authorship_reports_a_forged_data_block_at_each_correct_node(
        monkeypatch):
    mutants.apply(monkeypatch, "data_from_any_sender")
    _config, result = forged_run()
    assert [result.nodes[i].committed_log[1] for i in range(3)] == \
        [FORGED.digest] * 3
    assert check_authorship(result) == [
        f"authorship: node {i} committed DATA block "
        f"{FORGED.digest.hex()[:12]} that node 0 never made"
        for i in range(3)]


def test_a_forged_data_block_is_not_committed():
    config, result = forged_run()
    assert not any(FORGED.digest in node.committed_log
                   for node in result.nodes.values())
    assert not any(harness.evaluate(result, config).values())


def bbca_forged_run(view=1):
    """``forged_run`` with the forged block riding in an INIT of ``view``'s
    instance: unsigned, so any node can send one in the leader's name."""
    bid = InstanceId(get_proposer(view, params_for(4)), view)
    return forged_run(BbcaMsg(MsgKind.INIT, bid, FORGED.encoded))


@pytest.mark.parametrize("view", [1, 2, 3])
def test_a_forged_data_block_in_a_bbca_message_is_not_committed(view):
    config, result = bbca_forged_run(view)
    assert not any(FORGED.digest in node.committed_log
                   for node in result.nodes.values())
    assert not any(harness.evaluate(result, config).values())


@pytest.mark.parametrize("view", [1, 2, 3])
def test_authorship_reports_a_data_block_a_bbca_message_filed(monkeypatch,
                                                               view):
    mutants.apply(monkeypatch, "bbca_files_any_block")
    _config, result = bbca_forged_run(view)
    assert all(FORGED.digest in node.committed_log
               for node in result.nodes.values())
    assert check_authorship(result) == [
        f"authorship: node {i} committed DATA block "
        f"{FORGED.digest.hex()[:12]} that node 0 never made"
        for i in range(3)]


# -- scenario-scoped checks that a clean run never trips --------------------------

def scoped_run():
    """Criterion 4's synchronous liveness case: n=4, node 1 silent, one
    payload from node 0 at tick 15; every check it selects holds."""
    outcome = harness.run_config(parse_config({
        "name": "liveness-B", "n": 4, "seed": 2, "delta_post": 10,
        "gst": 0, "t_max": 40, "horizon": 5,
        "adversary": {"1": {"strategy": "silent"}},
        "payloads": [{"node": 0, "tick": 15}],
        "expect": {"liveness": True, "censorship_cutoff": 15,
                   "log_identical": True}}))
    assert outcome.ok
    return outcome.result, outcome.config


def test_log_identical_reports_logs_that_differ():
    result, _ = scoped_run()
    result.nodes[2].committed_log.pop()
    lengths = {i: len(result.nodes[i].committed_log)
               for i in result.scenario.correct_nodes()}
    assert check_log_identical(result) == [
        f"log-identical: logs differ at run end (lengths {lengths})"]


def test_liveness_reports_a_run_without_a_post_gst_view():
    result, _ = scoped_run()
    result.trace.view_entries.clear()
    assert check_liveness_deadline(result) == [
        "liveness: no wholly post-GST view with a correct leader"]


def test_liveness_reports_an_unfinalized_target_view():
    # View 1 is the silent node's, so view 2 is the target.
    result, _ = scoped_run()
    result.nodes[0].finalized[2] = NO_OP
    assert check_liveness_deadline(result) == [
        "liveness: post-GST view 2 did not finalize a block"]


def test_liveness_reports_a_missing_or_late_commit():
    result, _ = scoped_run()
    scenario = result.scenario
    deadline = scenario.gst + scenario.timer_ticks + 4 * scenario.delta_post
    # Node 2's commit tick is erased in the packed row, and node 3 commits
    # again one tick past the deadline; ``committed`` reads only each
    # block's digest.
    ref = result.nodes[0].finalized[2]
    table = result.trace.block_ticks
    TICK.pack_into(table.rows, table.refs[ref] + TICK.size * (1 + 2),
                   NOT_YET)
    result.trace.committed(3, deadline + 1, 2, (SimpleNamespace(digest=ref),))
    assert check_liveness_deadline(result) == [
        "liveness: node 2 never committed view 2",
        f"liveness: node 3 committed view 2 at {deadline + 1}, past "
        f"deadline {deadline}"]


def test_censorship_reports_a_payload_missing_from_a_log():
    result, config = scoped_run()
    (tick, node_id, ref), = result.trace.injected
    result.nodes[3].committed_set.discard(ref)
    assert check_censorship(result, config) == [
        f"censorship: payload {ref.hex()[:12]} from node {node_id} at "
        f"{tick} missing from node 3's log"]


def test_validity_reports_a_correct_node_that_did_not_complete():
    world = explored_leaf()
    world.nodes[2].completed = None
    assert world.check_leaf(True) == [
        "validity: not every correct node completed"]
