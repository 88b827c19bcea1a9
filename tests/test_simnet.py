import hashlib
import heapq
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bbca_chain.bbca import BbcaInstance, BbcaMsg, InstanceId, MsgKind
from bbca_chain.blocks import GENESIS_BLOCK, CertKind, decode_block
from bbca_chain.chain import NO_OP, BlockMsg, ChainNode, SafetyViolation
from bbca_chain.dag import DagStore
from bbca_chain.encoding import EncodingError
from bbca_chain.identity import ConfigError, params_for
from bbca_chain.invariants import (
    check_agreement,
    check_commit_ancestry,
    check_delay_soundness,
    check_echo_once,
    check_growth,
    check_prefix_consistency,
    check_view_sync,
    echo_once,
    trips_to_commit,
)
from bbca_chain.simnet import (
    Adversary,
    DelayModel,
    Deliver,
    PreGstPolicy,
    Scenario,
    Simulator,
    Strategy,
    randints,
    run,
)
from bbca_chain.trace import _DIGEST_CHUNK_LINES, BbcaSends, Trace, _describe

from test_golden_digests import SHAPES


def run_kept(scenario):
    """``run(scenario)`` with every trace record kept, so that the trace
    can ``export_lines()``."""
    sim = Simulator(scenario)
    sim.trace.kept = []
    return sim.run()


def assert_clean(result):
    assert not result.failed, result.trace.failure
    for check in (check_agreement, check_prefix_consistency,
                  check_commit_ancestry, check_delay_soundness,
                  check_echo_once):
        assert check(result) == [], check.__name__


def test_failure_free_run_commits_all_views():
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=3))
    assert result.trace.stop_reason == "quiesced"
    for node in result.nodes.values():
        assert node.last_committed == 3
        assert all(node.finalized[v] is not NO_OP for v in (1, 2, 3))
    assert_clean(result)


def test_same_seed_reproduces_identical_trace():
    scenario = Scenario(n=4, seed=9, delta_post=6, delay_mode="random",
                        gst=30, pre_gst=PreGstPolicy("adversarial", 25),
                        horizon=4)
    first = run_kept(scenario)
    second = run_kept(scenario)
    assert first.trace.digest() == second.trace.digest()
    assert first.trace.export_lines() == second.trace.export_lines()


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_golden_digests_hold_in_a_fresh_process(hash_seed):
    # Campaign workers are separate processes, each with its own string-hash
    # seed; a set or dict order that leaks into the trace would show here.
    names = ["n4-uniform", "n7-equivocate-data-payloads"]
    tests = Path(__file__).resolve().parent
    script = ("import sys\n"
              "from test_golden_digests import SHAPES\n"
              "from bbca_chain.simnet import run\n"
              "for name in sys.argv[1:]:\n"
              "    print(run(SHAPES[name][0]).trace.digest())\n")
    env = os.environ | {
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", script, *names], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [SHAPES[name][1] for name in names]


def test_different_seed_changes_random_schedule():
    base = dict(n=4, delta_post=6, delay_mode="random", horizon=3)
    first = run(Scenario(seed=1, **base))
    second = run(Scenario(seed=2, **base))
    assert first.trace.digest() != second.trace.digest()


def test_backbone_commits_in_three_trips():
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=3))
    node = result.nodes[0]
    for view in (1, 2, 3):
        assert trips_to_commit(result, node.finalized[view]) == 3


def test_data_block_one_hop_before_proposal_takes_four_trips():
    # View 2's proposal goes out at 3d; the payload enters the net at 2d.
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=3,
                          injections=((20, 0),)))
    (tick, _node, ref), = result.trace.injected
    assert tick == 20
    assert trips_to_commit(result, ref) == 4
    # It rides inside the new-view block embedded in view 2's proposal, so
    # it commits at the very tick the view-2 backbone commits.
    backbone = result.nodes[0].finalized[2]
    assert (result.trace.commit_ticks.get(ref)
            == result.trace.commit_ticks.get(backbone))


def test_data_blocks_flow_through_a_stalled_view():
    # Payloads submitted while the leader is silent commit as soon as a
    # later view completes.
    result = run(Scenario(n=4, seed=6, delta_post=10, horizon=3,
                          strategies={1: Strategy("silent")},
                          injections=((15, 0), (40, 2), (70, 3))))
    assert_clean(result)
    for _tick, node_id, ref in result.trace.injected:
        for other in result.scenario.correct_nodes():
            assert ref in result.nodes[other].committed_set, (node_id, other)


def test_trips_error_when_never_committed():
    # Payload injected after the last view has no later backbone to carry it.
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=1,
                          injections=((200, 0),)))
    (_, _, ref), = result.trace.injected
    with pytest.raises(ValueError, match="not committed by every"):
        trips_to_commit(result, ref)
    with pytest.raises(ValueError, match="never entered the network"):
        trips_to_commit(result, bytes(32))


def test_silent_leader_view_skipped_everywhere():
    result = run(Scenario(n=4, seed=3, delta_post=10, horizon=4,
                          strategies={1: Strategy("silent")}))
    logs = set()
    for node_id in result.scenario.correct_nodes():
        node = result.nodes[node_id]
        assert node.finalized[1] is NO_OP
        assert node.last_committed == 4
        logs.add(tuple(node.committed_log))
    assert len(logs) == 1
    assert_clean(result)


def test_equivocating_leader_adopt_path():
    result = run(Scenario(n=4, seed=5, delta_post=10, t_max=60, horizon=3,
                          strategies={1: Strategy("equivocate_init")}))
    assert_clean(result)
    finalized = {result.nodes[i].finalized[1]
                 for i in result.scenario.correct_nodes()}
    assert len(finalized) == 1
    causes = {result.trace.view_entries[i][2][1]
              for i in result.scenario.correct_nodes()}
    assert causes <= {"adopt_probe", "adopt_recv", "noadopt_quorum"}
    assert causes & {"adopt_probe", "adopt_recv"}


def test_withheld_ready_still_completes_fast():
    result = run(Scenario(n=4, seed=2, delta_post=10, horizon=3,
                          strategies={3: Strategy("withhold_ready")}))
    assert_clean(result)
    for node_id in result.scenario.correct_nodes():
        assert result.nodes[node_id].last_committed == 3


def test_replay_adversary_harmless():
    result = run(Scenario(n=4, seed=8, delta_post=5, delay_mode="random",
                          gst=20, pre_gst=PreGstPolicy("adversarial", 15),
                          horizon=4, strategies={2: Strategy("replay")}))
    assert_clean(result)


def test_delay_own_adversary_bounded_run():
    result = run(Scenario(n=4, seed=4, delta_post=5, delay_mode="random",
                          horizon=4,
                          strategies={2: Strategy("delay_own", max_delay=40)}))
    assert_clean(result)


def test_equivocating_data_blocks_commit_deterministically():
    result = run(Scenario(n=4, seed=11, delta_post=5, delay_mode="random",
                          horizon=4, injections=((5, 2), (9, 2)),
                          strategies={2: Strategy("equivocate_data")}))
    assert_clean(result)


def listing_ticks(rows):
    """A ``DelayModel.delivery_ticks`` that also appends each (entry tick,
    delivery tick) it draws to ``rows``."""
    delivery_ticks = DelayModel.delivery_ticks

    def listing(model, sent, count, rng):
        ticks = delivery_ticks(model, sent, count, rng)
        rows.extend((sent, tick) for tick in ticks)
        return ticks

    return listing


def test_pre_gst_drop_policy_delivers_at_gst(monkeypatch):
    rows = []
    monkeypatch.setattr(DelayModel, "delivery_ticks", listing_ticks(rows))
    scenario = Scenario(n=4, seed=6, delta_post=10, gst=100,
                        pre_gst=PreGstPolicy("drop"), horizon=3)
    result = run(scenario)
    assert check_delay_soundness(result) == []
    assert any(entry < 100 for entry, _ in rows)
    for entry, tick in rows:
        if entry < 100:
            assert tick >= 100
    assert_clean(result)


def test_delay_soundness_reports_only_late_deliveries(monkeypatch):
    # gst 30, delta_post 5: a message entering before 30 may land by 35, one
    # entering at 30 or later within 5 ticks.  Node 2 lags its own sends.
    def bound(entry):
        return entry + 5 if entry >= 30 else 35

    sends = []  # (frm, targets, entry, lag) of every transmit, in order
    transmit = Simulator._transmit
    delivery_ticks = DelayModel.delivery_ticks
    model_bound = DelayModel.bound
    bounds = []  # every entry tick ``DelayModel.bound`` was asked about

    def tracking_transmit(sim, frm, msg, targets, lag):
        sends.append((frm, targets, sim.now + lag, lag))
        transmit(sim, frm, msg, targets, lag)

    def last_copy_late(model, sent, count, rng):
        # The first copy lands on time at its bound, the last one tick late.
        ticks = delivery_ticks(model, sent, count, rng)
        if count:
            ticks[0] = bound(sent)
            ticks[-1] = bound(sent) + 1
        return ticks

    def counted_bound(model, sent):
        bounds.append(sent)
        return model_bound(model, sent)

    monkeypatch.setattr(Simulator, "_transmit", tracking_transmit)
    monkeypatch.setattr(DelayModel, "delivery_ticks", last_copy_late)
    monkeypatch.setattr(DelayModel, "bound", counted_bound)
    sim = Simulator(Scenario(
        n=4, seed=3, gst=30, delta_post=5, delay_mode="random",
        pre_gst=PreGstPolicy("adversarial", 20), horizon=3,
        strategies={2: Strategy("delay_own", max_delay=20)}))
    result = sim.run()
    assert any(entry < 30 for _, _, entry, _ in sends)  # pre-GST sends
    assert any(frm == 2 and lag for frm, _, _, lag in sends)  # lagged ones
    assert all(len(targets) > 1 for _, targets, _, _ in sends)
    assert check_delay_soundness(result) == [
        f"delay: message {frm}->{targets[-1]} entered at {entry} but "
        f"delivered at {bound(entry) + 1} (bound {bound(entry)})"
        for frm, targets, entry, _ in sends]
    assert bounds == [entry for _, _, entry, _ in sends]  # once per send
    # A send to no one schedules nothing and reports nothing.
    late, scheduled = list(result.trace.delays), len(result.trace.deliveries)
    sim._transmit(0, BlockMsg(GENESIS_BLOCK), (), 0)
    assert result.trace.delays == late
    assert len(result.trace.deliveries) == scheduled


def test_view_sync_bounds_hold_post_gst():
    for seed in range(10):
        result = run(Scenario(n=4, seed=seed, delta_post=5,
                              delay_mode="random", gst=40,
                              pre_gst=PreGstPolicy("adversarial", 30),
                              horizon=5, strategies={1: Strategy("silent")}))
        assert check_view_sync(result) == []
        assert_clean(result)


def test_fault_budget_enforced_at_construction():
    with pytest.raises(ConfigError):
        Scenario(n=4, strategies={1: Strategy("silent"),
                                  2: Strategy("silent")})


@pytest.mark.parametrize("build", [
    lambda: Scenario(n=4, t_max=-5),  # timers would fire before `now`
    lambda: Strategy("delay_own", max_delay=-1),  # empty lag range
    lambda: PreGstPolicy("adversarial", 0),  # empty pre-GST delay range
    lambda: Strategy("silent", max_delay=7),  # a lag no strategy but delay_own
    lambda: PreGstPolicy("drop", 9),  # a delay the drop policy never draws
    lambda: Scenario(n=4, pre_gst=PreGstPolicy("drop")),  # never read at gst 0
    lambda: Scenario(n=4, injections=((5, 9),)),  # no node 9 to inject at
    lambda: Scenario(n=4, injections=((-1, 0),)),  # before the run starts
], ids=["t_max", "delay_own_max_delay", "pre_gst_max_delay",
        "unused_strategy_max_delay", "unused_drop_max_delay",
        "pre_gst_without_gst", "injection_node", "injection_tick"])
def test_bad_timing_rejected_at_construction(build):
    with pytest.raises(ConfigError):
        build()


def test_max_ticks_stops_the_run():
    result = run_kept(Scenario(n=4, seed=1, delta_post=10, horizon=8,
                               max_ticks=25))
    trace = result.trace
    assert trace.stop_reason == "max_ticks"
    assert trace.export_lines()[-1] == "stop max_ticks"
    # The first event past tick 25 is popped but not processed.
    assert trace.events_processed == 20
    assert max(r[1] for r in trace.kept if r[0] == "deliver") == 20


@pytest.mark.parametrize("name", ["n4-payloads-audit",
                                  "n4-equivocate-init-audit",
                                  "n7-replay-audit"])
def test_adoptable_digest_is_what_a_forced_probe_answers(name, monkeypatch):
    # The end-of-run Complete-Adopt checks read ``adoptable_digest`` in
    # place of probing, and a dropped instance's row in place of the
    # instance; a probe of a copy must answer the same.
    def probed_row(inst):
        twin = inst.clone()
        cert = twin.probe()
        return (twin.outcome()[0],
                None if cert is None else cert.block_digest)

    # Each final instance, probed on a copy just before it is dropped.
    before_drop = {}
    final = BbcaInstance.final

    def probing_final(inst):
        answer = final(inst)
        if answer:
            before_drop[inst.node, inst.instance.view] = probed_row(inst)
        return answer

    monkeypatch.setattr(BbcaInstance, "final", probing_final)
    result = run(SHAPES[name][0])
    rows = 0
    for node_id in result.scenario.correct_nodes():
        node = result.nodes[node_id]
        for inst in node.instances.values():
            assert inst.adoptable_digest() == probed_row(inst)[1]
        for view, row in node.outcomes.items():
            assert row == before_drop[node_id, view]
            rows += 1
    assert rows


def test_trace_lines_and_summary_present():
    result = run_kept(Scenario(n=4, seed=1, delta_post=10, horizon=2))
    lines = result.trace.export_lines()
    prefixes = {line.split(" ", 1)[0] for line in lines}
    assert {"send", "deliver", "view", "commit", "summary", "stop"} <= prefixes


def test_echo_once_flags_a_node_that_sends_twice(monkeypatch):
    # Sending node 0's BBCA messages a second time makes it look like node
    # 0 echoed and readied twice in every instance it took part in.
    scenario = Scenario(n=4, seed=1, delta_post=10, horizon=2)
    assert check_echo_once(run(scenario)) == []
    transmit = Simulator._transmit

    def twice(sim, frm, msg, targets, lag):
        transmit(sim, frm, msg, targets, lag)
        if frm == 0 and isinstance(msg, BbcaMsg):
            transmit(sim, frm, msg, targets, lag)

    monkeypatch.setattr(Simulator, "_transmit", twice)
    problems = check_echo_once(run(scenario))
    assert problems
    assert all(p.startswith("echo-once: node 0 ") for p in problems)
    assert any("ECHO" in p for p in problems)
    assert any("READY" in p for p in problems)


def test_bbca_sends_keeps_a_mask_per_instance_and_counts_repeats():
    echo, ready = MsgKind.ECHO, MsgKind.READY
    near, far = InstanceId(2, 2), InstanceId(1, 10**9)
    sends = BbcaSends()
    for frm, kind, instance in ((0, echo, near), (3, ready, near),
                                (0, echo, far)):
        sends.add(frm, kind, instance)
    # Bit 2 * node + kind - ECHO: node 0's ECHO is bit 0, node 3's READY
    # bit 7.  A far view costs one entry, as a near one does.
    assert sends.first == {near: 0b1000_0001, far: 0b1}
    assert sends.repeats == {}
    for frm, kind, instance in ((0, echo, far), (0, echo, far),
                                (0, echo, near), (3, echo, near)):
        sends.add(frm, kind, instance)
    assert sends.first == {near: 0b1100_0001, far: 0b1}
    assert sends.repeats == {(0, echo, far): 3, (0, echo, near): 2}
    assert echo_once(sends.repeats) == [
        "echo-once: node 0 sent 3 x ECHO s1 v1000000000",
        "echo-once: node 0 sent 2 x ECHO s2 v2"]
    # ``echo_once`` never reports an INIT, so none is counted.
    sim = Simulator(Scenario(n=4, seed=1))
    init = BbcaMsg(MsgKind.INIT, near, b"not a block")
    for _ in range(2):
        sim._transmit(0, init, sim.everyone, 0)
    assert sim.trace.bbca_sends.first == {}
    assert sim.trace.bbca_sends.repeats == {}


@pytest.mark.parametrize("strategy", [
    Strategy("equivocate_init"), Strategy("delay_own", max_delay=40),
    Strategy("replay")], ids=lambda strategy: strategy.name)
def test_send_ticks_are_those_every_bbca_send_would_give(strategy):
    # Only INITs and BLOCKs are decoded for ``send_ticks``: an ECHO or
    # READY follows an INIT with the same bytes, so it would add nothing.
    result = run_kept(Scenario(
        n=4, seed=3, delta_post=5, delay_mode="random", gst=20,
        pre_gst=PreGstPolicy("adversarial", 15), horizon=4,
        strategies={1: strategy}))
    result.trace.flush()
    ticks = {}
    for record in result.trace.kept:
        if record[0] != "send":
            continue
        _, entry, _frm, msg = record
        if isinstance(msg, BlockMsg):
            blocks = [msg.block]
        else:
            try:
                block = decode_block(msg.message)
            except EncodingError:
                continue
            blocks = [block]
            if block.justification is not None:
                blocks += block.justification.new_view_blocks
        for block in blocks:
            ticks.setdefault(block.digest, entry)
    assert ticks == dict(result.trace.send_ticks.items())


def test_each_proposal_is_processed_once_per_node(monkeypatch):
    # The golden shape n7-equivocate-data-payloads.  Every proposal reaches
    # a node inside INIT, each ECHO and each READY, with its embedded
    # new-view blocks; only the first copy is new information.
    inserted: dict[int, Counter] = {}  # id(store) -> digest -> insert calls
    insert = DagStore.insert

    def counting_insert(self, block):
        inserted.setdefault(id(self), Counter())[block.digest] += 1
        return insert(self, block)

    # Per (node, view): the adopt certificates an echo quorum handed back,
    # and the ``available_adopt`` and ``probe`` calls.
    handed, adopt_calls, probes = Counter(), Counter(), Counter()
    handle_message = BbcaInstance.handle_message
    available_adopt = BbcaInstance.available_adopt
    probe = BbcaInstance.probe

    def counting_handle(self, frm, msg):
        outs, cert = handle_message(self, frm, msg)
        if cert is not None and cert.kind == CertKind.ADOPT:
            handed[self.node, self.instance.view] += 1
        return outs, cert

    def counting_adopt(self):
        adopt_calls[self.node, self.instance.view] += 1
        return available_adopt(self)

    def counting_probe(self):
        probes[self.node, self.instance.view] += 1
        return probe(self)

    monkeypatch.setattr(DagStore, "insert", counting_insert)
    monkeypatch.setattr(BbcaInstance, "handle_message", counting_handle)
    monkeypatch.setattr(BbcaInstance, "available_adopt", counting_adopt)
    monkeypatch.setattr(BbcaInstance, "probe", counting_probe)
    result = run(Scenario(n=7, seed=14, delta_post=5, delay_mode="random",
                          horizon=4, injections=((10, 2), (12, 0)),
                          strategies={2: Strategy("equivocate_data")}))
    assert not result.failed
    assert len(inserted) == 7
    repeated = {digest.hex()[:12]: count for per_store in inserted.values()
                for digest, count in per_store.items() if count > 1}
    assert repeated == {}
    # Each node and view builds its certificate once, when the quorum
    # forms; beyond that, only a probe builds one from the instance.
    assert handed and max(handed.values()) == 1
    assert adopt_calls == probes


def test_predicate_runs_once_per_node_view_and_message(monkeypatch):
    # The golden shape n7-equivocate-init: twin proposals reach every node
    # in INIT, ECHO and READY copies; only the first copy of each needs the
    # validity check.
    calls = Counter()  # (node, view, message) -> predicate calls
    init = BbcaInstance.__init__

    def counting_init(self, *args):
        init(self, *args)
        predicate, node, view = self.predicate, self.node, self.instance.view

        def counted(message):
            calls[(node, view, message)] += 1
            return predicate(message)

        self.predicate = counted

    monkeypatch.setattr(BbcaInstance, "__init__", counting_init)
    scenario, digest = SHAPES["n7-equivocate-init"]
    result = run(scenario)
    assert result.trace.digest() == digest
    assert calls and max(calls.values()) == 1
    twins = Counter((node, view) for node, view, _ in calls)
    assert max(twins.values()) == 2  # some node checked both twins


@pytest.mark.xfail(strict=True, reason=(
    "the next leader's own new-view block never leaves it when its proposal "
    "justifies with another node's block, so the nodes referencing it stall "
    "(ROADMAP item 1)"))
def test_equivocating_init_leader_does_not_stall_commits():
    # The golden shape n7-equivocate-init: nodes 0, 3, 4, 5 and 6 hold
    # 23-24 blocks pending and commit nothing although views 2-4 complete.
    result = run(Scenario(n=7, seed=13, delta_post=5, delay_mode="random",
                          horizon=4,
                          strategies={1: Strategy("equivocate_init")}))
    assert check_growth(result) == []


def test_equivocate_init_passes_a_ready_and_undecodable_bytes_unchanged():
    # Only a decodable INIT or sender ECHO gets a twin: the sender's own
    # READY, and an INIT whose bytes are no block, go to everyone as sent.
    everyone = (0, 1, 2, 3)
    adversary = Adversary(1, Strategy("equivocate_init"), everyone,
                          random.Random(0))
    bid = InstanceId(1, 1)
    init, echo = BbcaInstance(params_for(4), bid, 1).broadcast(
        GENESIS_BLOCK.encoded)
    assert len(adversary.outgoing(init)) == 2  # decodable: twinned
    ready = BbcaMsg(MsgKind.READY, bid, init.message, echo.sig)
    garbled = BbcaMsg(MsgKind.INIT, bid, b"not a block")
    with pytest.raises(EncodingError):
        decode_block(garbled.message)
    for msg in (ready, garbled):
        assert adversary.outgoing(msg) == [(msg, everyone, 0)]


# -- delay draws ----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_randints_equal_stdlib_randint(seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    bounds = list(range(1, 65))
    random.Random(-seed).shuffle(bounds)
    for high in bounds:
        for low in (0, 1, 17):
            count = high % 4 + 1
            assert randints(ours, low, low + high - 1, count) == \
                [stdlib.randint(low, low + high - 1) for _ in range(count)]
    assert ours.getstate() == stdlib.getstate()


def test_randints_rejects_an_empty_range_like_randint():
    with pytest.raises(ValueError):
        random.Random(0).randint(1, 0)
    with pytest.raises(ValueError):
        randints(random.Random(0), 1, 0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_delay_draws_interleave_like_stdlib_randint(seed):
    # Post-GST, pre-GST and delay_own draws share one generator, as in a run;
    # each must consume it exactly as the randint formulation would.
    msg = BlockMsg(GENESIS_BLOCK)
    gst = 100
    for bound in range(1, 65):
        pre_bound = 65 - bound
        ours, stdlib = random.Random(seed), random.Random(seed)
        model = DelayModel(Scenario(
            n=4, delta_post=bound, delay_mode="random", gst=gst,
            pre_gst=PreGstPolicy("adversarial", pre_bound)))
        drop = DelayModel(Scenario(n=4, delta_post=bound, delay_mode="random",
                                   gst=gst, pre_gst=PreGstPolicy("drop")))
        lagger = Adversary(0, Strategy("delay_own", max_delay=bound - 1),
                           (0, 1, 2, 3), ours)
        cap = gst + bound
        for sent in (3, gst + 7, 50):
            assert model.delivery_ticks(sent, 4, ours) == [
                min(sent + stdlib.randint(1, pre_bound), cap)
                if sent < gst else sent + stdlib.randint(1, bound)
                for _ in range(4)]
            [(_, _, lag)] = lagger.outgoing(msg)
            assert lag == stdlib.randint(0, bound - 1)
            assert drop.delivery_ticks(sent, 3, ours) == [
                max(sent, gst) + stdlib.randint(1, bound) for _ in range(3)]
        assert ours.getstate() == stdlib.getstate()


def test_uniform_post_gst_delay_draws_nothing():
    rng = random.Random(5)
    state = rng.getstate()
    model = DelayModel(Scenario(n=4, delta_post=7))
    assert model.delivery_ticks(12, 3, rng) == [19, 19, 19]
    assert rng.getstate() == state


# -- trace export -----------------------------------------------------------------

def _reference_line(record):
    """The generic record format, with a message's text in its place."""
    if record[0] in ("send", "deliver"):
        record = record[:-1] + (_describe(record[-1], {}),)
    return " ".join(map(str, record))


def _violating_run(monkeypatch):
    """The golden shape n4-uniform with a violation forced on node 2's
    twentieth message."""
    handle = ChainNode.handle_message
    seen = Counter()

    def failing_handle(self, frm, msg):
        seen[self.id] += 1
        if self.id == 2 and seen[2] == 20:
            raise SafetyViolation("forced for the export test")
        return handle(self, frm, msg)

    monkeypatch.setattr(ChainNode, "handle_message", failing_handle)
    return run_kept(SHAPES["n4-uniform"][0])


def test_export_formats_every_record_kind_like_the_generic_join(monkeypatch):
    results = [run_kept(scenario) for scenario, _ in SHAPES.values()]
    results.append(_violating_run(monkeypatch))
    kinds = set()
    for result in results:
        trace = result.trace
        lines = trace.export_lines()
        assert lines[:-1] == [_reference_line(r) for r in trace.kept]
        assert lines[-1] == f"stop {trace.stop_reason}"
        kinds.update(record[0] for record in trace.kept)
    assert kinds == {"send", "deliver", "view", "commit", "probe", "timer",
                     "inject", "violation", "summary"}


def _joined_digest(trace):
    return hashlib.sha256("\n".join(trace.export_lines()).encode()).hexdigest()


def _hand_built_trace(line_count):
    """``line_count`` lines: send/deliver pairs of distinct messages and
    timer records, then the stop line; one message per three lines.  The
    records are flushed as the simulator flushes them."""
    trace = Trace(stop_reason="horizon", kept=[])
    msg = None
    for index in range(line_count - 1):
        if index % 3 == 0:
            msg = BbcaMsg(MsgKind.ECHO, InstanceId(index % 4, index),
                          b"message %d" % index)
            trace.record("send", index, 0, msg)
        elif index % 3 == 1:
            trace.record("deliver", index, 1, 0, msg)
        else:
            trace.record("timer", index, 2, index)
        if len(trace.records) >= _DIGEST_CHUNK_LINES:
            trace.flush()
    return trace


@pytest.mark.parametrize("line_count", [
    1, _DIGEST_CHUNK_LINES - 1, _DIGEST_CHUNK_LINES, _DIGEST_CHUNK_LINES + 1,
    4 * _DIGEST_CHUNK_LINES],
    ids=["no_records", "chunk_minus_one", "chunk", "chunk_plus_one",
         "more_messages_than_the_memo_holds"])
def test_streamed_digest_equals_digest_of_joined_lines(line_count):
    trace = _hand_built_trace(line_count)
    lines = trace.export_lines()
    assert len(lines) == line_count
    assert lines[:-1] == [_reference_line(r) for r in trace.kept]
    assert trace.digest() == _joined_digest(trace)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_golden_digest_is_the_digest_of_the_captured_lines(name):
    scenario, pinned = SHAPES[name]
    trace = run_kept(scenario).trace
    first = trace.digest()
    assert first == _joined_digest(trace) == pinned
    assert trace.digest() == first


def test_export_lines_needs_the_records_kept():
    trace = run(Scenario(n=4, seed=1, delta_post=10, horizon=2)).trace
    with pytest.raises(ValueError, match="kept"):
        trace.export_lines()


def test_a_run_holds_at_most_one_chunk_plus_one_event_of_records(
        monkeypatch):
    dispatch = Simulator._dispatch
    held = []  # (records held after an event, records it added)

    def checked(sim, event):
        before = len(sim.trace.records)
        node_id = dispatch(sim, event)
        after = len(sim.trace.records)
        held.append((after, after - before))
        return node_id

    monkeypatch.setattr(Simulator, "_dispatch", checked)
    result = run_kept(Scenario(n=4, seed=1, delta_post=5,
                               delay_mode="random", horizon=100))
    trace = result.trace
    assert all(after < _DIGEST_CHUNK_LINES + added for after, added in held)
    assert len(trace.kept) > 50 * _DIGEST_CHUNK_LINES  # flushed many times
    assert trace.digest() == _joined_digest(trace)


def test_the_message_memo_lives_for_one_flush():
    # Each message is freed once its records are hashed, so a later
    # message may reuse its id(); a memo kept across flushes would then
    # describe the new message with the old one's text.
    trace = Trace(stop_reason="horizon")
    lines, ids = [], []
    for index in range(64):
        msg = BbcaMsg(MsgKind.ECHO, InstanceId(index % 4, index),
                      b"message %d" % index)
        ids.append(id(msg))
        trace.record("send", index, 0, msg)
        trace.record("deliver", index, 1, 0, msg)
        lines += [_reference_line(record) for record in trace.records]
        del msg
        trace.flush()
    assert len(set(ids)) < len(ids)  # some id was reused
    lines.append("stop horizon")
    assert trace.digest() == hashlib.sha256(
        "\n".join(lines).encode()).hexdigest()


def test_deliveries_count_the_scheduled_rows(monkeypatch):
    rows = []  # (entry, tick) of every scheduled copy
    monkeypatch.setattr(DelayModel, "delivery_ticks", listing_ticks(rows))
    for scenario, digest in SHAPES.values():
        rows.clear()
        result = run(scenario)
        assert result.trace.digest() == digest
        assert len(result.trace.deliveries) == len(rows) > 0


# -- scheduling order ---------------------------------------------------------

def _run_against_a_heap(monkeypatch, scenario):
    """Run ``scenario`` and check that every dispatched event is the one a
    reference schedule pops: the same pushes, replayed through ``heapq``
    with a sequence counter.  Returns the result, the dispatched (tick,
    event) pairs and the reference heap left at the stop."""
    pushes = []  # (tick, event), in scheduling order
    dispatched = []  # (tick, event, pushes made before it)
    drawn = []  # delivery ticks of the transmit in progress
    push, transmit = Simulator._push, Simulator._transmit
    dispatch, delivery_ticks = Simulator._dispatch, DelayModel.delivery_ticks

    def recording_push(sim, tick, event):
        pushes.append((tick, event))
        push(sim, tick, event)

    def listing_ticks(model, sent, count, rng):
        drawn.append(delivery_ticks(model, sent, count, rng))
        return drawn[-1]

    def recording_transmit(sim, frm, msg, targets, lag):
        transmit(sim, frm, msg, targets, lag)
        pushes.extend((tick, Deliver(to, frm, msg))
                      for to, tick in zip(targets, drawn.pop()))

    def recording_dispatch(sim, event):
        dispatched.append((sim.now, event, len(pushes)))
        return dispatch(sim, event)

    monkeypatch.setattr(Simulator, "_push", recording_push)
    monkeypatch.setattr(Simulator, "_transmit", recording_transmit)
    monkeypatch.setattr(Simulator, "_dispatch", recording_dispatch)
    monkeypatch.setattr(DelayModel, "delivery_ticks", listing_ticks)
    result = run(scenario)
    heap, seq, fed = [], itertools.count(), 0
    for now, event, pushed in dispatched:
        for tick, pending in pushes[fed:pushed]:
            heapq.heappush(heap, (tick, next(seq), pending))
        fed = pushed
        tick, _, expected = heapq.heappop(heap)
        assert (now, type(event), event) == (tick, type(expected), expected)
    for tick, pending in pushes[fed:]:
        heapq.heappush(heap, (tick, next(seq), pending))
    return result, [(now, event) for now, event, _ in dispatched], heap


def test_uniform_delays_run_each_tick_in_scheduling_order(monkeypatch):
    # Every copy of a broadcast lands on one tick, so each tick runs many
    # deliveries, timers among them.
    result, dispatched, heap = _run_against_a_heap(
        monkeypatch, Scenario(n=7, seed=4, delta_post=10, horizon=3))
    assert result.trace.stop_reason == "quiesced" and not heap
    assert max(Counter(now for now, _ in dispatched).values()) > 7 * 7
    assert len(dispatched) == result.trace.events_processed


def test_a_run_stopped_in_the_middle_of_a_tick_ran_its_first_events(
        monkeypatch):
    result, dispatched, heap = _run_against_a_heap(
        monkeypatch, Scenario(n=7, seed=4, delta_post=10, horizon=6,
                              stop_after_committed=2))
    assert result.trace.stop_reason == "target"
    assert all(node.last_committed >= 2 for node in result.nodes.values())
    # The reference still holds events of the tick the run stopped in.
    assert heap[0][0] == dispatched[-1][0]


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_golden_runs_dispatch_in_heap_order(monkeypatch, name):
    scenario, digest = SHAPES[name]
    result, _, _ = _run_against_a_heap(monkeypatch, scenario)
    assert result.trace.digest() == digest
