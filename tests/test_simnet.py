import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from bbca_chain.bbca import BbcaInstance
from bbca_chain.blocks import GENESIS_BLOCK
from bbca_chain.chain import NO_OP, BlockMsg, ChainNode, SafetyViolation
from bbca_chain.dag import DagStore
from bbca_chain.identity import ConfigError
from bbca_chain.invariants import (
    check_agreement,
    check_commit_ancestry,
    check_delay_soundness,
    check_echo_once,
    check_growth,
    check_prefix_consistency,
    check_view_sync,
)
from bbca_chain.simnet import (
    Adversary,
    DelayModel,
    PreGstPolicy,
    RunResult,
    Scenario,
    Simulator,
    Strategy,
    Trace,
    _describe,
    randints,
    run,
    trips_to_commit,
)

from test_golden_digests import SHAPES


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
    first = Simulator(scenario).run()
    second = Simulator(scenario).run()
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
        assert trips_to_commit(result, node.finalized[view].digest) == 3


def test_data_block_one_hop_before_proposal_takes_four_trips():
    # View 2's proposal goes out at 3d; the payload enters the net at 2d.
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=3,
                          injections=((20, 0),)))
    (tick, _node, ref), = result.trace.injected
    assert tick == 20
    assert trips_to_commit(result, ref) == 4
    # It rides inside the new-view block embedded in view 2's proposal, so
    # it commits at the very tick the view-2 backbone commits.
    backbone = result.nodes[0].finalized[2].digest
    assert (result.trace.commit_ticks[ref]
            == result.trace.commit_ticks[backbone])


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
    with pytest.raises(ValueError):
        trips_to_commit(result, ref)


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
    finalized = {result.nodes[i].finalized[1].digest
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


def test_pre_gst_drop_policy_delivers_at_gst():
    scenario = Scenario(n=4, seed=6, delta_post=10, gst=100,
                        pre_gst=PreGstPolicy("drop"), horizon=3)
    result = run(scenario)
    assert check_delay_soundness(result) == []
    for entry, tick, _frm, _to in result.trace.deliveries:
        if entry < 100:
            assert tick >= 100
    assert_clean(result)


def test_delay_soundness_reports_only_late_deliveries(monkeypatch):
    # gst 100, delta_post 10: a message entering at 50 may land by 110, one
    # entering at 120 by 130.
    scenario = Scenario(n=4, gst=100, delta_post=10)
    result = RunResult(scenario, Trace(), {})
    result.trace.deliveries.extend([
        (50, 110, 0, 1),   # pre-GST, on time at its bound
        (120, 130, 1, 2),  # post-GST, on time at its bound
        (120, 131, 2, 3),  # post-GST, one tick late
    ])
    entries = []
    bound = DelayModel.bound

    def counted(model, sent):
        entries.append(sent)
        return bound(model, sent)

    monkeypatch.setattr(DelayModel, "bound", counted)
    assert check_delay_soundness(result) == [
        "delay: message 2->3 entered at 120 but delivered at 131 (bound 130)"]
    assert sorted(entries) == [50, 120]  # once per distinct entry tick
    del result.trace.deliveries[-1]
    assert check_delay_soundness(result) == []


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
], ids=["t_max", "delay_own_max_delay", "pre_gst_max_delay"])
def test_bad_timing_rejected_at_construction(build):
    with pytest.raises(ConfigError):
        build()


def test_audit_probe_records_results():
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=2,
                          audit_probe=True))
    assert result.trace.audits
    # Every correct node completed both views, so every audit adopts.
    for (node, view), (adopted, ref) in result.trace.audits.items():
        assert adopted and ref is not None


def test_trace_lines_and_summary_present():
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=2))
    lines = result.trace.export_lines()
    prefixes = {line.split(" ", 1)[0] for line in lines}
    assert {"send", "deliver", "view", "commit", "summary", "stop"} <= prefixes


def test_echo_once_flags_a_node_that_sends_twice():
    # Sending node 0's traffic a second time makes it look like node 0
    # echoed and readied twice in every instance it took part in.
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=2))
    assert check_echo_once(result) == []
    for record in list(result.trace.records):
        if record[0] == "send" and record[2] == 0:
            result.trace.record(*record)
    problems = check_echo_once(result)
    assert problems
    assert all(p.startswith("echo-once: node 0 ") for p in problems)
    assert any("ECHO" in p for p in problems)
    assert any("READY" in p for p in problems)


def test_each_proposal_is_processed_once_per_node(monkeypatch):
    # The golden shape n7-equivocate-data-payloads.  Every proposal reaches
    # a node inside INIT, each ECHO and each READY, with its embedded
    # new-view blocks; only the first copy is new information.
    inserted: dict[int, Counter] = {}  # id(store) -> digest -> insert calls
    insert = DagStore.insert

    def counting_insert(self, block):
        inserted.setdefault(id(self), Counter())[block.digest] += 1
        return insert(self, block)

    # Whether the view of the BBCA message being handled already held a
    # certificate when it arrived; empty outside message handling.
    view_held: list[bool] = []
    handle = ChainNode._handle_bbca_message

    def tracking_handle(self, frm, msg):
        view_held.append(msg.instance.view in self.held_certs)
        try:
            handle(self, frm, msg)
        finally:
            view_held.pop()

    adopt_calls = Counter()
    available_adopt = BbcaInstance.available_adopt

    def counting_adopt(self):
        adopt_calls[bool(view_held) and view_held[-1]] += 1
        return available_adopt(self)

    monkeypatch.setattr(DagStore, "insert", counting_insert)
    monkeypatch.setattr(ChainNode, "_handle_bbca_message", tracking_handle)
    monkeypatch.setattr(BbcaInstance, "available_adopt", counting_adopt)
    result = run(Scenario(n=7, seed=14, delta_post=5, delay_mode="random",
                          horizon=4, injections=((10, 2), (12, 0)),
                          strategies={2: Strategy("equivocate_data")}))
    assert not result.failed
    assert len(inserted) == 7
    repeated = {digest.hex()[:12]: count for per_store in inserted.values()
                for digest, count in per_store.items() if count > 1}
    assert repeated == {}
    assert adopt_calls[False] > 0
    assert adopt_calls[True] == 0, "adopt certificate rebuilt for a view " \
        "that already held one"


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
        record = record[:-1] + (_describe(record[-1]),)
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
    return run(SHAPES["n4-uniform"][0])


def test_export_formats_every_record_kind_like_the_generic_join(monkeypatch):
    results = [run(scenario) for scenario, _ in SHAPES.values()]
    results.append(_violating_run(monkeypatch))
    kinds = set()
    for result in results:
        trace = result.trace
        lines = trace.export_lines()
        assert lines[:-1] == [_reference_line(r) for r in trace.records]
        assert lines[-1] == f"stop {trace.stop_reason}"
        kinds.update(record[0] for record in trace.records)
    assert kinds == {"send", "deliver", "view", "commit", "probe", "timer",
                     "inject", "violation", "summary", "force_probe"}
