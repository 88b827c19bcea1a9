import pytest

from bbca_chain.chain import NO_OP
from bbca_chain.identity import ConfigError
from bbca_chain.invariants import (
    check_agreement,
    check_commit_ancestry,
    check_delay_soundness,
    check_echo_once,
    check_prefix_consistency,
    check_view_sync,
)
from bbca_chain.simnet import (
    PreGstPolicy,
    Scenario,
    Simulator,
    Strategy,
    run,
    trips_to_commit,
)


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
