"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  The campaigns and explorations here are sized for a
couple of minutes of total runtime.
"""

import time
from fractions import Fraction

import pytest

from bbca_chain import explore as ex
from bbca_chain import harness
from bbca_chain.chain import NO_OP
from bbca_chain.invariants import check_view_sync, trips_to_commit
from bbca_chain.scenario import parse_config
from bbca_chain.simnet import (
    PreGstPolicy,
    Scenario,
    Simulator,
    Strategy,
    run,
)

CAMPAIGN_SEEDS = 1000
ADVERSARIES = ("silent", "equivocate_init", "withhold_ready", "replay")


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: trip-count reproduction --------------------------------------

@pytest.mark.parametrize("n", [4, 7])
def test_criterion_1_trip_counts(n):
    started = time.perf_counter()
    scenario = Scenario(n=n, seed=1, delta_post=10, horizon=3,
                        injections=((20, 0),))
    result = run(scenario)
    node = result.nodes[0]
    backbone_trips = [trips_to_commit(result, node.finalized[v])
                      for v in (1, 2, 3)]
    (_, _, data_ref), = result.trace.injected
    data_trips = trips_to_commit(result, data_ref)
    elapsed = time.perf_counter() - started
    ok = (backbone_trips == [Fraction(3)] * 3
          and data_trips == Fraction(4) and elapsed < 1.0)
    _verdict(f"1 (n={n})", ok,
             f"backbone trips {[str(t) for t in backbone_trips]}, "
             f"data trips {data_trips}, {elapsed * 1000:.0f} ms")


# -- criterion 2: broadcast lemma suite over exhaustive interleavings -----------

@pytest.mark.parametrize("case,builder,depth,validity", [
    ("correct sender", ex.bbca_correct_sender, 5, True),
    ("equivocating sender", ex.bbca_equivocating_sender, 5, False),
    ("crashed nodes", ex.bbca_crashed, 6, False),
])
def test_criterion_2_bbca_lemmas(case, builder, depth, validity):
    result = ex.explore(builder(), depth=depth, check_validity=validity)
    ok = result.ok and result.leaves >= 10_000 and not result.partial
    detail = f"{result.leaves} leaves, {len(result.violations)} violations"
    if result.violations:
        detail += f"; first: {result.violations[0][0]}"
    _verdict(f"2 ({case})", ok, detail)


def test_criterion_2_noadopt_probes_block_completion():
    # f+1 noadopt probes in flight: no schedule may complete, even with a
    # replaying byzantine node re-injecting every observed message.
    result = ex.explore(ex.bbca_replay_with_probes(), depth=4)
    ok = result.ok and result.leaves >= 10_000
    _verdict("2 (replayed probes)", ok,
             f"{result.leaves} leaves, {len(result.violations)} violations")


# -- criterion 3: chain safety campaigns ----------------------------------------

@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("strategy", ADVERSARIES)
def test_criterion_3_safety_campaign(n, strategy):
    config = parse_config({
        "name": f"{strategy}-n{n}",
        "n": n,
        "seed": 0,
        "delta_post": 5,
        "delay": "random",
        "gst": 40,
        "pre_gst": {"policy": "adversarial", "max_delay": 30},
        "t_max": 25,
        "horizon": 6,
        "stop_after_committed": 2,
        "adversary": {"1": {"strategy": strategy}},
        "invariants": ["agreement", "prefix_consistency", "bbca_consistency",
                       "view_sync", "delay_soundness", "commit_ancestry",
                       "echo_once"],
    })
    outcome = harness.run_campaign(config, CAMPAIGN_SEEDS, jobs=2)
    detail = f"{outcome.runs} runs, {len(outcome.failures)} violations"
    if outcome.failures:
        detail += f"; first: seed={outcome.failures[0][0]} {outcome.failures[0][1]}"
    _verdict(f"3 ({strategy}, n={n})", outcome.ok, detail)


# -- criterion 4: liveness after GST ---------------------------------------------

def test_criterion_4_liveness_and_censorship():
    started = time.perf_counter()
    details = []
    ok = True
    for name, raw in (
        ("timer pre-GST", {
            "name": "liveness-A", "n": 4, "seed": 1, "delta_post": 10,
            "gst": 60, "pre_gst": {"policy": "drop"}, "t_max": 40,
            "horizon": 5, "adversary": {"1": {"strategy": "silent"}},
            "payloads": [{"node": 0, "tick": 10}, {"node": 2, "tick": 45},
                         {"node": 3, "tick": 65}],
            "invariants": ["agreement", "prefix_consistency", "view_sync",
                           "delay_soundness"],
            "expect": {"liveness": True, "growth": True,
                       "censorship_cutoff": 65, "log_identical": True},
        }),
        ("synchronous from start", {
            "name": "liveness-B", "n": 4, "seed": 2, "delta_post": 10,
            "gst": 0, "t_max": 40, "horizon": 5,
            "adversary": {"1": {"strategy": "silent"}},
            "payloads": [{"node": 0, "tick": 15}],
            "invariants": ["agreement", "prefix_consistency", "view_sync"],
            "expect": {"liveness": True, "growth": True,
                       "censorship_cutoff": 15, "log_identical": True},
        }),
    ):
        outcome = harness.run_config(parse_config(raw))
        failed = {k: v for k, v in outcome.verdicts.items() if v}
        ok &= outcome.ok
        details.append(f"{name}: {'ok' if outcome.ok else failed}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    _verdict("4", ok, "; ".join(details) + f" ({elapsed:.1f} s)")


# -- criterion 5: view synchronization --------------------------------------------

def test_criterion_5_view_sync_bounds():
    # Cases 1-4 within one delay of the first entrant, the noadopt path
    # within two; measured over noadopt-heavy randomized schedules.
    violations = []
    checked = 0
    for seed in range(200):
        result = run(Scenario(
            n=4, seed=seed, delta_post=5, delay_mode="random", gst=40,
            pre_gst=PreGstPolicy("adversarial", 30), t_max=25, horizon=6,
            strategies={1: Strategy("silent")}))
        violations.extend(check_view_sync(result))
        checked += sum(
            1 for node in result.scenario.correct_nodes()
            for _v, (tick, _c) in result.trace.view_entries.get(node, {}).items()
            if tick >= 40)
    ok = not violations and checked > 1000
    _verdict("5", ok, f"{checked} post-GST view entries across 200 traces, "
                      f"{len(violations)} bound violations")


# -- criterion 6: skip semantics ----------------------------------------------------

def test_criterion_6_silent_leader_noop_skip():
    problems = []
    for seed, mode in ((3, "uniform"), (4, "random"), (5, "random")):
        result = run(Scenario(n=4, seed=seed, delta_post=10, delay_mode=mode,
                              horizon=4, strategies={1: Strategy("silent")}))
        logs = set()
        for node_id in result.scenario.correct_nodes():
            node = result.nodes[node_id]
            if node.finalized.get(1) is not NO_OP:
                problems.append(f"seed {seed}: node {node_id} view 1 not NO-OP")
            logs.add(tuple(node.committed_log))
        if len(logs) != 1:
            problems.append(f"seed {seed}: logs differ at run end")
    _verdict("6", not problems, problems[0] if problems else
             "view 1 skipped as NO-OP, logs byte-identical in all runs")


# -- criterion 7: determinism --------------------------------------------------------

def test_criterion_7_deterministic_replay():
    shapes = [
        Scenario(n=4, seed=11, delta_post=10, horizon=3),
        Scenario(n=7, seed=12, delta_post=5, delay_mode="random", horizon=4,
                 injections=((7, 2),)),
        Scenario(n=4, seed=13, delta_post=5, delay_mode="random", gst=30,
                 pre_gst=PreGstPolicy("adversarial", 25), horizon=5,
                 strategies={1: Strategy("equivocate_init")}),
        Scenario(n=4, seed=14, delta_post=6, gst=50,
                 pre_gst=PreGstPolicy("drop"), horizon=4,
                 strategies={2: Strategy("replay")}),
    ]
    mismatches = []
    for scenario in shapes:
        first = Simulator(scenario).run().trace
        second = Simulator(scenario).run().trace
        if first.digest() != second.digest():
            mismatches.append(scenario)
    _verdict("7", not mismatches,
             f"{len(shapes)} scenario shapes replayed byte-identically")
