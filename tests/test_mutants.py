"""Mutant kill matrix: each named mutant in ``mutants`` must be reported by
a named invariant check under a small fixed budget.  A runtime safety
violation alone is not a kill: the named check must report the mutant."""

import pytest

import mutants
from bbca_chain import explore as ex
from bbca_chain import harness
from bbca_chain.scenario import parse_config

from test_invariants import bbca_forged_run, forged_run

# n=4 with a byzantine node 1 that withholds its READYs; timers fire before
# GST, so correct nodes probe while echoes are still in flight.
WITHHOLD_READY_N4 = {
    "n": 4, "delay": "random", "delta_post": 5, "gst": 40,
    "pre_gst": {"policy": "adversarial", "max_delay": 30}, "t_max": 25,
    "horizon": 6, "adversary": {"1": {"strategy": "withhold_ready"}},
    "invariants": "all",
}
# The same shape with node 1 replaying what it receives.
REPLAY_N4 = {**WITHHOLD_READY_N4,
             "adversary": {"1": {"strategy": "replay"}}}
CAMPAIGN = [(WITHHOLD_READY_N4, range(4)), (REPLAY_N4, range(8))]

# Mutants that break no Complete-Adopt rule, and the one check that alone
# must report each of them.
KILLERS = {"reversed_commit_batches": "commit_ancestry",
           "echo_twice": "echo_once",
           "bbca_clone_shares_received_echo": "validity",
           "data_from_any_sender": "authorship",
           "bbca_files_any_block": "authorship"}

# Mutants of a clone act only where explorer worlds fork (the simulator
# never clones): the case whose leaves must report each, at depth 2.  The
# memo is the one structure clones share on purpose.
FORKED = {"bbca_clone_shares_received_echo": ex.bbca_correct_sender,
          "dag_clone_shares_missing": ex.chain_two_views}

# Mutants that act only on a message no adversary strategy sends: the
# (config, result) run, with that message planted, that must report each.
PLANTED = {"data_from_any_sender": forged_run,
           "bbca_files_any_block": bbca_forged_run}

# Mutants that no named check reports within the campaign, or at the leaves
# of their explorer case; each has a ``FOUND:`` line in CHANGES.md.
SURVIVORS = {
    # Neither a relayed nor a replayed ECHO makes a correct node break a
    # checked rule here; no explorer case kills it either.
    "no_echo_dedupe": "a repeated ECHO breaks no checked rule",
    # No fork within depth 2 holds a pending block, so no branch reads the
    # shared counts; from a fork that does, ``DagStore.insert`` raises.
    "dag_clone_shares_missing": "no fork point within the depth holds a "
                                "pending block",
}


def complete_adopt_problems() -> list[str]:
    problems = []
    for raw, seeds in CAMPAIGN:
        for seed in seeds:
            config = parse_config({**raw, "seed": seed})
            problems += harness.run_config(config).verdicts["complete_adopt"]
    return problems


def test_campaign_is_clean_without_a_mutant():
    assert complete_adopt_problems() == []


@pytest.mark.parametrize("name", [
    name if name not in SURVIVORS else pytest.param(
        name, marks=pytest.mark.xfail(strict=True, reason=SURVIVORS[name]))
    for name in sorted(set(mutants.MUTANTS) - set(KILLERS) - set(FORKED))])
def test_complete_adopt_kills_mutant(monkeypatch, name):
    mutants.apply(monkeypatch, name)
    problems = complete_adopt_problems()
    assert problems and all(p.startswith("complete-adopt: ")
                            for p in problems)


def explored_problems(name) -> list[str]:
    result = ex.explore(FORKED[name](), depth=2, check_validity=True)
    return [problem for problem, _ in result.violations]


@pytest.mark.parametrize("name", [
    name if name not in SURVIVORS else pytest.param(
        name, marks=pytest.mark.xfail(strict=True, reason=SURVIVORS[name]))
    for name in sorted(FORKED)])
def test_explorer_leaves_kill_clone_mutant(monkeypatch, name):
    assert explored_problems(name) == []
    mutants.apply(monkeypatch, name)
    problems = explored_problems(name)
    assert problems and all(p.startswith(f"{KILLERS.get(name)}: ")
                            for p in problems)


@pytest.mark.parametrize("name", sorted(SURVIVORS))
def test_a_surviving_mutant_runs_clean(monkeypatch, name):
    # A survivor's strict xfail must come from no report, not from a run
    # that raised.
    mutants.apply(monkeypatch, name)
    assert (explored_problems(name) if name in FORKED
            else complete_adopt_problems()) == []


def reporting_checks(raw, seeds) -> set[str]:
    """The checks that report a problem in some run of the sweep."""
    return {name for seed in seeds
            for name, problems in harness.run_config(
                parse_config({**raw, "seed": seed})).verdicts.items()
            if problems}


@pytest.mark.parametrize("name",
                         sorted(set(KILLERS) - set(FORKED) - set(PLANTED)))
def test_one_named_check_alone_kills_mutant(monkeypatch, name):
    raw, seeds = WITHHOLD_READY_N4, range(4)
    assert reporting_checks(raw, seeds) == set()
    mutants.apply(monkeypatch, name)
    assert reporting_checks(raw, seeds) == {KILLERS[name]}


def planted_reports(name) -> set[str]:
    """The checks that report a problem in the planted run of ``name``."""
    config, result = PLANTED[name]()
    return {check for check, problems
            in harness.evaluate(result, config).items() if problems}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_one_named_check_alone_kills_planted_mutant(monkeypatch, name):
    assert planted_reports(name) == set()
    mutants.apply(monkeypatch, name)
    assert planted_reports(name) == {KILLERS[name]}


def test_echo_once_reports_each_second_echo(monkeypatch):
    raw = {"n": 4, "seed": 1, "horizon": 4, "invariants": "all"}
    assert reporting_checks(raw, [1]) == set()
    mutants.apply(monkeypatch, "echo_twice")
    verdicts = harness.run_config(parse_config(raw)).verdicts
    # In each of the four views, the three nodes that are not the sender
    # echo its INIT twice.
    problems = verdicts.pop("echo_once")
    assert len(problems) == 12
    assert all(p.startswith("echo-once: ") and " sent 2 x ECHO " in p
               for p in problems)
    assert not any(verdicts.values())


def test_every_bbca_leaf_reports_echo_twice(monkeypatch):
    assert ex.explore(ex.bbca_correct_sender(), depth=2).ok
    mutants.apply(monkeypatch, "echo_twice")
    result = ex.explore(ex.bbca_correct_sender(), depth=2)
    # Each node but the sender echoes the INIT twice, at every leaf.
    assert len(result.violations) == 3 * result.leaves == 240
    assert {problem for problem, _ in result.violations} == {
        f"echo-once: node {node} sent 2 x ECHO s0 v1" for node in (1, 2, 3)}


@pytest.mark.parametrize("name", ["reversed_commit_batches"])
def test_every_chain_leaf_reports_chain_mutant(monkeypatch, name):
    # The explorer's chain leaves run the simulator's ancestry check.
    assert ex.explore(ex.chain_two_views(), depth=2).ok
    mutants.apply(monkeypatch, name)
    reports = []
    check_leaf = ex.ChainWorld.check_leaf

    def recording(world):
        reports.append(check_leaf(world))
        return reports[-1]

    monkeypatch.setattr(ex.ChainWorld, "check_leaf", recording)
    result = ex.explore(ex.chain_two_views(), depth=2)
    assert result.leaves == len(reports) == 88
    assert all(reports)
    assert all(problem.startswith("ancestry: ")
               for problem, _ in result.violations)
