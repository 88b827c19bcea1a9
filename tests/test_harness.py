import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bbca_chain import cli, explore, harness
from bbca_chain.identity import ConfigError
from bbca_chain.invariants import UNCONDITIONAL
from bbca_chain.scenario import load_config, parse_config
from bbca_chain.simnet import Scenario


BASE = {
    "name": "unit",
    "n": 4,
    "seed": 7,
    "delta_post": 10,
    "horizon": 3,
    "invariants": "all",
}


def write_config(tmp_path, overrides=None, **kw):
    raw = dict(BASE)
    raw.update(overrides or {})
    raw.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


# -- parsing ---------------------------------------------------------------------

def test_parse_minimal_config():
    config = parse_config({"n": 4})
    assert config.scenario.n == 4
    assert "agreement" in config.invariants


def test_unset_fields_take_the_scenario_defaults():
    assert parse_config({"n": 4}).scenario == Scenario(n=4)


def test_all_selects_each_unconditional_check_once():
    assert parse_config({"n": 4}).invariants == list(UNCONDITIONAL)
    assert len(UNCONDITIONAL) == 9
    config = parse_config({"n": 4, "invariants": [
        "echo_once", "agreement", "echo_once"]})
    assert config.invariants == ["echo_once", "agreement"]


def test_unknown_field_has_path():
    with pytest.raises(ConfigError, match=r"config\.frobnicate"):
        parse_config({"n": 4, "frobnicate": 1})


def test_missing_n_has_path():
    with pytest.raises(ConfigError, match=r"config\.n"):
        parse_config({})


def test_wrong_type_has_path():
    with pytest.raises(ConfigError, match=r"config\.seed"):
        parse_config({"n": 4, "seed": "zero"})


def test_fault_budget_rejected():
    raw = {"n": 4, "adversary": {"1": {"strategy": "silent"},
                                 "2": {"strategy": "silent"}}}
    with pytest.raises(ConfigError, match="exceeds f"):
        parse_config(raw)


def test_unknown_strategy_rejected():
    raw = {"n": 4, "adversary": {"1": {"strategy": "omniscient"}}}
    with pytest.raises(ConfigError, match=r"config\.adversary\.1"):
        parse_config(raw)


@pytest.mark.parametrize("raw, field", [
    ({"adversary": {"1": {"strategy": "silent", "max_delay": 7}}},
     r"config\.adversary\.1: max_delay"),
    ({"pre_gst": {"policy": "drop", "max_delay": 9}},
     r"config\.pre_gst: max_delay"),
], ids=["strategy", "drop_policy"])
def test_unused_max_delay_rejected_with_path(raw, field):
    with pytest.raises(ConfigError, match=field):
        parse_config({"n": 4, **raw})


def test_unknown_invariant_rejected():
    with pytest.raises(ConfigError, match="unknown check"):
        parse_config({"n": 4, "invariants": ["no_such_thing"]})


def test_payload_out_of_range_rejected():
    raw = {"n": 4, "payloads": [{"node": 9, "tick": 5}]}
    with pytest.raises(ConfigError, match=r"payloads\[0\]\.node"):
        parse_config(raw)


def test_explore_requires_n4():
    raw = {"n": 7, "explore": {"case": "bbca_correct_sender"}}
    with pytest.raises(ConfigError, match=r"config\.n"):
        parse_config(raw)


def test_expectations_select_their_checks():
    config = parse_config({
        "n": 4,
        "invariants": ["agreement"],
        "expect": {"noop_views": [1], "liveness": True,
                   "log_identical": True},
    })
    assert set(config.invariants) == {
        "agreement", "noop_views", "liveness", "log_identical"}


def test_noop_views_check_names_each_node_that_finalized_a_block():
    # A silent view-1 leader makes view 1 a skip; view 2 commits a block.
    config = parse_config({**BASE, "adversary": {"1": {"strategy": "silent"}},
                           "expect": {"noop_views": [1, 2]}})
    outcome = harness.run_config(config)
    assert outcome.verdicts["noop_views"] == [
        f"noop: node {node} finalized view 2 as "
        "Block(BACKBONE v=2 a=2 33d3096f8e95), expected a skip"
        for node in (0, 2, 3)]


# -- orchestration ----------------------------------------------------------------

def test_run_config_happy_path(tmp_path):
    config = load_config(write_config(
        tmp_path,
        payloads=[{"node": 0, "tick": 20}],
        expect={"trips": {"views": [1, 2, 3], "backbone": 3, "data": 4},
                "liveness": True, "log_identical": True, "growth": True},
    ))
    outcome = harness.run_config(config)
    assert outcome.ok
    assert all(not v for v in outcome.verdicts.values())
    report = harness.render_report(outcome)
    assert "verdict: PASS" in report
    assert "PASS trips" in report
    assert "backbone v1" in report and "expected" in report


def test_trip_counts_may_be_fraction_strings():
    config = parse_config({**BASE, "payloads": [{"node": 0, "tick": 20}],
                           "expect": {"trips": {"views": [1, 2],
                                                "backbone": "6/2",
                                                "data": "4"}}})
    assert harness.run_config(config).verdicts["trips"] == []


def test_failed_expectation_produces_witness(tmp_path):
    config = load_config(write_config(
        tmp_path, expect={"trips": {"views": [1], "backbone": 2}}))
    outcome = harness.run_config(config)
    assert not outcome.ok
    report = harness.render_report(outcome)
    assert "verdict: FAIL" in report
    assert "FAIL trips" in report
    assert "witness: seed=7" in report


@pytest.mark.parametrize("expect, label", [
    # A payload injected after the last proposal is never committed.
    ({"views": [1], "backbone": 3, "data": 4}, "data "),
    # View 9 lies past the horizon and is never finalized.
    ({"views": [9], "backbone": 3}, "backbone v9"),
])
def test_uncommitted_trip_block_is_reported(tmp_path, capsys, expect, label):
    path = write_config(tmp_path, seed=1, expect={"trips": expect},
                        payloads=[{"node": 1, "tick": 500}])
    assert cli.main(["run", "--config", path]) == 1
    out = capsys.readouterr().out
    problems = [line.strip() for line in out.splitlines() if "trips:" in line]
    assert len(problems) == 1
    assert problems[0].startswith(f"- trips: {label}")
    assert problems[0].endswith("was not committed by every correct node")
    # The latency table shows the same measurement as a dash.
    row = next(line for line in out.splitlines()
               if line.startswith(f"  {label}"))
    assert row.split()[-3] == "-"


def test_campaign_aggregates(tmp_path):
    config = load_config(write_config(tmp_path, overrides={
        "stop_after_committed": 2,
        "adversary": {"1": {"strategy": "silent"}},
        "horizon": 5,
    }))
    outcome = harness.run_campaign(config, count=20)
    assert outcome.ok and outcome.runs == 20
    report = harness.render_campaign_report(outcome)
    assert "verdict: PASS" in report


def test_campaign_parallel_jobs_match_serial(tmp_path):
    config = load_config(write_config(tmp_path, overrides={
        "stop_after_committed": 2, "horizon": 4}))
    serial = harness.run_campaign(config, count=6, jobs=1)
    parallel = harness.run_campaign(config, count=6, jobs=2)
    assert serial.ok and parallel.ok
    assert serial.runs == parallel.runs == 6


def _run_fresh(script, *args):
    """Run ``script`` in a new interpreter that imports the package from
    ``src``; return the lines it printed."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = os.environ | {"PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_serial_paths_never_import_the_process_pool(tmp_path):
    # Only ``--jobs N`` with N > 1 pays for ``multiprocessing``; importing
    # the CLI or running a serial campaign must not load it.
    path = write_config(tmp_path, overrides={
        "stop_after_committed": 2, "horizon": 4})
    script = ("import sys\n"
              "import bbca_chain.cli\n"
              "pool = ('multiprocessing', 'concurrent.futures')\n"
              "print(sorted(m for m in pool if m in sys.modules))\n"
              "from bbca_chain import harness\n"
              "from bbca_chain.scenario import load_config\n"
              "assert harness.run_campaign(load_config(sys.argv[1]), 2,\n"
              "                            jobs=1).ok\n"
              "print(sorted(m for m in pool if m in sys.modules))\n")
    assert _run_fresh(script, path) == ["[]", "[]"]


def test_simulator_paths_never_import_the_explorer():
    # Only a config with an ``explore`` section loads the explorer.  Once
    # it is loaded, that section's checks still name their fields.
    script = (
        "import sys\n"
        "from bbca_chain import harness\n"
        "from bbca_chain.identity import ConfigError\n"
        "from bbca_chain.scenario import parse_config\n"
        "config = parse_config({'n': 4, 'horizon': 3})\n"
        "assert harness.run_config(config).ok\n"
        "print('bbca_chain.explore' in sys.modules)\n"
        "for raw in ({'n': 4, 'explore': {'case': 'no_such_case'}},\n"
        "            {'n': 7, 'explore': {'case': 'bbca_correct_sender'}}):\n"
        "    try:\n"
        "        parse_config(raw)\n"
        "    except ConfigError as exc:\n"
        "        print(exc)\n")
    assert _run_fresh(script) == [
        "False", "config.explore.case: unknown case 'no_such_case'",
        "config.n: exploration requires n=4"]


def test_explore_config(tmp_path):
    config = load_config(write_config(tmp_path, overrides={
        "explore": {"case": "bbca_equivocating_sender"}}))
    result = harness.run_explore(config, depth=2)
    assert result.ok and result.leaves > 10


@pytest.mark.parametrize("case", sorted(explore.CASES))
def test_every_explore_case_runs_from_config(case):
    kwargs = {"timeout_node": 2} if case == "chain_two_views" else {}
    config = parse_config({"n": 4, "explore": {"case": case, **kwargs}})
    direct = explore.explore(explore.CASES[case](**kwargs), 2)
    assert harness.run_explore(config, depth=2).leaves == direct.leaves


def test_unknown_explore_case_rejected():
    with pytest.raises(ConfigError, match=r"explore\.case"):
        parse_config({"n": 4, "explore": {"case": "no_such_case"}})


@pytest.mark.parametrize("case", [case for case in explore.CASES
                                  if case != "chain_two_views"])
def test_timeout_node_rejected_outside_chain_two_views(case):
    with pytest.raises(ConfigError, match=r"config\.explore\.timeout_node"):
        parse_config({"n": 4, "explore": {"case": case, "timeout_node": 3}})


# -- CLI ----------------------------------------------------------------------------

def test_cli_run_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["run", "--config", path]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_cli_run_writes_report_file(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "report.txt"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert "verdict: PASS" in out.read_text()


def test_cli_run_exit_one_on_violation(tmp_path):
    path = write_config(tmp_path,
                        expect={"trips": {"views": [1], "backbone": 2}})
    assert cli.main(["run", "--config", path]) == 1


def test_cli_exit_two_on_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, overrides={"bogus": True})
    assert cli.main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {"t_max": -5},
    {"adversary": {"1": {"strategy": "delay_own", "max_delay": -1}}},
    {"adversary": {"1": {"strategy": "silent", "max_delay": 7}}},
    {"pre_gst": {"policy": "drop", "max_delay": 9}},
    {"pre_gst": {"policy": "drop"}},
], ids=["t_max", "delay_own_max_delay", "unused_strategy_max_delay",
        "unused_drop_max_delay", "pre_gst_without_gst"])
def test_cli_exit_two_on_bad_timing(tmp_path, capsys, overrides):
    path = write_config(tmp_path, overrides=overrides)
    assert cli.main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    ({"adversary": {"1": {"strategy": "silent"},
                    "01": {"strategy": "replay"}}},
     "config.adversary.01: node ids are canonical integers"),
    ({"adversary": {" 1": {"strategy": "silent"}}},
     "config.adversary. 1: node ids are canonical integers"),
    ({"invariants": "agreement"},
     'config.invariants: a string must be "all"'),
    ({"invariants": [["agreement"]]},
     "config.invariants[0]: unknown check ['agreement']"),
    # json.dumps writes the int key 1 as "1": the file repeats the key.
    ({"adversary": {1: {"strategy": "silent"}, "1": {"strategy": "replay"}}},
     "repeated key '1'"),
    ({"audit_probe": True}, "config.audit_probe: unknown field"),
    ({"invariants": 5}, "config.invariants: expected str or list, got int"),
    ({"invariants": ["noop_views"]},
     "config.invariants[0]: 'noop_views' is selected only by "
     "config.expect.noop_views"),
    ({"invariants": ["agreement", "trips"]},
     "config.invariants[1]: 'trips' is selected only by config.expect.trips"),
    ({"invariants": ["liveness"]},
     "config.invariants[0]: 'liveness' is selected only by "
     "config.expect.liveness"),
    ({"invariants": ["growth"]},
     "config.invariants[0]: 'growth' is selected only by "
     "config.expect.growth"),
    ({"invariants": ["censorship"], "payloads": [{"node": 0, "tick": 5}]},
     "config.invariants[0]: 'censorship' is selected only by "
     "config.expect.censorship_cutoff"),
    ({"invariants": ["log_identical"]},
     "config.invariants[0]: 'log_identical' is selected only by "
     "config.expect.log_identical"),
    ({"expect": {"trips": {"views": [1]}}},
     "config.expect.trips.backbone: required when views is not empty"),
    ({"expect": {"trips": {"views": [1], "backbone": "x"}}},
     "config.expect.trips.backbone: 'x' is not a number"),
    ({"expect": {"trips": {"views": [1], "backbone": [3]}}},
     "config.expect.trips.backbone: expected int or str, got list"),
    ({"expect": {"trips": {"views": [1], "backbone": 3, "data": "1/0"}}},
     "config.expect.trips.data: '1/0' is not a number"),
    ({"expect": {"trips": {"views": "12", "backbone": 3}}},
     "config.expect.trips.views: expected list, got str"),
    ({"expect": {"noop_views": [True]}},
     "config.expect.noop_views[0]: expected a view number of at least 1, "
     "got True"),
    ({"expect": {"noop_views": [0]}},
     "config.expect.noop_views[0]: expected a view number of at least 1, "
     "got 0"),
], ids=["noncanonical_adversary_key", "padded_adversary_key",
        "invariants_string_not_all", "invariants_nested_list",
        "repeated_adversary_key", "audit_probe_key", "invariants_int",
        "scoped_noop_views", "scoped_trips", "scoped_liveness",
        "scoped_growth", "scoped_censorship", "scoped_log_identical",
        "trips_without_backbone", "trips_backbone_not_a_number",
        "trips_backbone_list", "trips_data_zero_denominator",
        "trips_views_string", "noop_views_bool", "noop_views_zero"])
def test_cli_exit_two_on_malformed_field(tmp_path, capsys, overrides, field):
    path = write_config(tmp_path, overrides=overrides)
    _assert_config_error(["run", "--config", path], capsys, field)


def test_cli_exit_two_on_missing_file(capsys):
    assert cli.main(["run", "--config", "/nonexistent.json"]) == 2


def test_cli_campaign(tmp_path, capsys):
    path = write_config(tmp_path, overrides={"stop_after_committed": 2})
    assert cli.main(["campaign", "--config", path, "--count", "5"]) == 0
    assert "runs: 5" in capsys.readouterr().out


def test_campaign_report_lists_the_first_ten_failures(tmp_path, capsys):
    # Fault-free, view 1 commits a block: every seed fails noop_views.
    path = write_config(tmp_path, overrides={
        "stop_after_committed": 2, "expect": {"noop_views": [1]}})
    assert cli.main(["campaign", "--config", path, "--count", "12"]) == 1
    out = capsys.readouterr().out
    assert "runs: 12" in out and "verdict: FAIL" in out
    failures = out.split("failures:\n")[1].splitlines()
    assert len(failures) == 11
    for seed, line in zip(range(7, 17), failures):
        assert line.startswith(f"  seed={seed} noop: node 0 finalized view 1 "
                               "as Block(BACKBONE v=1 a=1 ")
    assert failures[-1] == (
        "  (rerun any failing seed with `run` for the full trace)")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_cli_campaign_rejects_count_below_one(tmp_path, capsys, count):
    path = write_config(tmp_path, overrides={"stop_after_committed": 2})
    _assert_config_error(["campaign", "--config", path, "--count", count],
                         capsys, "--count")


@pytest.mark.parametrize("jobs", ["0", "-2"],
                         ids=["zero_jobs", "negative_jobs"])
def test_cli_campaign_rejects_jobs_below_one(tmp_path, capsys, jobs):
    path = write_config(tmp_path, overrides={"stop_after_committed": 2})
    _assert_config_error(["campaign", "--config", path, "--count", "2",
                          "--jobs", jobs], capsys, "--jobs")


def test_cli_explore(tmp_path, capsys):
    path = write_config(tmp_path, overrides={
        "explore": {"case": "bbca_correct_sender", "check_validity": True}})
    assert cli.main(["explore", "--config", path, "--depth", "2"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_explore_report_shows_each_violation_and_a_cut_schedule():
    # Probes at nodes 0 and 1 leave the one depth-0 schedule, 30 steps
    # long, with a correct node that never completed.
    result = explore.explore(explore.bbca_correct_sender(probes=(0, 1)), 0,
                             check_validity=True)
    (problem, witness), = result.violations
    assert len(witness) == 30
    config = parse_config({"n": 4, "name": "probes", "explore": {
        "case": "bbca_correct_sender", "check_validity": True}})
    assert harness.render_explore_report(config, 0, result).splitlines() == [
        "explore: probes case=bbca_correct_sender depth=0",
        "leaves: 1",
        "verdict: FAIL",
        f"  {problem}",
        f"    schedule: {' '.join(witness[:24])} ...",
    ]


def test_cli_explore_needs_section(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["explore", "--config", path, "--depth", "2"]) == 2


def _explore_config(tmp_path, **explore_fields):
    return write_config(tmp_path, overrides={
        "explore": {"case": "chain_two_views", **explore_fields}})


def _assert_config_error(argv, capsys, field):
    assert cli.main(argv) == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith("config error:") and field in line
               for line in err_lines), err_lines


def test_cli_explore_rejects_zero_max_leaves(tmp_path, capsys):
    path = _explore_config(tmp_path)
    _assert_config_error(["explore", "--config", path, "--depth", "1",
                          "--max-leaves", "0"], capsys, "--max-leaves")


def test_cli_explore_rejects_negative_depth(tmp_path, capsys):
    path = _explore_config(tmp_path)
    _assert_config_error(["explore", "--config", path, "--depth", "-3"],
                         capsys, "--depth")


def test_cli_explore_rejects_out_of_range_timeout_node(tmp_path, capsys):
    path = _explore_config(tmp_path, timeout_node=9)
    _assert_config_error(["explore", "--config", path, "--depth", "1"],
                         capsys, "explore.timeout_node")


def test_cli_explore_rejects_config_max_leaves_below_one(tmp_path, capsys):
    path = _explore_config(tmp_path, max_leaves=0)
    _assert_config_error(["explore", "--config", path, "--depth", "1"],
                         capsys, "explore.max_leaves")


def test_explicit_max_leaves_overrides_the_config_cap(tmp_path):
    config = load_config(_explore_config(tmp_path, max_leaves=5))
    assert harness.run_explore(config, depth=2).leaves == 5
    assert harness.run_explore(config, depth=2, max_leaves=7).leaves == 7
