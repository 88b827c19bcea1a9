import json

import pytest

from bbca_chain import cli, explore, harness
from bbca_chain.identity import ConfigError
from bbca_chain.scenario import load_config, parse_config


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


def test_explore_config(tmp_path):
    config = load_config(write_config(tmp_path, overrides={
        "explore": {"case": "bbca_equivocating_sender"}}))
    result = harness.run_explore(config, depth=2)
    assert result.ok and result.leaves > 10


@pytest.mark.parametrize("case", sorted(explore.CASES))
def test_every_explore_case_runs_from_config(case):
    config = parse_config({"n": 4, "explore": {"case": case,
                                               "timeout_node": 2}})
    kwargs = {"timeout_node": 2} if case == "chain_two_views" else {}
    direct = explore.explore(explore.CASES[case](**kwargs), 2)
    assert harness.run_explore(config, depth=2).leaves == direct.leaves


def test_unknown_explore_case_rejected():
    with pytest.raises(ConfigError, match=r"explore\.case"):
        parse_config({"n": 4, "explore": {"case": "no_such_case"}})


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
], ids=["t_max", "delay_own_max_delay"])
def test_cli_exit_two_on_bad_timing(tmp_path, capsys, overrides):
    path = write_config(tmp_path, overrides=overrides)
    assert cli.main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_two_on_missing_file(capsys):
    assert cli.main(["run", "--config", "/nonexistent.json"]) == 2


def test_cli_campaign(tmp_path, capsys):
    path = write_config(tmp_path, overrides={"stop_after_committed": 2})
    assert cli.main(["campaign", "--config", path, "--count", "5"]) == 0
    assert "runs: 5" in capsys.readouterr().out


def test_cli_explore(tmp_path, capsys):
    path = write_config(tmp_path, overrides={
        "explore": {"case": "bbca_correct_sender", "check_validity": True}})
    assert cli.main(["explore", "--config", path, "--depth", "2"]) == 0
    assert "verdict: PASS" in capsys.readouterr().out


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
