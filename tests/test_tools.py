"""Smoke tests of the scripts under ``tools/``, run in process."""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

from bbca_chain import explore as ex
from bbca_chain.bbca import InstanceId
from bbca_chain.simnet import Scenario, Simulator, run
from conftest import filled_module_caches

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name, monkeypatch):
    # The tool puts ``perfbench/`` on ``sys.path``; undo it after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        f"tool_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frame_count_is_deterministic_and_names_record_constructors(
        monkeypatch):
    frame_count = _load_tool("frame_count", monkeypatch)

    def tiny_run():
        run(Scenario(n=4, horizon=2))

    # The memoized digests and statements are warm after one run, so two
    # later runs execute the same Python frames.
    tiny_run()
    first = frame_count.count_calls(tiny_run)
    second = frame_count.count_calls(tiny_run)
    assert sum(first.values()) > 0
    assert first == second
    # A named tuple's generated ``__new__`` is a ``<lambda>``; only its
    # field names tell one record type from another.
    assert frame_count.describe(InstanceId.__new__.__code__).endswith(
        ":<lambda>(sender, view)")


def test_frame_check_fails_a_rise_past_tolerance_or_a_new_digest(
        monkeypatch):
    frame_count = _load_tool("frame_count", monkeypatch)
    pinned = {"frames": 100_000, "setup_frames": 2_000, "setup_lines": 3_000,
              "digest": "ab" * 32}
    assert frame_count.regressions(pinned, dict(pinned, frames=90_000)) == []
    assert frame_count.regressions(pinned, dict(
        pinned, frames=100_500, setup_frames=2_010, setup_lines=3_015)) == []
    rise, = frame_count.regressions(pinned, dict(pinned, frames=100_501))
    assert "100501 frames exceed the pinned 100000" in rise
    rise, = frame_count.regressions(pinned, dict(pinned, setup_frames=2_011))
    assert "2011 set-up frames exceed the pinned 2000" in rise
    rise, = frame_count.regressions(pinned, dict(pinned, setup_lines=3_016))
    assert "3016 loaded source lines exceed the pinned 3000" in rise
    moved, = frame_count.regressions(pinned, dict(pinned, digest="cd" * 32))
    assert "behaviour digest" in moved
    # The checked-in pin covers every benchmark workload.
    pins = json.loads((ROOT / "BENCH_frames.json").read_text())
    assert set(pins["workloads"]) == set(frame_count.workloads.WORKLOADS)
    assert all(len(entry["top"]) == frame_count.PIN_TOP
               and set(frame_count.TOTALS) <= set(entry)
               for entry in pins["workloads"].values())


def test_frame_check_prints_how_each_pinned_top_function_moved(
        monkeypatch, tmp_path, capsys):
    frame_count = _load_tool("frame_count", monkeypatch)
    pinned_top = {"src/a.py:10:f": 500, "src/a.py:20:g": 300,
                  "src/a.py:30:gone": 40,
                  "src/b.py:5:h.<locals>.<genexpr>": 100,
                  "src/b.py:6:h.<locals>.<genexpr>": 50}
    # An edit above each function shifted its line: g did not move, f and
    # h's two generator expressions (summed under one name) did, and gone
    # is no longer called.  A function outside the pinned list is not named.
    fresh_top = {"src/a.py:12:f": 400, "src/a.py:22:g": 300,
                 "src/b.py:9:h.<locals>.<genexpr>": 100,
                 "src/b.py:10:h.<locals>.<genexpr>": 70,
                 "src/c.py:1:new": 900}
    moved = [("src/a.py:f", 500, 400), ("src/a.py:gone", 40, 0),
             ("src/b.py:h.<locals>.<genexpr>", 150, 170)]
    assert frame_count.top_deltas(pinned_top, fresh_top) == moved
    # ``--check`` prints them under a total that moved, and only there.
    digest = "ab" * 32
    setup = {"setup_frames": 2_000, "setup_lines": 3_000}
    entries = {"moved": {"frames": 10_000, **setup, "digest": digest,
                         "top": pinned_top},
               "held": {"frames": 10_000, **setup, "digest": digest,
                        "top": pinned_top}}
    pin_file = tmp_path / "BENCH_frames.json"
    pin_file.write_text(json.dumps({
        "python": frame_count.platform.python_version(), "seed": 3,
        "workloads": entries}))
    fresh = {"moved": {"frames": 9_000, **setup, "digest": digest,
                       "top": fresh_top},
             "held": {"frames": 10_000, "setup_frames": 1_500,
                      "setup_lines": 2_900, "digest": digest,
                      "top": fresh_top}}
    monkeypatch.setattr(frame_count, "PIN_FILE", pin_file)
    monkeypatch.setattr(frame_count, "measure_fresh",
                        lambda workload, seed, top: fresh[workload])
    assert frame_count.check() == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved: 10000 -> 9000 frames (-10.00%) ok",
        "  set-up: 2000 -> 2000 frames, 3000 -> 3000 loaded source lines",
        "       -100  src/a.py:f (500 -> 400)",
        "        -40  src/a.py:gone (40 -> 0)",
        "        +20  src/b.py:h.<locals>.<genexpr> (150 -> 170)",
        "held: 10000 -> 10000 frames (+0.00%) ok",
        "  set-up: 2000 -> 1500 frames, 3000 -> 2900 loaded source lines"]


def test_frame_count_counts_start_up_in_a_fresh_interpreter(monkeypatch):
    frame_count = _load_tool("frame_count", monkeypatch)
    explore = frame_count.workloads.make_inputs("explore_mixed", 3)
    counts = frame_count.count_setup_fresh("explore_mixed", explore)
    assert counts == frame_count.count_setup_fresh("explore_mixed", explore)
    assert counts["setup_frames"] > 0
    # The explorer's set-up loads every module but the CLI and the harness;
    # a simulator workload's loads no explorer either.
    package = ROOT / "src" / "bbca_chain"
    lines = {path.stem: len(path.read_bytes().splitlines())
             for path in package.glob("*.py")}
    assert counts["setup_lines"] == sum(lines.values()) - lines["cli"] \
        - lines["harness"]
    sim = frame_count.workloads.make_inputs("sim_long", 3)
    sim_counts = frame_count.count_setup_fresh("sim_long", sim)
    assert sim_counts["setup_lines"] == \
        counts["setup_lines"] - lines["explore"]


def test_peak_memory_releases_each_retained_structure(monkeypatch):
    peak_memory = _load_tool("peak_memory", monkeypatch)
    tracemalloc.start()
    try:
        result = run(Scenario(n=4, seed=1, delta_post=10, horizon=6))
        to_release = peak_memory.releases(result)
        rows = peak_memory.retained(to_release)
    finally:
        tracemalloc.stop()
    labels = [label for label, _ in to_release]
    assert labels[:3] == ["trace records", "trace view_entries",
                          "trace block_ticks"]
    assert not any(label.startswith("trace deliveries") for label in labels)
    for prefix in ("trace bbca_sends", "trace ancestry", "trace delays",
                   "DAG committed digests", "node DAGs",
                   "BBCA instances (", "BBCA outcome rows (",
                   "new_view_blocks",
                   "held_certs", "finalized digests ("):
        assert any(label.startswith(prefix) for label in labels), prefix
    assert labels[-2] == "committed logs"
    assert labels[-1].startswith("run memo (")
    assert sum(freed for _, freed in rows) > 0
    assert not result.nodes[0].memo
    for node in result.nodes.values():
        assert node.dag is None and not node.instances and not node.outcomes
        assert not node.new_view_blocks and not node.held_certs
        assert not node.finalized and not node.committed_log
        assert not node.committed_rows
    assert not result.trace.records
    assert not result.trace.view_entries
    assert not result.trace.block_ticks.refs
    assert not result.trace.block_ticks.rows
    assert not result.trace.bbca_sends.first
    assert not result.trace.bbca_sends.repeats


def test_peak_memory_counts_the_records_a_run_hashes(monkeypatch):
    peak_memory = _load_tool("peak_memory", monkeypatch)
    scenario = Scenario(n=4, seed=1, delta_post=10, horizon=6)
    kept = Simulator(scenario)
    kept.trace.kept = []
    kept.run().trace.digest()
    counted = Simulator(scenario)
    hashed = peak_memory.count_hashed(counted.trace)
    counted.run().trace.digest()
    assert hashed == [len(kept.trace.kept)]
    assert not counted.trace.records


def test_peak_memory_derives_the_inputs_outside_the_measuring_process(
        monkeypatch):
    peak_memory = _load_tool("peak_memory", monkeypatch)
    inputs = peak_memory.derive_inputs(3)
    # Nothing of the derivation stays in this process: no program cache
    # holds an entry.
    assert filled_module_caches() == {}
    assert inputs["raw"]["name"] == "sim_long" and inputs["raw"]["payloads"]
    assert len(inputs["reference_digest"]) == 64


def test_peak_memory_reports_each_explore_case(monkeypatch, capsys):
    peak_memory = _load_tool("peak_memory", monkeypatch)
    case = {"case": "bbca_correct_sender", "depth": 2, "kwargs": {},
            "check_validity": True}
    (name, leaves, peak, clones, most), = peak_memory.explore_rows([case])
    # Each branch point of L branches clones L - 1 worlds, and the DFS
    # holds at most one per level on top of the one running.
    assert (name, leaves, clones) == ("bbca_correct_sender", 68, 67)
    assert 0 < most <= case["depth"] + 1
    assert peak > 0
    # The clone count leaves the worlds' own ``clone`` in place.
    assert ex.BbcaWorld.clone.__module__ == "bbca_chain.explore"
    monkeypatch.setattr(peak_memory.workloads, "make_inputs",
                        lambda workload, seed: {"cases": [case]})
    assert peak_memory.main(["--workload", "explore_mixed", "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload explore_mixed seed 3"
    assert out[2].split()[:3] == ["bbca_correct_sender", "2", "68"]
    assert out[2].split()[-2:] == ["67", str(most)]


def test_perfbench_tracer_targets_resolve_against_the_package():
    # A span target or counter the tracer cannot find is skipped, so its
    # per-layer metrics read 0 without an error: ``simnet.trace_digest_s``
    # needs ``simnet.Trace`` by name, ``simnet.dispatch`` needs
    # ``Simulator._dispatch``.  A "Class.method" target must be defined on
    # the class itself, as the tracer patches it there.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, *_ in tracer.TARGETS + tracer.COUNTED:
        module = importlib.import_module(f"bbca_chain.{module_name}")
        if "." in attr:
            owner, method = attr.split(".")
            cls = getattr(module, owner, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    # Stale today: the DAG no longer has ``ancestry``, and the chain node
    # no longer has ``audit_probe``.
    assert missing == ["dag.DagStore.ancestry", "chain.ChainNode.audit_probe"]
