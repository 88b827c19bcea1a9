"""Count the Python frames one benchmark workload's fixed work runs.

    python3 tools/frame_count.py --workload explore_mixed --seed 3 --top 15
    python3 tools/frame_count.py --check     # recount against BENCH_frames.json
    python3 tools/frame_count.py --pin       # rewrite BENCH_frames.json

Builds the workload exactly as ``perfbench`` does (same inputs from the
seed, same ``Work.setup``), then counts every Python-level ``call`` event
during ``Work.run()`` under ``sys.setprofile``.  Calls into C functions are
not counted.  The work is deterministic, so the count is too: unlike wall
time it can tell apart two versions of a hot path whose speed differs by
less than the benchmark's run-to-run spread.  Prints the total and the
``--top`` functions by call count.

It also counts a worker's start-up: in another fresh interpreter, fed the
derived inputs on stdin (``--setup WORKLOAD``), the frames of importing
the program plus ``Work.setup()``, and the source lines of the
``bbca_chain`` modules that start-up loaded.

``--pin`` counts every workload at seed 3, each in a fresh interpreter
(deriving the inputs runs the program there first, which leaves nothing
behind: the program keeps no cache across runs), and writes the totals,
the top 20 functions, the behaviour digests and the Python version to
``BENCH_frames.json``; the two start-up counts are totals too.
``--check`` recounts at the pinned seed and exits 1 if a total rose by
more than 0.5% or a behaviour digest changed (re-pin in the same commit
as a change that means it), and 2 under another Python version, whose
counts are not comparable.  When a total moved, it also prints how the
count of each pinned top function moved, keyed by path and qualified
name: any edit above a function shifts the line number in its pinned key.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read-only)

PIN_FILE = ROOT / "BENCH_frames.json"
PIN_SEED = 3
PIN_TOP = 20
TOLERANCE = 0.005  # a pinned total may rise by this share before --check fails
# The pinned totals, and how ``--check`` names each.
TOTALS = {"frames": "frames", "setup_frames": "set-up frames",
          "setup_lines": "loaded source lines"}


def count_calls(fn) -> Counter:
    """Run ``fn()``; return its Python ``call`` events by code object."""
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    # A collector callback (a test framework may install one) runs Python
    # code whenever a collection happens to fall inside ``fn``; its frames
    # are not the work's, so none is called while counting.
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.callbacks[:] = callbacks
    return calls


def describe(code) -> str:
    try:
        where = Path(code.co_filename).resolve().relative_to(ROOT)
    except ValueError:
        where = Path(code.co_filename).name
    name = getattr(code, "co_qualname", code.co_name)  # 3.11+
    if code.co_filename == "<string>":
        # Generated code: a named tuple's ``__new__`` is a ``<lambda>``,
        # told apart by its field names.
        name += f"({', '.join(code.co_varnames[1:code.co_argcount])})"
    return f"{where}:{code.co_firstlineno}:{name}"


def count_setup(workload: str, inputs: dict) -> dict:
    """Start-up counts of one worker: the Python frames of importing the
    program plus ``Work.setup()``, and the source lines of the
    ``bbca_chain`` modules loaded.  Run in an interpreter that has not
    imported the program yet."""
    if "bbca_chain" in sys.modules:
        raise SystemExit("count_setup needs an interpreter that has not "
                         "imported bbca_chain")
    work = workloads.Work(workload, inputs)

    def setup():
        workloads.import_program(ROOT)
        work.setup()

    calls = count_calls(setup)
    # The import system's own frames are left out: how many it runs per
    # module depends on whether a bytecode cache is on disk.
    frames = sum(count for code, count in calls.items()
                 if not code.co_filename.startswith("<frozen importlib."))
    modules = [module for name, module in sys.modules.items()
               if name.partition(".")[0] == "bbca_chain"]
    lines = sum(len(Path(module.__file__).read_bytes().splitlines())
                for module in modules)
    return {"setup_frames": frames, "setup_lines": lines}


def count_setup_fresh(workload: str, inputs: dict) -> dict:
    """``count_setup`` in a new interpreter, fed ``inputs`` on stdin."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup", workload],
        input=json.dumps(inputs), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def measure(workload: str, seed: int, top: int) -> dict:
    """One workload's frame total, top functions, digest and failures, and
    its start-up counts from a fresh interpreter."""
    workloads.import_program(ROOT)
    inputs = workloads.make_inputs(workload, seed)
    setup = count_setup_fresh(workload, inputs)
    work = workloads.Work(workload, inputs)
    work.setup()
    calls = count_calls(work.run)
    summary = workloads.summarize(workload, work.ops)
    return {"frames": sum(calls.values()), **setup,
            "digest": summary["digest"],
            "failed": summary["counts"]["failed"],
            "top": {describe(code): count
                    for code, count in calls.most_common(top or None)}}


def measure_fresh(workload: str, seed: int, top: int = PIN_TOP) -> dict:
    """``measure`` in a new interpreter, so no earlier work shares it."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--top", str(top), "--json"],
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def regressions(pinned: dict, fresh: dict) -> list[str]:
    """Why a fresh count breaks its pin; empty if it holds."""
    problems = []
    if fresh["digest"] != pinned["digest"]:
        problems.append(f"behaviour digest {fresh['digest'][:8]}... differs "
                        f"from the pinned {pinned['digest'][:8]}...")
    for key, name in TOTALS.items():
        if (fresh[key] - pinned[key]) / pinned[key] > TOLERANCE:
            problems.append(f"{fresh[key]} {name} exceed the pinned "
                            f"{pinned[key]} by more than {TOLERANCE:.1%}")
    return problems


def top_deltas(pinned_top: dict, fresh_top: dict) -> list[tuple]:
    """(function, pinned count, fresh count) for each function of the pinned
    top list whose count moved, the largest move first.

    ``describe`` keys lose their line numbers; functions that then share a
    key (two generator expressions in one function) are summed.  A pinned
    function missing from ``fresh_top`` counts 0, so pass every function.
    """
    def by_name(top: dict) -> Counter:
        counts: Counter = Counter()
        for where, count in top.items():
            path, _line, name = where.split(":", 2)
            counts[f"{path}:{name}"] += count
        return counts

    pinned, fresh = by_name(pinned_top), by_name(fresh_top)
    moved = [(key, count, fresh[key]) for key, count in pinned.items()
             if fresh[key] != count]
    return sorted(moved, key=lambda row: (-abs(row[2] - row[1]), row[0]))


def pin() -> int:
    entries = {}
    for workload in workloads.WORKLOADS:
        entries[workload] = measure_fresh(workload, PIN_SEED)
        if entries[workload]["failed"]:
            print(f"{workload}: failed operations; not pinned")
            return 1
        print(f"{workload}: {entries[workload]['frames']} frames")
    PIN_FILE.write_text(json.dumps(
        {"python": platform.python_version(), "seed": PIN_SEED,
         "workloads": entries}, indent=1) + "\n")
    return 0


def check() -> int:
    pinned = json.loads(PIN_FILE.read_text())
    if pinned["python"] != platform.python_version():
        print(f"counts pinned under Python {pinned['python']}, this is "
              f"{platform.python_version()}: not comparable; re-pin here")
        return 2
    failed = False
    for workload, entry in pinned["workloads"].items():
        fresh = measure_fresh(workload, pinned["seed"], top=0)
        change = fresh["frames"] / entry["frames"] - 1
        problems = regressions(entry, fresh)
        failed = failed or bool(problems)
        print(f"{workload}: {entry['frames']} -> {fresh['frames']} frames "
              f"({change:+.2%}) {'FAIL' if problems else 'ok'}")
        print(f"  set-up: {entry['setup_frames']} -> {fresh['setup_frames']} "
              f"frames, {entry['setup_lines']} -> {fresh['setup_lines']} "
              f"loaded source lines")
        for problem in problems:
            print(f"  {problem}")
        if fresh["frames"] != entry["frames"]:
            moved = top_deltas(entry["top"], fresh["top"])
            for key, before, after in moved:
                print(f"  {after - before:+9d}  {key} ({before} -> {after})")
            if not moved:
                print("  no pinned top function moved")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--pin", action="store_true")
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--setup", choices=workloads.WORKLOADS,
                      help="print the start-up counts of a workload fed "
                           "its inputs as JSON on stdin")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--top", type=int, default=10,
                        help="functions to list, 0 for all")
    parser.add_argument("--json", action="store_true",
                        help="print the count as one JSON object")
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    if args.check:
        return check()
    if args.setup:
        print(json.dumps(count_setup(args.setup, json.load(sys.stdin))))
        return 0
    if args.seed is None:
        parser.error("--workload needs --seed")

    result = measure(args.workload, args.seed, args.top)
    if args.json:
        print(json.dumps(result))
        return 0
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['frames']} Python frames, digest {result['digest']}, "
          f"failed {result['failed']}")
    print(f"set-up: {result['setup_frames']} Python frames, "
          f"{result['setup_lines']} loaded source lines")
    for where, count in result["top"].items():
        print(f"{count:>10}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
