"""Count the Python frames one benchmark workload's fixed work runs.

    python3 tools/frame_count.py --workload explore_mixed --seed 3 --top 15

Builds the workload exactly as ``perfbench`` does (same inputs from the
seed, same ``Work.setup``), then counts every Python-level ``call`` event
during ``Work.run()`` under ``sys.setprofile``.  Calls into C functions are
not counted.  The work is deterministic, so the count is too: unlike wall
time it can tell apart two versions of a hot path whose speed differs by
less than the benchmark's run-to-run spread.  Prints the total and the
``--top`` functions by call count.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read-only)


def count_calls(fn) -> Counter:
    """Run ``fn()``; return its Python ``call`` events by code object."""
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)

    workloads.import_program(ROOT)
    work = workloads.Work(args.workload,
                          workloads.make_inputs(args.workload, args.seed))
    work.setup()
    calls = count_calls(work.run)
    summary = workloads.summarize(args.workload, work.ops)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{sum(calls.values())} Python frames, digest {summary['digest']}, "
          f"failed {summary['counts']['failed']}")
    for code, count in calls.most_common(args.top):
        print(f"{count:>10}  {describe(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
