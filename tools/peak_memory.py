"""Report the traced memory of each phase of one sim_long repetition.

    python3 tools/peak_memory.py --seed 3

Builds the workload exactly as ``perfbench`` does (same inputs from the
seed, same ``Work.setup``), then runs the three phases of its one
operation in the same order: ``Simulator.run``, ``harness.evaluate`` and
``Trace.digest``.  ``tracemalloc`` starts after the inputs are derived and
before the set-up; for each phase it prints the memory Python allocations
held when the phase began, the most they held at once during it, and what
they held when it ended.  Unlike peak RSS these figures do not depend on
the allocator or on what the process did before, so they are the same
on every run of one seed and one Python version.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read-only)

MIB = 1024 * 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    workloads.import_program(ROOT)
    from bbca_chain import harness

    work = workloads.Work("sim_long",
                          workloads.make_inputs("sim_long", args.seed))
    rows = []

    def traced(name, fn):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        value = fn()
        after, peak = tracemalloc.get_traced_memory()
        rows.append((name, before, peak, after))
        return value

    tracemalloc.start()
    try:
        traced("setup", work.setup)
        result = traced("run", work.simulator.run)
        traced("evaluate", lambda: harness.evaluate(result, work.config))
        digest = traced("digest", result.trace.digest)
    finally:
        tracemalloc.stop()

    same = digest == work.inputs["reference_digest"]
    print(f"workload sim_long seed {args.seed}: {len(result.trace.records)} "
          f"trace records, digest {digest[:16]}"
          f"{'' if same else ' (differs from the derived reference)'}")
    print(f"{'phase':<10}{'start MiB':>11}{'peak MiB':>10}{'end MiB':>9}"
          f"{'peak - start':>14}")
    for name, before, peak, after in rows:
        print(f"{name:<10}{before / MIB:>11.2f}{peak / MIB:>10.2f}"
              f"{after / MIB:>9.2f}{(peak - before) / MIB:>14.2f}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
