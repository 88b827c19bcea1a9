"""Report the traced memory of each phase of one sim_long repetition.

    python3 tools/peak_memory.py --seed 3

Builds the workload as a ``perfbench`` worker does: a child interpreter
derives the inputs from the seed, so that what the derivation allocates
stays out of this process, and this process runs ``Work.setup`` and then
the three phases of the one operation in the same order:
``Simulator.run``, ``harness.evaluate`` and ``Trace.digest``.  ``tracemalloc`` starts after the program is imported
and before the set-up; for each phase it prints the memory Python
allocations held when the phase began, the most they held at once during
it, and what they held when it ended.  Unlike peak RSS these figures do
not depend on the allocator or on what the process did before, so they
are the same on every run of one seed and one Python version.

The header counts the trace records the run hashed.  The report then
says where the run-end memory sits: it releases, one at a time and in
this order, the unhashed trace ``records``, each trace side table (the
packed ``view_entries`` and ``block_ticks`` first, under their own
labels), the DAGs' committed digests and then the DAGs, the live BBCA
instances and the outcome rows of dropped ones, each node's
``new_view_blocks`` and ``held_certs`` (the tables a node collects as it
runs), the ``finalized`` digests with the ``awaiting`` table, the
committed logs and the run's memo of pure results, and prints the memory
each release freed.  An object held by two structures is counted with the
later one, so the order is part of the figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py, read-only)

MIB = 1024 * 1024

# Per-view chain state other than the BBCA instances, the DAG, the log and
# the tables a node collects as it runs (released first, one row each):
# one digest or skip per view, and the backbones awaiting delivery.
COLLECTED_TABLES = ("new_view_blocks", "held_certs")
CHAIN_TABLES = ("finalized", "awaiting")

# Run in a child interpreter: derives the sim_long inputs of a seed there,
# so that what the derivation allocates stays out of this process.
DERIVE = """
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
import workloads
workloads.import_program(root)
print(json.dumps(workloads.make_inputs("sim_long", int(sys.argv[2]))))
"""


def derive_inputs(seed: int) -> dict:
    """The sim_long inputs of ``seed``, derived in a child interpreter."""
    proc = subprocess.run([sys.executable, "-c", DERIVE, str(ROOT),
                           str(seed)], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def releases(result) -> list[tuple[str, object]]:
    """(label, release) for each structure a finished run retains, in the
    order to release them; releasing empties ``result`` and its memo."""
    trace, nodes = result.trace, list(result.nodes.values())

    def clear_each(names):
        def release():
            for node in nodes:
                for name in names:
                    getattr(node, name).clear()
        return release

    def drop_dags():
        for node in nodes:
            node.dag = None

    memo = nodes[0].memo  # one per run, shared by every node
    instances = sum(len(node.instances) for node in nodes)
    rows = sum(len(node.outcomes) for node in nodes)
    views = sum(len(node.finalized) for node in nodes)
    # Every attribute that can be emptied, in the order ``Trace.__init__``
    # sets them: the lists, the dicts and the packed tables; the deliveries
    # are only a count.
    out = [(f"trace {name}", value.clear)
           for name, value in vars(trace).items() if hasattr(value, "clear")]
    out += [("DAG committed digests", clear_each(("committed_set",))),
            ("node DAGs", drop_dags),
            (f"BBCA instances ({instances})", clear_each(("instances",))),
            (f"BBCA outcome rows ({rows})", clear_each(("outcomes",)))]
    out += [(name, clear_each((name,))) for name in COLLECTED_TABLES]
    out += [(f"finalized digests ({views}), awaiting",
             clear_each(CHAIN_TABLES)),
            ("committed logs", clear_each(("committed_log",
                                           "committed_rows"))),
            (f"run memo ({len(memo)} views)", memo.clear)]
    return out


def count_hashed(trace) -> list[int]:
    """Make ``trace.flush`` count the records it hashes, into the one-item
    list returned: a run leaves only the unhashed tail in ``records``."""
    hashed = [0]
    flush = trace.flush

    def counting():
        hashed[0] += len(trace.records)
        flush()

    trace.flush = counting
    return hashed


def retained(to_release) -> list[tuple[str, int]]:
    """Run each ``(label, release)`` in turn; return the bytes of traced
    memory each release freed."""
    rows = []
    for label, release in to_release:
        before = tracemalloc.get_traced_memory()[0]
        release()
        rows.append((label, before - tracemalloc.get_traced_memory()[0]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    inputs = derive_inputs(args.seed)
    workloads.import_program(ROOT)
    from bbca_chain import harness

    work = workloads.Work("sim_long", inputs)
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
        hashed = count_hashed(work.simulator.trace)
        result = traced("run", work.simulator.run)
        traced("evaluate", lambda: harness.evaluate(result, work.config))
        digest = traced("digest", result.trace.digest)
        records = hashed[0]
        held = retained(releases(result))
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    same = digest == work.inputs["reference_digest"]
    print(f"workload sim_long seed {args.seed}: {records} "
          f"trace records, digest {digest[:16]}"
          f"{'' if same else ' (differs from the derived reference)'}")
    print(f"{'phase':<10}{'start MiB':>11}{'peak MiB':>10}{'end MiB':>9}"
          f"{'peak - start':>14}")
    for name, before, peak, after in rows:
        print(f"{name:<10}{before / MIB:>11.2f}{peak / MIB:>10.2f}"
              f"{after / MIB:>9.2f}{(peak - before) / MIB:>14.2f}")
    print(f"\n{'retained at run end, released in turn':<46}{'MiB':>8}")
    for label, freed in held:
        print(f"{label:<46}{freed / MIB:>8.2f}")
    print(f"{'left':<46}{left / MIB:>8.2f}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
