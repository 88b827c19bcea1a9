"""Benchmark entry point: one workload, measured in fresh worker processes.

    python3 perfbench/run.py --workload sim_long --seed 1 --seconds 40 --trace 0

Inputs come from ``--seed``.  With ``--trace 0`` the workload's fixed work
is repeated, one fresh process per repetition, until ``--seconds`` is
used up (at least three repetitions), and the end-to-end metrics are
medians over the repetitions.  The time-based ones are scaled by a
reference work that runs right after each repetition (see
``at_reference``).  With ``--trace 1`` one untraced and one
traced repetition run, and the per-layer metrics come from the traced
one.  Every repetition must reproduce the same deterministic counts and
behaviour digest.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full report is
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_REPS = 3
SETUP_SAMPLES = 15
# The time the reference work (reference.py) is scaled to; about what it
# takes on the 2-vCPU machine the baseline was measured on, in a quiet spell.
REFERENCE_S = 0.6
REFERENCE_CHECKSUM = ("3d9c3fd2912b8bf0bbe8982bc4f180d0"
                      "cc39a0355745f61fbd9a6266b4b7839d")
WORKER_TIMEOUT_S = 150


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[section]}


class BenchError(Exception):
    pass


def run_json(script: Path, payload: str = "") -> dict:
    """Run ``script`` in a fresh interpreter; return its last output line."""
    proc = subprocess.run([sys.executable, str(script)],
                          input=payload, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{script.name} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn(spec: dict) -> dict:
    payload = json.dumps(spec | {"spawned_at": time.monotonic()})
    return run_json(HERE / "worker.py", payload)


def determinism_problems(reps: list[dict], reference: str | None) -> list[str]:
    """Every repetition must reproduce the first one's counts and digest."""
    problems = []
    first = reps[0]
    for index, rep in enumerate(reps[1:], start=1):
        if rep["counts"] != first["counts"]:
            problems.append(f"repetition {index} counts {rep['counts']} "
                            f"differ from {first['counts']}")
        if rep["digest"] != first["digest"]:
            problems.append(f"repetition {index} digest {rep['digest']} "
                            f"differs from {first['digest']}")
    if reference is not None and first["digest"] != reference:
        problems.append(f"digest {first['digest']} differs from the input "
                        f"generator's run {reference}")
    return problems


def end_to_end(reps: list[dict], setups: list[dict]) -> dict:
    """Medians over repetitions (and set-up samples) of each one's own
    figures, the time-based ones at the reference speed."""
    def median(fn):
        return statistics.median(fn(rep) for rep in reps)

    def wall(rep):
        return at_reference(rep["wall_s"], rep["reference_s"])

    def leaves(rep):
        # A simulator run ends in one checked end state, as a leaf does.
        return rep["counts"].get("leaves", rep["counts"]["operations"])

    def run_ms(rep, pct):
        return workloads.percentile(
            [op["seconds"] * 1000 for op in rep["ops"]], pct)

    return {
        "setup_s": statistics.median(
            at_reference(s["setup_s"], s["reference_s"]) for s in setups),
        "wall_s": median(wall),
        "events_per_s": median(lambda r: r["counts"]["events"] / wall(r)),
        "runs_per_s": median(lambda r: r["counts"]["operations"] / wall(r)),
        "leaves_per_s": median(lambda r: leaves(r) / wall(r)),
        "run_ms_p50": median(lambda r: run_ms(r, 50)),
        "run_ms_p90": median(lambda r: run_ms(r, 90)),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "measured_setup_s": statistics.median(s["setup_s"] for s in setups),
        "measured_wall_s": median(lambda r: r["wall_s"]),
        "reference_s": median(lambda r: r["reference_s"]),
    }


def at_reference(seconds: float, reference_s: float) -> float:
    """``seconds`` at the speed at which the reference work takes
    ``REFERENCE_S``, given that it took ``reference_s`` around then.

    Other tenants of the machine slow it by up to 70% for a minute or more
    at a time, far beyond what a longer run or a median can average out.
    The reference work runs in its own process just before and just after
    each repetition and is slowed alike, so the ratio of the times holds
    steady; it does not use the program, so only the program's own cost
    moves it.
    """
    return seconds * REFERENCE_S / reference_s


def reference_run() -> float:
    """Seconds the reference work took in a fresh process."""
    out = run_json(HERE / "reference.py")
    if out["checksum"] != REFERENCE_CHECKSUM:
        raise BenchError(f"reference work computed {out['checksum']}, "
                         f"not {REFERENCE_CHECKSUM}")
    return out["seconds"]


def measure(spec: dict, seconds: int) -> tuple[list[dict], list[dict]]:
    """Repeat the work, with the reference work before and after each
    repetition, until ``seconds`` are used.  Every repetition gives a
    set-up sample; between repetitions, processes that only set up add
    samples in step with the elapsed share of the run, so that the
    SETUP_SAMPLES samples spread over the whole run.  A repetition's
    reference time is the mean of the two around it; a set-up-only
    sample's is the one just before it."""
    reps, setups = [], []
    started = time.monotonic()
    before = reference_run()
    while True:
        rep = spawn(spec)
        after = reference_run()
        rep["reference_s"] = (before + after) / 2
        before = after
        reps.append(rep)
        setups.append({"setup_s": rep["setup_s"],
                       "reference_s": rep["reference_s"]})
        elapsed = time.monotonic() - started
        done = (len(reps) >= MIN_REPS
                and elapsed * (1 + 1 / len(reps)) > seconds)
        due = SETUP_SAMPLES if done else math.ceil(
            SETUP_SAMPLES * min(1.0, elapsed / seconds))
        while len(setups) < due:
            sample = spawn(spec | {"setup_only": True})["setup_s"]
            setups.append({"setup_s": sample, "reference_s": after})
        if done:
            return reps, setups


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    for family in ("bbca", "chain"):
        ops = [op for op in untraced["ops"]
               if op["label"].startswith(family) and "leaves" in op]
        took = sum(op["seconds"] for op in ops)
        values[f"explore.{family}.leaves_per_s"] = (
            sum(op["leaves"] for op in ops) / took if took else 0.0)
    values["bench.trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads.import_program(ROOT)
    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = inputs.pop("reference_digest", None)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = {"root": str(ROOT), "workload": args.workload, "inputs": inputs,
            "trace": False, "spans_path": str(OUT_DIR / f"{stem}-spans.tsv")}

    try:
        if args.trace:
            reps = [spawn(spec), spawn(spec | {"trace": True})]
            values = per_layer(*reps)
            units = metric_units("per_layer")
            samples = {"repetitions": 2,
                       "trace_missing": reps[1]["trace_missing"],
                       "spans_kept": reps[1]["spans_kept"],
                       "spans_dropped": reps[1]["spans_dropped"]}
        else:
            reps, setups = measure(spec, args.seconds)
            values = end_to_end(reps, setups)
            samples = {"repetitions": len(reps), "setup_samples": setups,
                       "run_ms_samples_per_repetition": len(reps[0]["ops"])}
            units = metric_units("end_to_end")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = determinism_problems(reps, reference)
    problems += [f"{op['label']}: {text}" for rep in reps for op in rep["ops"]
                 for text in op.get("problems", [])]
    attempted = sum(rep["counts"]["attempted"] for rep in reps)
    failed = sum(rep["counts"]["failed"] for rep in reps)
    correct = not problems and failed == 0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    first = reps[0]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{samples['repetitions']} repetitions")
    print(f"counts {json.dumps(first['counts'], sort_keys=True)}")
    print(f"digest {first['digest']}")
    for name, value in sorted(first["protocol"].items()):
        print(f"protocol {name} {value:.6g}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"unbounded {name} {values[name]:.6g}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems[:10]:
        print(f"problem {problem}")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "correct": correct, "attempted": attempted, "failed": failed,
         "metrics": metrics, "unbounded": {k: values[k] for k in
                                           set(values) - set(metrics)},
         "samples": samples, "problems": problems,
         "repetitions": reps}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
