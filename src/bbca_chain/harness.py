"""Run orchestration and report rendering.

Single runs evaluate the selected invariant checks over one trace; campaigns
sweep seeds (``seed + i``) and fail on the first violating run, carrying a
replayable witness (seed plus event position).  Reports are plain text, one
verdict line per check, with the measured trip counts next to the expected
and reference numbers for uniform failure-free scenarios.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, NamedTuple

from .scenario import HarnessConfig
from .invariants import measure_trips
from .simnet import RunResult, Simulator

if TYPE_CHECKING:
    from .explore import ExploreResult

# Static reference latencies, in trips, for a layered DAG protocol built on
# a 3-trip consistent broadcast: two broadcasts for a leader block, four for
# a non-leader block.
REFERENCE_TRIPS = {"leader": 6, "non-leader": 12}


class RunOutcome(NamedTuple):
    config: HarnessConfig
    result: RunResult
    verdicts: dict[str, list[str]]
    wall_ms: float

    @property
    def ok(self) -> bool:
        return (not self.result.failed
                and all(not v for v in self.verdicts.values()))


class CampaignOutcome:
    def __init__(self, config: HarnessConfig, count: int):
        self.config = config
        self.count = count
        self.runs = 0
        self.failures: list[tuple[int, str]] = []  # (seed, what)
        self.wall_ms = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def evaluate(result: RunResult, config: HarnessConfig) -> dict[str, list[str]]:
    verdicts: dict[str, list[str]] = {}
    for name, check in config.selected_checks():
        verdicts[name] = check(result, config)
    if result.failed:
        index, text = result.trace.failure
        verdicts.setdefault("runtime", []).append(
            f"safety violation at event {index}: {text}")
    return verdicts


def run_config(config: HarnessConfig) -> RunOutcome:
    started = time.perf_counter()
    result = Simulator(config.scenario).run()
    verdicts = evaluate(result, config)
    wall_ms = (time.perf_counter() - started) * 1000
    return RunOutcome(config, result, verdicts, wall_ms)


def _campaign_worker(args) -> tuple[int, list[str]]:
    """One seed's run: the seed and the first problem of each failed check."""
    config, seed = args
    scenario = replace(config.scenario, seed=seed)
    outcome = run_config(replace(config, scenario=scenario))
    return seed, [problems[0] for problems in outcome.verdicts.values()
                  if problems]


def run_campaign(config: HarnessConfig, count: int,
                 jobs: int = 1) -> CampaignOutcome:
    started = time.perf_counter()
    outcome = CampaignOutcome(config, count)
    tasks = [(config, config.scenario.seed + i) for i in range(count)]
    if jobs > 1:
        # Imported here, not at module level: a serial run then loads no
        # multiprocessing (-7% campaign_byz peak RSS, perfbench seed 23).
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_campaign_worker, tasks, chunksize=8))
    else:
        results = [_campaign_worker(task) for task in tasks]
    for seed, failures in results:
        outcome.runs += 1
        outcome.failures.extend((seed, text) for text in failures)
    outcome.wall_ms = (time.perf_counter() - started) * 1000
    return outcome


def run_explore(config: HarnessConfig, depth: int,
                max_leaves: int | None = None) -> ExploreResult:
    spec = config.explore
    if spec is None:
        raise ValueError("config has no explore section")
    # Here: a simulator command skips a 3.7-5.8 ms import (-X importtime).
    from .explore import CASES, explore
    kwargs = ({} if spec.timeout_node is None
              else {"timeout_node": spec.timeout_node})
    world = CASES[spec.case](**kwargs)
    return explore(
        world, depth, spec.max_leaves if max_leaves is None else max_leaves,
        check_validity=spec.check_validity)


# -- reports -------------------------------------------------------------------

def _latency_lines(outcome: RunOutcome) -> list[str]:
    config, result = outcome.config, outcome.result
    if not config.expect_trips:
        return []
    lines = ["latency (trips = commit delay / hop delay):",
             f"  {'block':<18}{'measured':>9}{'expected':>9}{'reference':>11}"]
    for row in measure_trips(result, config.expect_trips):
        measured = "-" if row.measured is None else str(row.measured)
        lines.append(f"  {row.label:<18}{measured:>9}{row.expected:>9}"
                     f"{REFERENCE_TRIPS[row.role]:>11}")
    return lines


def render_report(outcome: RunOutcome) -> str:
    config, result = outcome.config, outcome.result
    trace = result.trace
    lines = [
        f"scenario: {config.name}",
        f"seed: {config.scenario.seed}",
        f"verdict: {'PASS' if outcome.ok else 'FAIL'}",
        f"stop: {trace.stop_reason} after {trace.events_processed} events, "
        f"{outcome.wall_ms:.0f} ms",
        f"trace sha256: {trace.digest()}",
        "",
        "invariants:",
    ]
    for name, problems in outcome.verdicts.items():
        lines.append(f"  {'PASS' if not problems else 'FAIL'} {name}")
        for problem in problems[:5]:
            lines.append(f"    - {problem}")
    if not outcome.ok:
        index = trace.failure[0] if trace.failure else trace.events_processed
        lines.append(f"  witness: seed={config.scenario.seed} "
                     f"event-prefix={index} (rerun with the same config)")
    latency = _latency_lines(outcome)
    if latency:
        lines.append("")
        lines.extend(latency)
    lines.append("")
    lines.append("nodes:")
    for node_id in sorted(result.nodes):
        node = result.nodes[node_id]
        role = config.scenario.strategies.get(node_id)
        tag = f" byzantine:{role.name}" if role else ""
        lines.append(
            f"  node {node_id}: view={node.view} "
            f"last_committed={node.last_committed} "
            f"log_len={len(node.committed_log)}{tag}")
        for position, view, digest, kind, author in node.committed_log_export():
            lines.append(f"    {position:>3} v{view} {kind.lower():<8} "
                         f"a{author} {digest[:16]}")
    return "\n".join(lines) + "\n"


def render_campaign_report(outcome: CampaignOutcome) -> str:
    config = outcome.config
    lines = [
        f"campaign: {config.name}",
        f"seeds: {config.scenario.seed}..{config.scenario.seed + outcome.count - 1}",
        f"runs: {outcome.runs}",
        f"verdict: {'PASS' if outcome.ok else 'FAIL'}",
        f"wall: {outcome.wall_ms:.0f} ms",
    ]
    if outcome.failures:
        lines.append("failures:")
        for seed, text in outcome.failures[:10]:
            lines.append(f"  seed={seed} {text}")
        lines.append("  (rerun any failing seed with `run` for the full trace)")
    return "\n".join(lines) + "\n"


def render_explore_report(config: HarnessConfig, depth: int,
                          result: ExploreResult) -> str:
    lines = [
        f"explore: {config.name} case={config.explore.case} depth={depth}",
        f"leaves: {result.leaves}{' (partial: leaf cap hit)' if result.partial else ''}",
        f"verdict: {'PASS' if result.ok else 'FAIL'}",
    ]
    for problem, witness in result.violations[:10]:
        lines.append(f"  {problem}")
        lines.append(f"    schedule: {' '.join(witness[:24])}"
                     f"{' ...' if len(witness) > 24 else ''}")
    return "\n".join(lines) + "\n"
