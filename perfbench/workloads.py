"""Workload inputs, generated from the benchmark seed, and the fixed work
that one worker process measures on them.

Each workload is a fixed amount of work: the same seed gives the same
configs, the same counts and the same behaviour digest in every process.
The program only ever sees the generated configs.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

WORKLOADS = ("sim_long", "campaign_byz", "explore_mixed")

# sim_long: one long run, so DAG history and per-node state grow.
SIM_HORIZON = 400
SIM_EVERY = 20  # ticks between data-block injections
SIM_MARGIN = 10  # injections stop this many ticks before the last proposal

# campaign_byz: the Tier-1 criterion-3 shape at n=7, one sub-sweep per
# strategy.  The list is fixed here, not read from the program, so that a
# commit adding a strategy does not change the workload.
CAMPAIGN_STRATEGIES = ("silent", "withhold_ready", "equivocate_init",
                       "equivocate_data", "replay", "delay_own")
CAMPAIGN_SEEDS_PER_STRATEGY = 20
# A run either reaches stop_after_committed ("short") or runs on to the
# horizon ("long", about 4.5x the events).  Each sub-sweep holds a fixed
# number of long runs, close to the share measured over seeds 0-299 at the
# commit that introduced this benchmark (silent 0%, withhold_ready 21%,
# equivocate_init 2%, equivocate_data 20%, replay 27%, delay_own 10%).
# Without the quota the number of long runs in 20 seeds is binomial, and
# the work of one sweep varies by 15% from seed to seed.
CAMPAIGN_LONG_RUNS = {"silent": 0, "withhold_ready": 4, "equivocate_init": 0,
                      "equivocate_data": 4, "replay": 5, "delay_own": 2}
CAMPAIGN_SEED_STRIDE = 1000  # benchmark seed s screens seeds from 1000*s
CAMPAIGN_INVARIANTS = ["agreement", "prefix_consistency", "bbca_consistency",
                       "view_sync", "delay_soundness", "commit_ancestry",
                       "echo_once"]

# explore_mixed: the four BBCA cases and the two-view chain case, sized so
# that each family takes about half of the time.  A timeout token at node
# 0, 1 or 3 gives the same 936-leaf tree; node 2 prunes it to 828 leaves.
EXPLORE_CASES = (("bbca_correct_sender", 4), ("bbca_equivocating_sender", 4),
                 ("bbca_crashed", 5), ("bbca_replay_with_probes", 3),
                 ("chain_two_views", 3))
EXPLORE_TIMEOUT_NODES = (0, 1, 3)
EXPLORE_LEAF_CAP = 200_000


def import_program(root: Path):
    """Import ``bbca_chain`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "bbca_chain" / "__init__.py").is_file():
        raise SystemExit(f"bbca_chain sources not found under {src}")
    sys.path.insert(0, str(src))
    import bbca_chain
    if not Path(bbca_chain.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported bbca_chain from {bbca_chain.__file__}, "
                         f"not from {src}")
    return bbca_chain


# -- input generation -----------------------------------------------------

def sim_long_raw(seed: int, ticks: list[int]) -> dict:
    return {
        "name": "sim_long", "n": 4, "seed": seed, "delay": "random",
        "delta_post": 5, "gst": 0, "horizon": SIM_HORIZON,
        "payloads": [{"node": k % 4, "tick": tick}
                     for k, tick in enumerate(ticks)],
        "expect": {"growth": True, "log_identical": True,
                   **({"censorship_cutoff": ticks[-1]} if ticks else {})},
    }


def _last_proposal_tick(result, get_proposer) -> int:
    leader = get_proposer(SIM_HORIZON, result.scenario.params)
    return result.trace.view_entries[leader][SIM_HORIZON][0]


def derive_sim_long(seed: int) -> tuple[dict, str]:
    """Inject every SIM_EVERY ticks, all before the last proposal.

    The window comes from the run itself: a run without injections gives
    the tick at which the view-400 leader proposes; injections change the
    delay draws and so that tick, so the candidate is re-run and trimmed
    until every payload lands before the last proposal and every check,
    censorship included, passes.
    """
    from bbca_chain import harness
    from bbca_chain.chain import get_proposer
    from bbca_chain.scenario import parse_config

    bare = harness.run_config(parse_config(sim_long_raw(seed, [])))
    last = _last_proposal_tick(bare.result, get_proposer) - SIM_MARGIN
    ticks = list(range(SIM_EVERY, last + 1, SIM_EVERY))
    for _ in range(8):
        raw = sim_long_raw(seed, ticks)
        outcome = harness.run_config(parse_config(raw))
        last = _last_proposal_tick(outcome.result, get_proposer) - SIM_MARGIN
        if outcome.ok and ticks[-1] <= last:
            return raw, outcome.result.trace.digest()
        ticks = [t for t in ticks[:-1] if t <= last]
    raise SystemExit(f"sim_long: no injection window passes for seed {seed}")


def campaign_raws(seed: int) -> list[dict]:
    base = seed * CAMPAIGN_SEED_STRIDE
    raws = []
    for strategy in CAMPAIGN_STRATEGIES:
        role = {"strategy": strategy}
        if strategy == "delay_own":
            role["max_delay"] = 10
        raws.append({
            "name": f"campaign_byz-{strategy}", "n": 7, "seed": base,
            "delta_post": 5, "delay": "random", "gst": 40,
            "pre_gst": {"policy": "adversarial", "max_delay": 30},
            "t_max": 25, "horizon": 6, "stop_after_committed": 2,
            "adversary": {"1": role}, "invariants": CAMPAIGN_INVARIANTS,
        })
    return raws


def select_campaign_seeds(raw: dict, strategy: str) -> tuple[list[int], list[str]]:
    """Run seeds upward from the config's seed; keep the first ones that
    fill the sub-sweep's quotas of short and long runs.

    A run that fails a check is always kept, so screening never hides it.
    Returns the kept seeds and their trace digests.
    """
    from bbca_chain import harness
    from bbca_chain.scenario import parse_config

    config = parse_config(raw)
    long_runs = CAMPAIGN_LONG_RUNS[strategy]
    want = {"long": long_runs, "short": CAMPAIGN_SEEDS_PER_STRATEGY - long_runs}
    seeds, digests = [], []
    seed = config.scenario.seed
    while want["long"] or want["short"]:
        if seed - config.scenario.seed >= CAMPAIGN_SEED_STRIDE:
            raise SystemExit(f"campaign_byz: {strategy} quotas {want} not "
                             f"filled within {CAMPAIGN_SEED_STRIDE} seeds")
        outcome = harness.run_config(
            replace(config, scenario=replace(config.scenario, seed=seed)))
        kind = ("short" if outcome.result.trace.stop_reason == "target"
                else "long")
        if want[kind] or not outcome.ok:
            want[kind] = max(0, want[kind] - 1)
            seeds.append(seed)
            digests.append(outcome.result.trace.digest())
        seed += 1
    return seeds, digests


def campaign_inputs(seed: int) -> dict:
    raws, sweeps, digests = campaign_raws(seed), [], []
    for raw, strategy in zip(raws, CAMPAIGN_STRATEGIES):
        kept, kept_digests = select_campaign_seeds(raw, strategy)
        sweeps.append(kept)
        digests.extend(kept_digests)
    return {"raws": raws, "seeds": sweeps,
            "reference_digest": sha256_lines(digests)}


def sha256_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def explore_cases(seed: int) -> list[dict]:
    timeout_node = EXPLORE_TIMEOUT_NODES[seed % len(EXPLORE_TIMEOUT_NODES)]
    cases = []
    for case, depth in EXPLORE_CASES:
        entry = {"case": case, "depth": depth, "kwargs": {},
                 "check_validity": case == "bbca_correct_sender"}
        if case == "chain_two_views":
            entry["kwargs"] = {"timeout_node": timeout_node}
        cases.append(entry)
    return cases


def make_inputs(workload: str, seed: int) -> dict:
    """Configs for one workload.  For sim_long and campaign_byz this runs
    the program (imported first) to derive them."""
    if workload == "sim_long":
        raw, digest = derive_sim_long(seed)
        return {"raw": raw, "reference_digest": digest}
    if workload == "campaign_byz":
        return campaign_inputs(seed)
    if workload == "explore_mixed":
        return {"cases": explore_cases(seed)}
    raise SystemExit(f"unknown workload {workload!r}")


# -- measured work ----------------------------------------------------------

class Work:
    """One workload's set-up and fixed work inside a worker process.

    ``setup`` builds everything the first operation needs; ``run`` does the
    fixed work and appends one record per operation to ``ops``.  Hooks let
    the traced run observe each operation without changing it.
    """

    def __init__(self, workload: str, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self.ops: list[dict] = []
        self.after_op = None  # callback(simulator RunResult), traced run
        self.around_op = None  # callback(label) -> context manager, traced run

    def setup(self) -> None:
        from bbca_chain.scenario import parse_config
        if self.workload == "sim_long":
            from bbca_chain.simnet import Simulator
            self.config = parse_config(self.inputs["raw"])
            self.simulator = Simulator(self.config.scenario)
        elif self.workload == "campaign_byz":
            from bbca_chain import simnet
            missing = set(CAMPAIGN_STRATEGIES) - set(simnet.STRATEGIES)
            if missing:
                raise SystemExit(f"program lacks strategies {sorted(missing)}")
            self.configs = [parse_config(raw) for raw in self.inputs["raws"]]
        else:
            from bbca_chain import explore
            self.steps = 0
            for cls in (explore.BbcaWorld, explore.ChainWorld):
                cls.execute = self._counted(cls.execute)
            self.worlds = []
            for case in self.inputs["cases"]:
                builder = getattr(explore, case["case"])
                self.worlds.append((case, builder(**case["kwargs"])))

    def _counted(self, execute):
        """Count explorer steps: each ``execute`` delivers one message,
        runs one probe or fires one timer token."""
        def counted(world, index):
            self.steps += 1
            return execute(world, index)
        return counted

    def run(self) -> None:
        getattr(self, f"_run_{self.workload}")()

    def _timed(self, label, fn):
        scope = self.around_op(label) if self.around_op else nullcontext()
        with scope:
            started = time.perf_counter()
            value = fn()
            return value, time.perf_counter() - started

    def _run_sim_long(self) -> None:
        from bbca_chain import harness

        def op():
            result = self.simulator.run()
            verdicts = harness.evaluate(result, self.config)
            return result, verdicts, result.trace.digest()

        (result, verdicts, digest), seconds = self._timed("sim_long", op)
        self._record_sim("sim_long", result, verdicts, digest, seconds)

    def _run_campaign_byz(self) -> None:
        from bbca_chain import harness
        for config, seeds in zip(self.configs, self.inputs["seeds"]):
            for seed in seeds:
                def op(config=config, seed=seed):
                    scenario = replace(config.scenario, seed=seed)
                    outcome = harness.run_config(
                        replace(config, scenario=scenario))
                    return outcome, outcome.result.trace.digest()
                (outcome, digest), seconds = self._timed(config.name, op)
                self._record_sim(f"{config.name}/{seed}", outcome.result,
                                 outcome.verdicts, digest, seconds)

    def _run_explore_mixed(self) -> None:
        from bbca_chain import explore
        for case, world in self.worlds:
            def op(case=case, world=world):
                return explore.explore(world, case["depth"], EXPLORE_LEAF_CAP,
                                       check_validity=case["check_validity"])
            steps = self.steps
            result, seconds = self._timed(case["case"], op)
            bad_leaves = len({witness for _, witness in result.violations})
            failed = result.leaves if result.partial else bad_leaves
            record = {"label": case["case"], "seconds": seconds,
                      "attempted": result.leaves, "failed": failed,
                      "leaves": result.leaves, "partial": result.partial,
                      "events": self.steps - steps,
                      "violations": len(result.violations)}
            self.ops.append(record)

    def _record_sim(self, label, result, verdicts, digest, seconds) -> None:
        trace = result.trace
        problems = [text for texts in verdicts.values() for text in texts]
        failed = bool(problems) or trace.failure is not None
        correct = result.scenario.correct_nodes()
        latencies = []
        for ref, commits in trace.commit_ticks.items():
            if ref in trace.send_ticks and all(c in commits for c in correct):
                first = min(commits[c] for c in correct)
                latencies.append(first - trace.send_ticks[ref])
        record = {"label": label, "seconds": seconds, "attempted": 1,
                  "failed": int(failed), "problems": problems[:3],
                  "digest": digest, "events": trace.events_processed,
                  "deliveries": len(trace.deliveries),
                  "committed": len(result.nodes[correct[0]].committed_log),
                  "injected": len(trace.injected), "latencies": latencies}
        self.ops.append(record)
        if self.after_op:
            self.after_op(result)


def summarize(workload: str, ops: list[dict]) -> dict:
    """Deterministic counts and the behaviour digest of one worker's work."""
    counts = {"operations": len(ops),
              "attempted": sum(op["attempted"] for op in ops),
              "failed": sum(op["failed"] for op in ops),
              "events": sum(op["events"] for op in ops)}
    if workload == "explore_mixed":
        counts["leaves"] = sum(op["leaves"] for op in ops)
        counts["violations"] = sum(op["violations"] for op in ops)
        counts["partial_cases"] = sum(op["partial"] for op in ops)
        lines = [f"{op['label']} {op['leaves']} {op['violations']}"
                 for op in ops]
        protocol = {}
    else:
        for key in ("deliveries", "committed", "injected"):
            counts[key] = sum(op[key] for op in ops)
        lines = [op["digest"] for op in ops]
        latencies = [t for op in ops for t in op["latencies"]]
        protocol = {
            "commit_latency_p50_ticks": percentile(latencies, 50),
            "commit_latency_p99_ticks": percentile(latencies, 99),
            "msgs_per_commit": counts["deliveries"] / max(counts["committed"], 1),
            "committed_blocks_timed": len(latencies),
        }
    if len(ops) == 1 and workload == "sim_long":
        digest = ops[0]["digest"]
    else:
        digest = sha256_lines(lines)
    return {"counts": counts, "digest": digest, "protocol": protocol}


def percentile(values, pct: int) -> float:
    """Inclusive percentile: ``pct`` of ``values`` lie at or below it."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
