"""Property suites evaluated over finished runs and explored leaves.

Each check inspects a run result (trace plus final node states) and returns
a list of human-readable violations; empty means the property held.  The
safety checks are unconditional; the scenario-scoped ones (expected no-op
views, trip counts, liveness deadlines, censorship cutoffs) are selected
by the harness config's ``expect`` block, which carries their parameters.
Agreement, prefix consistency and the per-instance BBCA rules take plain
values, so the explorer checks its chain and BBCA leaves with the same
functions.
Two checks run online, because the run throws their input away.  Commit
ancestry reads the blocks each ``Committed`` record carries, whose bodies
the DAG drops at commit, so ``simnet.Driver``'s drain checks it once per
event, for the simulator and the explorer's chain worlds alike; a chain
leaf reports it, and ``check_commit_ancestry`` reads what the simulator
found.  Delay soundness is checked as the simulator schedules each
delivery, and ``check_delay_soundness`` reads what it found.  Authorship
reads what the run keeps: the committed logs and ``trace.injected``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from .bbca import InstanceId, MsgKind
from .blocks import Block, BlockKind, BlockRef
from .chain import (CERT_DRIVEN_CAUSES, NO_OP, ChainNode, finalized_repr,
                    get_proposer)
from .identity import NodeId

if TYPE_CHECKING:
    from .simnet import RunResult


def agreement(nodes: dict[NodeId, ChainNode],
              correct: list[NodeId]) -> list[str]:
    """No two correct nodes finalize a view differently (block vs block or
    block vs skip)."""
    problems = []
    merged: dict[int, dict] = {}
    for node_id in correct:
        for view, entry in nodes[node_id].finalized.items():
            merged.setdefault(view, {})[node_id] = entry
    for view, per_node in sorted(merged.items()):
        if len(set(per_node.values())) > 1:
            problems.append(f"agreement: view {view} finalized as {per_node}")
    return problems


def prefix_consistency(nodes: dict[NodeId, ChainNode],
                       correct: list[NodeId]) -> list[str]:
    """Committed logs of correct nodes are pairwise prefix-related."""
    problems = []
    logs = {i: nodes[i].committed_log for i in correct}
    for pos, left in enumerate(correct):
        for right in correct[pos + 1:]:
            shorter = min(len(logs[left]), len(logs[right]))
            if logs[left][:shorter] != logs[right][:shorter]:
                problems.append(
                    f"prefix: logs of {left} and {right} diverge")
    return problems


def check_agreement(result: RunResult, cfg=None) -> list[str]:
    return agreement(result.nodes, result.scenario.correct_nodes())


def check_prefix_consistency(result: RunResult, cfg=None) -> list[str]:
    return prefix_consistency(result.nodes, result.scenario.correct_nodes())


def commit_ancestry(node: ChainNode, blocks: list[Block]) -> list[str]:
    """Everything a committed block references is committed at or before it.

    ``blocks`` is what ``node`` committed in one event, in log order: the
    blocks of all its ``Committed`` records of that event, so an order
    wrong across two of them is seen too.
    """
    problems = []
    committed = node.committed_set
    # committed in this event, not before the one checked
    later = set(map(attrgetter("digest"), blocks))
    for block in blocks:
        parents = block.refs
        if not committed.issuperset(parents) or not later.isdisjoint(parents):
            problems.append(
                f"ancestry: node {node.id} committed "
                f"{block.digest.hex()[:12]} before one of its references")
        later.discard(block.digest)
    return problems


def check_commit_ancestry(result: RunResult, cfg=None) -> list[str]:
    """``commit_ancestry``, as the simulator checked it after each event of
    a correct node."""
    return list(result.trace.ancestry)


def check_authorship(result: RunResult, cfg=None) -> list[str]:
    """Each DATA block in a correct node's name that a correct node
    committed is one that node made: a block of ``trace.injected``."""
    correct = result.scenario.correct_nodes()
    made = {ref for _tick, _node, ref in result.trace.injected}
    problems = []
    for node_id in correct:
        for ref, (_view, kind, author) in \
                result.nodes[node_id].committed_entries():
            if kind == BlockKind.DATA and author in correct \
                    and ref not in made:
                problems.append(
                    f"authorship: node {node_id} committed DATA block "
                    f"{ref.hex()[:12]} that node {author} never made")
    return problems


def check_log_identical(result: RunResult, cfg=None) -> list[str]:
    logs = {i: tuple(result.nodes[i].committed_log)
            for i in result.scenario.correct_nodes()}
    if len(set(logs.values())) > 1:
        lengths = {i: len(log) for i, log in logs.items()}
        return [f"log-identical: logs differ at run end (lengths {lengths})"]
    return []


def check_view_sync(result: RunResult, cfg=None) -> list[str]:
    """Post-GST view entries are tightly clustered: certificate-driven
    entries within delta of the first entrant, noadopt-quorum entries
    within two deltas."""
    problems = []
    scenario = result.scenario
    delta = scenario.delta_post
    per_view: dict[int, list[tuple[int, str, int]]] = {}
    for node_id in scenario.correct_nodes():
        for view, (tick, cause) in result.trace.view_entries.get(
                node_id, {}).items():
            per_view.setdefault(view, []).append((tick, cause, node_id))
    for view, entries in sorted(per_view.items()):
        first = min(tick for tick, _, _ in entries)
        if first < scenario.gst:
            continue
        for tick, cause, node_id in entries:
            bound = delta if cause in CERT_DRIVEN_CAUSES else 2 * delta
            if tick - first > bound:
                problems.append(
                    f"view-sync: node {node_id} entered view {view} at "
                    f"{tick}, {tick - first} ticks after the first entrant "
                    f"(cause {cause}, bound {bound})")
    return problems


def check_delay_soundness(result: RunResult, cfg=None) -> list[str]:
    return list(result.trace.delays)


# -- BBCA, per broadcast instance ------------------------------------------
# Pure in plain values, so the simulator checks below and the explorer's
# BBCA leaves apply the same rules with the same wording.

def bbca_consistency(view: int, decided: set[bytes]) -> list[str]:
    """Completions and adoptions by correct nodes name at most one message
    (by quorum intersection: two echo quorums share a correct node)."""
    if len(decided) > 1:
        return [f"bbca-consistency: view {view} decided "
                f"{sorted(d.hex()[:12] for d in decided)}"]
    return []


def complete_adopt(view: int, noadopt_probers: int, adopters: int,
                   f: int) -> list[str]:
    """Both halves of Complete-Adopt for an instance some correct node
    completed: at least f+1 correct nodes would adopt the completed message
    at the end of the run, and no f+1 correct probes answered noadopt."""
    problems = []
    if adopters < f + 1:
        problems.append(f"complete-adopt: view {view} completed with only "
                        f"{adopters} end-of-run adopters")
    if noadopt_probers >= f + 1:
        problems.append(f"complete-adopt: view {view} completed despite f+1 "
                        f"correct noadopt probes")
    return problems


SendCounts = dict[tuple[NodeId, MsgKind, InstanceId], int]


def echo_once(sends: SendCounts) -> list[str]:
    """Correct nodes send at most one ECHO and one READY per instance."""
    twice = sorted((key, count) for key, count in sends.items()
                   if count > 1 and key[1] != MsgKind.INIT)
    return [f"echo-once: node {node_id} sent {count} x {kind.name} "
            f"s{instance.sender} v{instance.view}"
            for (node_id, kind, instance), count in twice]


def _outcomes(result: RunResult) -> tuple[dict[int, set[bytes]],
                                           dict[int, list[bytes]]]:
    """Per view, the digests correct nodes completed, and what each correct
    node's instance would adopt now: an end-of-run probe's answers, read
    without probing, from the live instances and the dropped ones' rows."""
    completed: dict[int, set[bytes]] = {}
    adoptable: dict[int, list[bytes]] = {}
    for node_id in result.scenario.correct_nodes():
        node = result.nodes[node_id]
        live = {view: inst.outcome() for view, inst in node.instances.items()}
        for view, (done, digest) in [*node.outcomes.items(), *live.items()]:
            if done is not None:
                completed.setdefault(view, set()).add(done)
            if digest is not None:
                adoptable.setdefault(view, []).append(digest)
    return completed, adoptable


def check_bbca_consistency(result: RunResult, cfg=None) -> list[str]:
    """Per broadcast instance: completions, runtime-probe adoptions and
    end-of-run adoptions of correct nodes never disagree."""
    decided, adoptable = _outcomes(result)
    for view, digests in adoptable.items():
        decided.setdefault(view, set()).update(digests)
    for node_id in result.scenario.correct_nodes():
        for _tick, view, adopted, ref in result.trace.probes.get(node_id, []):
            if adopted:
                decided.setdefault(view, set()).add(ref)
    return [problem for view, digests in sorted(decided.items())
            for problem in bbca_consistency(view, digests)]


def check_bbca_complete_adopt(result: RunResult, cfg=None) -> list[str]:
    """Complete-Adopt for every completed instance, over the runtime probes
    and the end-of-run adoptions."""
    noadopts: dict[int, set[NodeId]] = {}
    for node_id in result.scenario.correct_nodes():
        for _tick, view, adopted, _ref in result.trace.probes.get(node_id, []):
            if not adopted:
                noadopts.setdefault(view, set()).add(node_id)
    completed, adoptable = _outcomes(result)
    problems = []
    for view, digests in sorted(completed.items()):
        adopters = adoptable.get(view, []).count(min(digests))
        problems += complete_adopt(view, len(noadopts.get(view, ())),
                                   adopters, result.scenario.params.f)
    return problems


def check_echo_once(result: RunResult, cfg=None) -> list[str]:
    correct = set(result.scenario.correct_nodes())
    return echo_once({key: count
                      for key, count in result.trace.bbca_sends.repeats.items()
                      if key[0] in correct})


def check_noop_views(result: RunResult, cfg) -> list[str]:
    problems = []
    for view in cfg.expect_noop_views:
        for node_id in result.scenario.correct_nodes():
            entry = result.nodes[node_id].finalized.get(view)
            if entry is not NO_OP:
                problems.append(
                    f"noop: node {node_id} finalized view {view} as "
                    f"{finalized_repr(view, entry, result.scenario.params)}, "
                    "expected a skip")
    return problems


class TripRow(NamedTuple):
    """Commit latency of one block named by a trips expectation."""

    label: str                 # "backbone v<view>" or "data <digest prefix>"
    role: str                  # "leader" or "non-leader"
    measured: Fraction | None  # None: not committed by every correct node
    expected: object           # as written in the config


def trips_to_commit(result: RunResult, ref: BlockRef) -> Fraction:
    """Commit latency of one block in units of the uniform hop delay."""
    trace = result.trace
    if ref not in trace.send_ticks:
        raise ValueError("block never entered the network")
    commits = trace.commit_ticks.get(ref, {})
    correct = result.scenario.correct_nodes()
    if any(node not in commits for node in correct):
        raise ValueError("block not committed by every correct node")
    first = min(commits[node] for node in correct)
    return Fraction(first - trace.send_ticks[ref], result.scenario.delta_post)


def _trips_or_none(result: RunResult, ref) -> Fraction | None:
    if ref is None or ref is NO_OP:
        return None
    try:
        return trips_to_commit(result, ref)
    except ValueError:
        return None


def measure_trips(result: RunResult, expect: dict) -> list[TripRow]:
    """The backbone of each expected view, as one correct node finalized it,
    then every injected data block when a data figure is expected."""
    rows = []
    witness = result.nodes[result.scenario.correct_nodes()[0]]
    for view in expect.get("views", []):
        ref = witness.finalized.get(view)
        rows.append(TripRow(f"backbone v{view}", "leader",
                            _trips_or_none(result, ref), expect["backbone"]))
    if "data" in expect:
        for _tick, _node, ref in result.trace.injected:
            rows.append(TripRow(f"data {ref.hex()[:12]}", "non-leader",
                                _trips_or_none(result, ref), expect["data"]))
    return rows


def check_trips(result: RunResult, cfg) -> list[str]:
    """Uniform, failure-free runs reproduce the broadcast trip counts:
    one broadcast round for a backbone block, one extra best-effort hop
    for a data block injected one hop before the proposal."""
    problems = []
    for row in measure_trips(result, cfg.expect_trips):
        if row.measured is None:
            problems.append(
                f"trips: {row.label} was not committed by every correct node")
        elif row.measured != Fraction(row.expected):
            problems.append(f"trips: {row.label} took {row.measured}, "
                            f"expected {row.expected}")
    return problems


def check_liveness_deadline(result: RunResult, cfg=None) -> list[str]:
    """After GST, the first view with a correct leader entered wholly
    post-GST commits at every correct node within gst + timer + 4 delta."""
    scenario = result.scenario
    correct = scenario.correct_nodes()
    deadline = scenario.gst + scenario.timer_ticks + 4 * scenario.delta_post
    target = None
    for view in range(1, scenario.horizon + 1):
        if get_proposer(view, scenario.params) not in correct:
            continue
        entries = [result.trace.view_entries.get(i, {}).get(view)
                   for i in correct]
        if any(e is None for e in entries):
            continue
        if min(tick for tick, _ in entries) >= scenario.gst:
            target = view
            break
    if target is None:
        return ["liveness: no wholly post-GST view with a correct leader"]
    problems = []
    reference = result.nodes[correct[0]].finalized.get(target)
    if reference is None or reference is NO_OP:
        return [f"liveness: post-GST view {target} did not finalize a block"]
    commits = result.trace.commit_ticks.get(reference, {})
    for node_id in correct:
        tick = commits.get(node_id)
        if tick is None:
            problems.append(
                f"liveness: node {node_id} never committed view {target}")
        elif tick > deadline:
            problems.append(
                f"liveness: node {node_id} committed view {target} at "
                f"{tick}, past deadline {deadline}")
    return problems


def check_growth(result: RunResult, cfg=None) -> list[str]:
    problems = []
    for node_id in result.scenario.correct_nodes():
        if not result.nodes[node_id].committed_log:
            problems.append(f"growth: node {node_id} committed nothing")
    return problems


def check_censorship(result: RunResult, cfg) -> list[str]:
    """Every payload a correct node injected before the cutoff ends up in
    every correct node's committed log."""
    problems = []
    cutoff = cfg.censorship_cutoff
    correct = set(result.scenario.correct_nodes())
    for tick, node_id, ref in result.trace.injected:
        if tick > cutoff or node_id not in correct:
            continue
        for other in sorted(correct):
            if ref not in result.nodes[other].committed_set:
                problems.append(
                    f"censorship: payload {ref.hex()[:12]} from node "
                    f"{node_id} at {tick} missing from node {other}'s log")
    return problems


# Checks that apply to any run.  A config names these in ``invariants``;
# it selects a scenario-scoped one only by the ``expect`` entry that
# carries its parameter.
UNCONDITIONAL = {
    "agreement": check_agreement,
    "prefix_consistency": check_prefix_consistency,
    "commit_ancestry": check_commit_ancestry,
    "authorship": check_authorship,
    "view_sync": check_view_sync,
    "delay_soundness": check_delay_soundness,
    "bbca_consistency": check_bbca_consistency,
    "complete_adopt": check_bbca_complete_adopt,
    "echo_once": check_echo_once,
}

SCENARIO_SCOPED = {
    "noop_views": check_noop_views,
    "trips": check_trips,
    "liveness": check_liveness_deadline,
    "growth": check_growth,
    "censorship": check_censorship,
    "log_identical": check_log_identical,
}

ALL_CHECKS = {**UNCONDITIONAL, **SCENARIO_SCOPED}
