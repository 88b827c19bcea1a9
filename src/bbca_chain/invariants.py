"""Property suites evaluated over finished runs and explored chain leaves.

Each check inspects a run result (trace plus final node states) and returns
a list of human-readable violations; empty means the property held.  The
safety checks are unconditional; the scenario-scoped ones (expected no-op
views, trip counts, liveness deadlines, censorship cutoffs) read their
parameters from the harness config's ``expect`` block.  Agreement and
prefix consistency read only node states, so the explorer checks its chain
leaves with the same functions.
"""

from __future__ import annotations

from fractions import Fraction

from .bbca import BbcaMsg, MsgKind
from .blocks import GENESIS_NEW_VIEW, GENESIS_REF
from .chain import CERT_DRIVEN_CAUSES, NO_OP, ChainNode, get_proposer
from .identity import NodeId
from .simnet import DelayModel, RunResult, trips_to_commit


def agreement(nodes: dict[NodeId, ChainNode],
              correct: list[NodeId]) -> list[str]:
    """No two correct nodes finalize a view differently (block vs block or
    block vs skip)."""
    problems = []
    merged: dict[int, dict] = {}
    for node_id in correct:
        for view, entry in nodes[node_id].finalized.items():
            value = entry if isinstance(entry, str) else entry.digest
            merged.setdefault(view, {})[node_id] = value
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


def check_commit_ancestry(result: RunResult, cfg=None) -> list[str]:
    """Everything a committed block references is committed at or before it."""
    problems = []
    seeds = {GENESIS_REF, GENESIS_NEW_VIEW.digest}
    for node_id in result.scenario.correct_nodes():
        node = result.nodes[node_id]
        seen = set(seeds)
        for ref in node.committed_log:
            block = node.dag.get(ref)
            if any(parent not in seen for parent in block.refs):
                problems.append(
                    f"ancestry: node {node_id} committed {ref.hex()[:12]} "
                    f"before one of its references")
            seen.add(ref)
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
    model = DelayModel(result.scenario)
    problems = []
    for entry, tick, frm, to in result.trace.deliveries:
        if tick > model.bound(entry):
            problems.append(
                f"delay: message {frm}->{to} entered at {entry} but "
                f"delivered at {tick} (bound {model.bound(entry)})")
    return problems


def check_fault_budget(result: RunResult, cfg=None) -> list[str]:
    scenario = result.scenario
    if len(scenario.strategies) > scenario.params.f:
        return ["fault-budget: more byzantine nodes than f"]
    return []


def check_bbca_consistency(result: RunResult, cfg=None) -> list[str]:
    """Per broadcast instance: completions (and audited adoptions) of
    correct nodes never disagree."""
    problems = []
    correct = result.scenario.correct_nodes()
    per_view: dict[int, set[bytes]] = {}
    for node_id in correct:
        for view, inst in result.nodes[node_id].instances.items():
            if inst.completed is not None:
                per_view.setdefault(view, set()).add(
                    inst.completed.cert.block_digest)
    for (node_id, view), (adopted, ref) in result.trace.audits.items():
        if adopted:
            per_view.setdefault(view, set()).add(bytes.fromhex(ref))
    for view, digests in sorted(per_view.items()):
        if len(digests) > 1:
            problems.append(
                f"bbca-consistency: view {view} decided "
                f"{sorted(d.hex()[:12] for d in digests)}")
    return problems


def check_bbca_complete_adopt(result: RunResult, cfg=None) -> list[str]:
    """Needs an end-of-run audit: every completed instance has at least
    f+1 correct adopters, and f+1 runtime noadopts preclude completion."""
    problems = []
    scenario = result.scenario
    correct = scenario.correct_nodes()
    if not result.trace.audits:
        return ["complete-adopt: scenario ran without audit probes"]
    completed_views: set[int] = set()
    for node_id in correct:
        for view, inst in result.nodes[node_id].instances.items():
            if inst.completed is not None:
                completed_views.add(view)
    for view in sorted(completed_views):
        adopters = sum(
            1 for node_id in correct
            if result.trace.audits.get((node_id, view), (False, None))[0])
        if adopters < scenario.params.f + 1:
            problems.append(
                f"complete-adopt: view {view} completed with only "
                f"{adopters} end-of-run adopters")
    for view in sorted(completed_views):
        noadopts = {node_id for node_id in correct
                    for tick, v, adopted in result.trace.probes.get(node_id, [])
                    if v == view and not adopted}
        if len(noadopts) >= scenario.params.f + 1:
            problems.append(
                f"complete-adopt: view {view} completed despite f+1 "
                f"correct noadopt probes")
    return problems


def check_echo_once(result: RunResult, cfg=None) -> list[str]:
    """Correct nodes send at most one ECHO and one READY per instance."""
    problems = []
    correct = set(result.scenario.correct_nodes())
    counts: dict[tuple, int] = {}
    for record in result.trace.records:
        if record[0] != "send" or record[2] not in correct:
            continue
        msg = record[3]
        if isinstance(msg, BbcaMsg) and msg.kind != MsgKind.INIT:
            key = (record[2], msg.kind, msg.instance)
            counts[key] = counts.get(key, 0) + 1
    for (node_id, kind, instance), count in sorted(counts.items()):
        if count > 1:
            problems.append(
                f"echo-once: node {node_id} sent {count} x {kind.name} "
                f"s{instance.sender} v{instance.view}")
    return problems


def check_noop_views(result: RunResult, cfg) -> list[str]:
    problems = []
    for view in cfg.expect_noop_views:
        for node_id in result.scenario.correct_nodes():
            entry = result.nodes[node_id].finalized.get(view)
            if entry is not NO_OP:
                problems.append(
                    f"noop: node {node_id} finalized view {view} as "
                    f"{entry!r}, expected a skip")
    return problems


def check_trips(result: RunResult, cfg) -> list[str]:
    """Uniform, failure-free runs reproduce the broadcast trip counts:
    one broadcast round for a backbone block, one extra best-effort hop
    for a data block injected one hop before the proposal."""
    problems = []
    expect = cfg.expect_trips
    nodes = result.nodes
    some_correct = result.scenario.correct_nodes()[0]
    for view in expect.get("views", []):
        entry = nodes[some_correct].finalized.get(view)
        if entry is None or entry is NO_OP:
            problems.append(f"trips: view {view} has no committed backbone")
            continue
        measured = trips_to_commit(result, entry.digest)
        if measured != Fraction(expect["backbone"]):
            problems.append(
                f"trips: backbone of view {view} took {measured}, "
                f"expected {expect['backbone']}")
    if "data" in expect:
        for _tick, _node, ref in result.trace.injected:
            measured = trips_to_commit(result, ref)
            if measured != Fraction(expect["data"]):
                problems.append(
                    f"trips: data block {ref.hex()[:12]} took {measured}, "
                    f"expected {expect['data']}")
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
    commits = result.trace.commit_ticks.get(reference.digest, {})
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


# Checks that apply to any run; scenario-scoped ones are added by the
# harness when the config carries their parameters.
UNCONDITIONAL = {
    "agreement": check_agreement,
    "prefix_consistency": check_prefix_consistency,
    "commit_ancestry": check_commit_ancestry,
    "view_sync": check_view_sync,
    "delay_soundness": check_delay_soundness,
    "fault_budget": check_fault_budget,
    "bbca_consistency": check_bbca_consistency,
    "echo_once": check_echo_once,
}

SCENARIO_SCOPED = {
    "complete_adopt": check_bbca_complete_adopt,
    "noop_views": check_noop_views,
    "trips": check_trips,
    "liveness": check_liveness_deadline,
    "growth": check_growth,
    "censorship": check_censorship,
    "log_identical": check_log_identical,
}

ALL_CHECKS = {**UNCONDITIONAL, **SCENARIO_SCOPED}
