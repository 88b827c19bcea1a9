"""Bounded-exhaustive exploration of message interleavings.

An untimed twin of the simulator for desk-scale model checking: the pending
action pool holds every undelivered message (plus optional probe and timer
actions), and the first ``depth`` scheduling decisions branch over every
pool entry.  Beyond the budget a schedule is determinized (always deliver
the oldest action), so each branch runs to a quiescent leaf where the
safety properties are checked, including a forced probe of every correct
node.  Enumeration is naive by design; a hard leaf cap keeps it bounded.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .bbca import BbcaInstance, BbcaMsg, InstanceId, MsgKind
from .chain import Broadcast, ChainNode, SafetyViolation
from .encoding import digest32
from .identity import NodeId, SystemParams
from .invariants import agreement, prefix_consistency


@dataclass(frozen=True)
class Act:
    """One schedulable step: deliver a message, probe, or fire a timer."""

    kind: str  # "deliver" | "probe" | "timer"
    to: NodeId
    frm: NodeId = -1
    msg: object = None

    def describe(self) -> str:
        if self.kind == "deliver":
            return f"deliver({self.frm}->{self.to})"
        return f"{self.kind}({self.to})"


@dataclass
class ExploreResult:
    leaves: int = 0
    violations: list[tuple[str, tuple[str, ...]]] = field(default_factory=list)
    partial: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


# -- broadcast-instance worlds -------------------------------------------------

class BbcaWorld:
    """All correct nodes' views of a single broadcast instance.

    Byzantine behavior is scripted into the initial pool (equivocation) or
    into a relay rule (replay); crashed nodes simply do not exist.
    """

    def __init__(self, params: SystemParams, instance: InstanceId,
                 correct: list[NodeId], replayers: tuple[NodeId, ...] = (),
                 sent_message: bytes | None = None):
        self.params = params
        self.instance = instance
        self.correct = list(correct)
        self.replayers = replayers
        self.sent_message = sent_message  # correct sender's message, if any
        self.nodes = {i: BbcaInstance(params, instance, i) for i in correct}
        self.pool: list[Act] = []
        self.executed: list[str] = []
        self.echo_counts = {i: 0 for i in correct}
        self.ready_counts = {i: 0 for i in correct}
        self.probe_noadopt: set[NodeId] = set()
        self.probe_adopt: dict[NodeId, bytes] = {}
        self._replayed: set = set()

    def clone(self) -> "BbcaWorld":
        twin = object.__new__(BbcaWorld)
        # Scenario shape is immutable; only per-node state and the pool fork.
        twin.params = self.params
        twin.instance = self.instance
        twin.correct = self.correct
        twin.replayers = self.replayers
        twin.sent_message = self.sent_message
        twin.nodes = {i: node.clone() for i, node in self.nodes.items()}
        twin.pool = list(self.pool)
        twin.executed = list(self.executed)
        twin.echo_counts = dict(self.echo_counts)
        twin.ready_counts = dict(self.ready_counts)
        twin.probe_noadopt = set(self.probe_noadopt)
        twin.probe_adopt = dict(self.probe_adopt)
        twin._replayed = set(self._replayed)
        return twin

    def everyone(self) -> list[NodeId]:
        return sorted(set(self.correct) | set(self.replayers))

    def push_broadcast(self, frm: NodeId, msg: BbcaMsg,
                       targets=None) -> None:
        for to in (self.everyone() if targets is None else targets):
            self.pool.append(Act("deliver", to, frm, msg))

    def execute(self, index: int) -> None:
        act = self.pool.pop(index)
        self.executed.append(act.describe())
        if act.kind == "probe":
            result = self.nodes[act.to].probe()
            if result.adopted:
                self.probe_adopt[act.to] = digest32(result.message)
            else:
                self.probe_noadopt.add(act.to)
            return
        msg: BbcaMsg = act.msg
        if act.to in self.replayers:
            if msg not in self._replayed:
                self._replayed.add(msg)
                self.push_broadcast(act.to, msg)
            return
        node = self.nodes[act.to]
        outs: list[BbcaMsg] = []
        if msg.kind == MsgKind.INIT:
            outs = node.on_init(msg.message, act.frm)
            self.echo_counts[act.to] += len(outs)
        elif msg.kind == MsgKind.ECHO:
            outs = node.on_echo(msg.message, msg.sig, act.frm)
            self.ready_counts[act.to] += len(outs)
        elif msg.kind == MsgKind.READY:
            node.on_ready(msg.message, msg.sig, act.frm)
        for out in outs:
            self.push_broadcast(act.to, out)

    # -- leaf audit ---------------------------------------------------------

    def check_leaf(self, check_validity: bool) -> list[str]:
        problems = []
        decided: dict[NodeId, bytes] = {}
        for i, node in self.nodes.items():
            if node.completed is not None:
                decided[i] = digest32(node.completed.message)
        completions = set(decided.values())
        if len(completions) > 1:
            problems.append("consistency: two different messages completed")
        adopt_digests = set(self.probe_adopt.values())
        if completions and adopt_digests - completions:
            problems.append("consistency: adopted message differs from completion")
        if self.sent_message is not None:
            expected = digest32(self.sent_message)
            for digest in completions | adopt_digests:
                if digest != expected:
                    problems.append("integrity: decided a message never broadcast")
        if check_validity:
            expected = digest32(self.sent_message)
            if any(decided.get(i) != expected for i in self.nodes):
                problems.append("validity: not every correct node completed")
        if completions and len(self.probe_noadopt) >= self.params.f + 1:
            problems.append(
                "complete-adopt: completion despite f+1 correct noadopt probes")
        # Forced end-of-run probe of every correct node.
        if completions:
            target = next(iter(completions))
            end_adopts = 0
            for node in self.nodes.values():
                result = node.probe()
                if result.adopted and digest32(result.message) == target:
                    end_adopts += 1
            if end_adopts < self.params.f + 1:
                problems.append(
                    "complete-adopt: fewer than f+1 end-of-run adopters")
        for i in self.nodes:
            if self.echo_counts[i] > 1 or self.ready_counts[i] > 1:
                problems.append(f"echo-once: node {i} emitted twice")
        return problems


# -- chain worlds ---------------------------------------------------------------

class ChainWorld:
    """Full consensus nodes under explored delivery orders and timer firings."""

    def __init__(self, params: SystemParams, horizon: int,
                 timer_tokens: dict[NodeId, int]):
        self.params = params
        self.nodes = {i: ChainNode(i, params, horizon)
                      for i in range(params.n)}
        self.pool: list[Act] = []
        self.executed: list[str] = []
        self.broken: str | None = None
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()
            self._drain(node_id)
        for node_id, count in sorted(timer_tokens.items()):
            for _ in range(count):
                self.pool.append(Act("timer", node_id))

    def clone(self) -> "ChainWorld":
        return copy.deepcopy(self)

    def _drain(self, node_id: NodeId) -> None:
        for action in self.nodes[node_id].take_outbox():
            if isinstance(action, Broadcast):
                for to in sorted(self.nodes):
                    self.pool.append(Act("deliver", to, node_id, action.msg))
            # SetTimer is ignored: timeouts exist only as explicit tokens.

    def execute(self, index: int) -> None:
        act = self.pool.pop(index)
        self.executed.append(act.describe())
        node = self.nodes[act.to]
        try:
            if act.kind == "timer":
                node.handle_timer(node.view)
            else:
                node.handle_message(act.frm, act.msg)
        except SafetyViolation as violation:
            self.broken = str(violation)
            self.pool.clear()
            return
        self._drain(act.to)

    def check_leaf(self) -> list[str]:
        problems = [f"safety: {self.broken}"] if self.broken else []
        correct = sorted(self.nodes)
        return (problems + prefix_consistency(self.nodes, correct)
                + agreement(self.nodes, correct))


# -- driver ---------------------------------------------------------------------

def explore(world, depth: int, max_leaves: int = 200_000,
            check_validity: bool = False) -> ExploreResult:
    """DFS over scheduling choices; deterministic suffix beyond ``depth``."""
    result = ExploreResult()
    stack: list[tuple[object, int]] = [(world, 0)]
    while stack:
        current, used = stack.pop()
        while current.pool and used >= depth:
            current.execute(0)
        if not current.pool:
            result.leaves += 1
            if isinstance(current, BbcaWorld):
                problems = current.check_leaf(check_validity)
            else:
                problems = current.check_leaf()
            for problem in problems:
                result.violations.append((problem, tuple(current.executed)))
            if result.leaves >= max_leaves and stack:
                result.partial = True
                break
            continue
        for index in reversed(range(len(current.pool))):
            child = current.clone()
            child.execute(index)
            stack.append((child, used + 1))
    return result


# -- canned scenario builders -----------------------------------------------------

def bbca_correct_sender(n: int = 4, probes: tuple[NodeId, ...] = ()) -> BbcaWorld:
    params = SystemParams(n)
    instance = InstanceId(0, 1)
    world = BbcaWorld(params, instance, correct=list(range(n)),
                      sent_message=b"proposal")
    for msg in world.nodes[0].broadcast(b"proposal"):
        world.push_broadcast(0, msg)
    for node in probes:
        world.pool.append(Act("probe", node))
    return world


def bbca_equivocating_sender(n: int = 4) -> BbcaWorld:
    """Byzantine sender splits two proposals across halves of the network."""
    params = SystemParams(n)
    instance = InstanceId(0, 1)
    correct = list(range(1, n))
    world = BbcaWorld(params, instance, correct=correct)
    half = len(correct) // 2
    lower, upper = correct[:half], correct[half:]
    # The equivocator happily signs echoes for both variants.
    for message, targets in ((b"proposal-a", lower), (b"proposal-b", upper)):
        for msg in BbcaInstance(params, instance, 0).broadcast(message):
            world.push_broadcast(0, msg, targets)
    return world


def bbca_crashed(n: int = 4) -> BbcaWorld:
    """Correct sender; f nodes crashed from the start (absent entirely)."""
    params = SystemParams(n)
    instance = InstanceId(0, 1)
    correct = list(range(n - params.f))  # the highest f ids never show up
    world = BbcaWorld(params, instance, correct=correct,
                      sent_message=b"proposal")
    for msg in world.nodes[0].broadcast(b"proposal"):
        world.push_broadcast(0, msg)
    return world


def bbca_replay_with_probes(n: int = 4) -> BbcaWorld:
    """Correct sender, one replaying byzantine node, f+1 scheduled probes."""
    params = SystemParams(n)
    instance = InstanceId(0, 1)
    correct = list(range(n - 1))
    world = BbcaWorld(params, instance, correct=correct,
                      replayers=(n - 1,), sent_message=b"proposal")
    for msg in world.nodes[0].broadcast(b"proposal"):
        world.push_broadcast(0, msg)
    for node in correct[:params.f + 1]:
        world.pool.append(Act("probe", node))
    return world


def chain_two_views(n: int = 4, timeout_node: NodeId = 3) -> ChainWorld:
    """Two-view chain where one node may time out at any explored point."""
    return ChainWorld(SystemParams(n), horizon=2,
                      timer_tokens={timeout_node: 1})


CASES = {builder.__name__: builder
         for builder in (bbca_correct_sender, bbca_equivocating_sender,
                         bbca_crashed, bbca_replay_with_probes,
                         chain_two_views)}
