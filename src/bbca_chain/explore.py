"""Bounded-exhaustive exploration of message interleavings.

An untimed twin of the simulator for desk-scale model checking: the pending
action pool holds every undelivered message (plus optional probe and timer
actions), and the first ``depth`` scheduling decisions branch over every
pool entry.  Beyond the budget a schedule is determinized (always deliver
the oldest action), so each branch runs to a quiescent leaf where the
safety properties are checked, including an end-of-run audit of what every
correct node would adopt.  Enumeration is naive by design; a hard leaf cap
keeps it bounded.

Worlds fork by structured copy: a branch copies each node's mutable
containers and shares the immutable blocks, certificates and messages.  A
step records the ``Act`` it ran; the witness text is formatted only when a
leaf reports a violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .bbca import BbcaInstance, BbcaMsg, InstanceId, message_digest
from .chain import Broadcast, ChainNode, SafetyViolation
from .identity import NodeId, SystemParams
from .invariants import (
    SendCounts,
    agreement,
    bbca_consistency,
    complete_adopt,
    echo_once,
    prefix_consistency,
)


# Kept for +3.4% explore_mixed leaves/s (perfbench seed 5).
_new_tuple = tuple.__new__


class Act(NamedTuple):
    """One schedulable step: deliver a message, probe, or fire a timer.

    A named tuple, which is cheaper to build than a dataclass; every
    broadcast builds one per recipient, with ``tuple.__new__`` so that no
    Python-level constructor runs per delivery.
    """

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
        self.everyone = tuple(sorted({*correct, *replayers}))
        self.nodes = {i: BbcaInstance(params, instance, i) for i in correct}
        self.pool: list[Act] = []
        self.executed: list[Act] = []
        self.sends: SendCounts = {}  # by correct nodes
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
        twin.everyone = self.everyone
        twin.nodes = {i: node.clone() for i, node in self.nodes.items()}
        twin.pool = list(self.pool)
        twin.executed = list(self.executed)
        twin.sends = dict(self.sends)
        twin.probe_noadopt = set(self.probe_noadopt)
        twin.probe_adopt = dict(self.probe_adopt)
        twin._replayed = set(self._replayed)
        return twin

    def push_broadcast(self, frm: NodeId, msg: BbcaMsg,
                       targets=None) -> None:
        if frm in self.nodes:
            key = (frm, msg.kind, msg.instance)
            self.sends[key] = self.sends.get(key, 0) + 1
        self.pool.extend([
            _new_tuple(Act, ("deliver", to, frm, msg))
            for to in (self.everyone if targets is None else targets)])

    def execute(self, index: int) -> None:
        act = self.pool.pop(index)
        self.executed.append(act)
        kind, to, frm, msg = act
        if kind == "probe":
            result = self.nodes[to].probe()
            if result.adopted:
                self.probe_adopt[to] = result.cert.block_digest
            else:
                self.probe_noadopt.add(to)
            return
        if to in self.replayers:
            if msg not in self._replayed:
                self._replayed.add(msg)
                self.push_broadcast(to, msg)
            return
        outs, _ = self.nodes[to].handle_message(frm, msg)
        for out in outs:
            self.push_broadcast(to, out)

    # -- leaf audit ---------------------------------------------------------

    def check_leaf(self, check_validity: bool) -> list[str]:
        """The shared BBCA rules, with an end-of-run audit of every correct
        node; integrity and validity need the correct sender's message and
        are checked here."""
        view, nodes = self.instance.view, self.nodes.values()
        completed = [node.completed.cert.block_digest for node in nodes
                     if node.completed is not None]
        # What a forced probe of each node would adopt; its abort would
        # change nothing at a leaf, so the audit leaves the nodes as they are.
        adopted = [digest for node in nodes
                   if (digest := node.adoptable_digest()) is not None]
        decided = {*completed, *adopted, *self.probe_adopt.values()}
        problems = bbca_consistency(view, decided)
        if completed:
            problems += complete_adopt(view, len(self.probe_noadopt),
                                       adopted.count(min(completed)),
                                       self.params.f)
        problems += echo_once(self.sends)
        if self.sent_message is not None:
            expected = message_digest(self.sent_message)
            problems += ["integrity: decided a message never broadcast"
                         for digest in decided if digest != expected]
            if check_validity and completed.count(expected) < len(nodes):
                problems.append("validity: not every correct node completed")
        return problems


# -- chain worlds ---------------------------------------------------------------

class ChainWorld:
    """Full consensus nodes under explored delivery orders and timer firings."""

    def __init__(self, params: SystemParams, horizon: int,
                 timer_tokens: dict[NodeId, int]):
        self.params = params
        self.nodes = {i: ChainNode(i, params, horizon)
                      for i in range(params.n)}
        self.everyone = tuple(sorted(self.nodes))
        self.pool: list[Act] = []
        self.executed: list[Act] = []
        self.broken: str | None = None
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()
            self._drain(node_id)
        for node_id, count in sorted(timer_tokens.items()):
            for _ in range(count):
                self.pool.append(Act("timer", node_id))

    def clone(self) -> "ChainWorld":
        twin = object.__new__(ChainWorld)
        twin.params = self.params
        twin.nodes = {i: node.clone() for i, node in self.nodes.items()}
        twin.everyone = self.everyone
        twin.pool = list(self.pool)
        twin.executed = list(self.executed)
        twin.broken = self.broken
        return twin

    def _drain(self, node_id: NodeId) -> None:
        for action in self.nodes[node_id].take_outbox():
            if isinstance(action, Broadcast):
                msg = action.msg
                self.pool.extend([
                    _new_tuple(Act, ("deliver", to, node_id, msg))
                    for to in self.everyone])
            # SetTimer is ignored: timeouts exist only as explicit tokens.

    def execute(self, index: int) -> None:
        act = self.pool.pop(index)
        self.executed.append(act)
        kind, to, frm, msg = act
        node = self.nodes[to]
        try:
            if kind == "timer":
                node.handle_timer(node.view)
            else:
                node.handle_message(frm, msg)
        except SafetyViolation as violation:
            self.broken = str(violation)
            self.pool.clear()
            return
        self._drain(to)

    def check_leaf(self) -> list[str]:
        problems = [f"safety: {self.broken}"] if self.broken else []
        correct = sorted(self.nodes)
        return (problems + prefix_consistency(self.nodes, correct)
                + agreement(self.nodes, correct))


# -- driver ---------------------------------------------------------------------

def explore(world, depth: int, max_leaves: int = 200_000,
            check_validity: bool = False) -> ExploreResult:
    """DFS over scheduling choices; deterministic suffix beyond ``depth``.

    ``world`` is consumed: its first branch runs on it in place.
    """
    result = ExploreResult()
    stack: list[tuple[object, int]] = [(world, 0)]
    while stack:
        current, used = stack.pop()
        if used >= depth:
            # Bound-method locals: +8.8% explore_mixed leaves/s (seed 5).
            pool, execute = current.pool, current.execute
            while pool:
                execute(0)
        if not current.pool:
            result.leaves += 1
            if isinstance(current, BbcaWorld):
                problems = current.check_leaf(check_validity)
            else:
                problems = current.check_leaf()
            if problems:
                witness = tuple(act.describe() for act in current.executed)
                result.violations.extend((problem, witness)
                                         for problem in problems)
            if result.leaves >= max_leaves and stack:
                result.partial = True
                break
            continue
        # Branch 0 is expanded last and runs on ``current`` itself, which
        # nothing reads after its siblings are cloned from it.
        for index in reversed(range(1, len(current.pool))):
            child = current.clone()
            child.execute(index)
            stack.append((child, used + 1))
        current.execute(0)
        stack.append((current, used + 1))
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
