"""Bounded-exhaustive exploration of message interleavings.

An untimed twin of the simulator for desk-scale model checking: the pending
pool holds one ``simnet.Deliver`` per undelivered message, plus optional
``Probe`` and ``Timer`` tokens, and the first ``depth`` scheduling decisions
branch over every pool entry.  Beyond the budget a schedule is determinized
(always run the oldest step), so each branch runs to a quiescent leaf where
the safety properties are checked, including an end-of-run audit of what
every correct node would adopt.  Enumeration is naive by design; a hard leaf
cap keeps it bounded.  A chain world is a ``simnet.Driver``: the simulator's
drain routes its nodes' outputs into the pool and checks its commits.

Worlds fork by structured copy, each when its branch's turn comes, so the
DFS keeps one world per level of the current path: a branch copies each
node's mutable containers and shares the immutable blocks, certificates and
messages, and the world tree's one memo of pure results.  A world records
the steps it ran; the witness text is formatted only when a leaf reports a
violation.
"""

from __future__ import annotations

from typing import NamedTuple

from .bbca import BbcaInstance, BbcaMsg, InstanceId, new_memo
from .chain import ChainNode, SafetyViolation, WireMsg
from .encoding import digest32
from .identity import ConfigError, NodeId, SystemParams, params_for
from .invariants import (
    SendCounts,
    agreement,
    bbca_consistency,
    complete_adopt,
    echo_once,
    prefix_consistency,
)
from .simnet import Deliver, Driver


# A broadcast builds one ``Deliver`` per recipient with ``tuple.__new__``, so
# that no Python-level constructor runs per delivery.
# Kept for +3.4% explore_mixed leaves/s (perfbench seed 5).
_new_tuple = tuple.__new__


class Probe(NamedTuple):
    """Scheduled step: ``node`` probes its broadcast instance."""

    node: NodeId


class Timer(NamedTuple):
    """Scheduled step: ``node``'s timer fires for its current view."""

    node: NodeId


def describe(step: Deliver | Probe | Timer) -> str:
    """Witness text: ``deliver(f->t)``, ``probe(n)`` or ``timer(n)``."""
    if type(step) is Deliver:
        return f"deliver({step.frm}->{step.to})"
    return f"{type(step).__name__.lower()}({step.node})"


class ExploreResult:
    def __init__(self):
        self.leaves = 0
        self.violations: list[tuple[str, tuple[str, ...]]] = []
        self.partial = False  # the leaf cap ended the exploration

    @property
    def ok(self) -> bool:
        return not self.violations


# -- broadcast-instance worlds -------------------------------------------------

class BbcaWorld:
    """All correct nodes' views of a single broadcast instance.

    Byzantine behavior is scripted into the initial pool (equivocation) or
    into a relay rule (replay); crashed nodes simply do not exist.  The
    initial pool holds the correct sender's broadcast of ``sent_message``,
    if any, then one ``Probe`` per node in ``probes``.
    """

    def __init__(self, params: SystemParams, instance: InstanceId,
                 correct: list[NodeId], replayers: tuple[NodeId, ...] = (),
                 sent_message: bytes | None = None,
                 probes: tuple[NodeId, ...] = ()):
        self.params = params
        self.instance = instance
        self.correct = list(correct)
        self.replayers = replayers
        self.sent_message = sent_message  # correct sender's message, if any
        self.everyone = tuple(sorted({*correct, *replayers}))
        self.memo = new_memo()  # the world tree's, shared by clones
        self.nodes = {i: BbcaInstance(params, instance, i, memo=self.memo)
                      for i in correct}
        self.pool: list[Deliver | Probe] = []
        self.executed: list[Deliver | Probe] = []
        self.sends: SendCounts = {}  # by correct nodes
        self.probe_noadopt: set[NodeId] = set()
        self.probe_adopt: dict[NodeId, bytes] = {}
        self._replayed: set = set()
        if sent_message is not None:
            sender = instance.sender
            for msg in self.nodes[sender].broadcast(sent_message):
                self.push_broadcast(sender, msg)
        self.pool.extend(map(Probe, probes))

    def clone(self) -> "BbcaWorld":
        twin = object.__new__(BbcaWorld)
        # Scenario shape is immutable; only per-node state and the pool fork.
        twin.params = self.params
        twin.instance = self.instance
        twin.correct = self.correct
        twin.replayers = self.replayers
        twin.sent_message = self.sent_message
        twin.everyone = self.everyone
        twin.memo = self.memo
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
            _new_tuple(Deliver, (to, frm, msg))
            for to in (self.everyone if targets is None else targets)])

    def execute(self, index: int) -> None:
        step = self.pool.pop(index)
        self.executed.append(step)
        if type(step) is Probe:
            node, = step
            cert = self.nodes[node].probe()
            if cert is None:
                self.probe_noadopt.add(node)
            else:
                self.probe_adopt[node] = cert.block_digest
            return
        to, frm, msg = step
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
        completed = [node.completed.block_digest for node in nodes
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
            expected = self.memo[view][(digest32, self.sent_message)]
            problems += ["integrity: decided a message never broadcast"
                         for digest in decided if digest != expected]
            if check_validity and completed.count(expected) < len(nodes):
                problems.append("validity: not every correct node completed")
        return problems


# -- chain worlds ---------------------------------------------------------------

class ChainWorld(Driver):
    """Full consensus nodes under explored delivery orders and timer firings."""

    adversaries: dict = {}  # every node is correct

    def __init__(self, params: SystemParams, horizon: int,
                 timer_tokens: dict[NodeId, int]):
        self.params = params
        self.memo = new_memo()  # the world tree's, shared by clones
        self.nodes = {i: ChainNode(i, params, horizon, self.memo)
                      for i in range(params.n)}
        self.everyone = tuple(sorted(self.nodes))
        self.pool: list[Deliver | Timer] = []
        self.executed: list[Deliver | Timer] = []
        self.broken: str | None = None
        self.ancestry: list[str] = []  # ``commit_ancestry`` problems
        self._start()
        for node_id, count in sorted(timer_tokens.items()):
            if node_id not in self.nodes:
                raise ConfigError(
                    f"timer token for node {node_id}, out of range for "
                    f"n={params.n}")
            for _ in range(count):
                self.pool.append(Timer(node_id))

    def clone(self) -> "ChainWorld":
        twin = object.__new__(ChainWorld)
        twin.params = self.params
        twin.memo = self.memo
        twin.nodes = {i: node.clone() for i, node in self.nodes.items()}
        twin.everyone = self.everyone
        twin.pool = list(self.pool)
        twin.executed = list(self.executed)
        twin.broken = self.broken
        twin.ancestry = list(self.ancestry)
        return twin

    def _transmit(self, frm: NodeId, msg: WireMsg,
                  targets: tuple[NodeId, ...], lag: int) -> None:
        self.pool.extend([_new_tuple(Deliver, (to, frm, msg))
                          for to in targets])

    def _note(self, node_id: NodeId, out) -> None:
        """Drop the record: ``Timer`` tokens stand in for the view timers."""

    def execute(self, index: int) -> None:
        step = self.pool.pop(index)
        self.executed.append(step)
        try:
            if type(step) is Timer:
                to, = step
                node = self.nodes[to]
                node.handle_timer(node.view)
            else:
                to, frm, msg = step
                node = self.nodes[to]
                node.handle_message(frm, msg)
        except SafetyViolation as violation:
            self.broken = str(violation)
            self.pool.clear()
            return
        if node.outbox:  # most steps send nothing: skip the drain
            self._drain(to)

    def check_leaf(self) -> list[str]:
        problems = [f"safety: {self.broken}"] if self.broken else []
        correct = sorted(self.nodes)
        return (problems + self.ancestry
                + prefix_consistency(self.nodes, correct)
                + agreement(self.nodes, correct))


# -- driver ---------------------------------------------------------------------

def explore(world, depth: int, max_leaves: int = 200_000,
            check_validity: bool = False) -> ExploreResult:
    """DFS over scheduling choices; deterministic suffix beyond ``depth``.

    ``world`` is consumed: its last branch runs on it in place.  A stack
    entry is a world, the steps it used and the pool index of its next
    branch; a branch is cloned only when its turn comes, so at most
    ``depth + 1`` clones are alive at once.
    """
    result = ExploreResult()
    stack: list[tuple[object, int, int]] = []
    current, used = world, 0
    while True:
        if used >= depth:
            # Bound-method locals: +8.8% explore_mixed leaves/s (seed 5).
            pool, execute = current.pool, current.execute
            while pool:
                execute(0)
        if current.pool:
            stack.append((current, used, 0))
        else:
            result.leaves += 1
            if isinstance(current, BbcaWorld):
                problems = current.check_leaf(check_validity)
            else:
                problems = current.check_leaf()
            if problems:
                witness = tuple(map(describe, current.executed))
                result.violations.extend((problem, witness)
                                         for problem in problems)
            if result.leaves >= max_leaves and stack:
                result.partial = True
                break
        if not stack:
            break
        # Every entry has a branch left; its last runs on the world itself.
        parent, used, index = stack.pop()
        if index + 1 < len(parent.pool):
            stack.append((parent, used, index + 1))
            current = parent.clone()
        else:
            current = parent
        current.execute(index)
        used += 1
    return result


# -- canned scenario builders -----------------------------------------------------

CASE_PARAMS = params_for(4)  # the system size of every canned case


def bbca_correct_sender(probes: tuple[NodeId, ...] = ()) -> BbcaWorld:
    return BbcaWorld(CASE_PARAMS, InstanceId(0, 1),
                     correct=list(range(CASE_PARAMS.n)),
                     sent_message=b"proposal", probes=probes)


def bbca_equivocating_sender() -> BbcaWorld:
    """Byzantine sender splits two proposals across halves of the network."""
    instance = InstanceId(0, 1)
    correct = list(range(1, CASE_PARAMS.n))
    world = BbcaWorld(CASE_PARAMS, instance, correct=correct)
    half = len(correct) // 2
    lower, upper = correct[:half], correct[half:]
    # The equivocator happily signs echoes for both variants.
    for message, targets in ((b"proposal-a", lower), (b"proposal-b", upper)):
        for msg in BbcaInstance(CASE_PARAMS, instance, 0).broadcast(message):
            world.push_broadcast(0, msg, targets)
    return world


def bbca_crashed() -> BbcaWorld:
    """Correct sender; the highest f ids crashed from the start (absent)."""
    correct = list(range(CASE_PARAMS.n - CASE_PARAMS.f))
    return BbcaWorld(CASE_PARAMS, InstanceId(0, 1), correct=correct,
                     sent_message=b"proposal")


def bbca_replay_with_probes() -> BbcaWorld:
    """Correct sender, one replaying byzantine node, f+1 scheduled probes."""
    correct = list(range(CASE_PARAMS.n - 1))
    return BbcaWorld(CASE_PARAMS, InstanceId(0, 1), correct=correct,
                     replayers=(CASE_PARAMS.n - 1,), sent_message=b"proposal",
                     probes=correct[:CASE_PARAMS.f + 1])


def chain_two_views(timeout_node: NodeId = 3) -> ChainWorld:
    """Two-view chain where one node may time out at any explored point."""
    return ChainWorld(CASE_PARAMS, horizon=2, timer_tokens={timeout_node: 1})


CASES = {builder.__name__: builder
         for builder in (bbca_correct_sender, bbca_equivocating_sender,
                         bbca_crashed, bbca_replay_with_probes,
                         chain_two_views)}
