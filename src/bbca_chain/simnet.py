"""Deterministic discrete-event network simulator.

Partial synchrony on an integer tick clock: link delays are unbounded (or
dropped) before a global stabilization tick, and bounded by ``delta_post``
after it.  All randomness comes from one seeded generator, events are ordered
by (tick, insertion sequence), and nodes process exactly one event at a time,
so a (scenario, seed) pair always reproduces the same trace bytes.

Byzantine behavior is a per-node wrapper over a correct state machine that
rewrites its outbound traffic: staying silent, withholding READY votes,
equivocating proposals or data blocks to disjoint halves, replaying observed
messages, or lagging its own sends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .bbca import INIT, READY, BbcaInstance, BbcaMsg
from .blocks import Block, BlockKind, BlockRef, decode_block
from .chain import (
    BlockMsg,
    Broadcast,
    ChainNode,
    Note,
    SafetyViolation,
    SetTimer,
    WireMsg,
)
from .encoding import EncodingError, digest32
from .identity import ConfigError, NodeId, SystemParams, params_for

# A kind constant like ``bbca.INIT``: +1.8% campaign_byz runs/s (seed 5).
_DATA = BlockKind.DATA

STRATEGIES = ("silent", "withhold_ready", "equivocate_init",
              "equivocate_data", "replay", "delay_own")


@dataclass(frozen=True)
class Strategy:
    name: str
    max_delay: int = 0  # delay_own only

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ConfigError(f"unknown adversary strategy {self.name!r}")
        if self.max_delay < 0:
            raise ConfigError("max_delay must not be negative")


@dataclass(frozen=True)
class PreGstPolicy:
    kind: str  # "adversarial" | "drop"
    max_delay: int = 0  # adversarial only

    def __post_init__(self):
        if self.kind not in ("adversarial", "drop"):
            raise ConfigError(f"unknown pre-GST policy {self.kind!r}")
        if self.kind == "adversarial" and self.max_delay < 1:
            raise ConfigError("adversarial policy needs a max_delay of at "
                              "least one tick")


@dataclass(frozen=True)
class Scenario:
    n: int
    seed: int = 0
    gst: int = 0
    delta_post: int = 10
    delay_mode: str = "uniform"  # "uniform" (= exactly delta_post) | "random"
    pre_gst: PreGstPolicy | None = None
    t_max: int | None = None  # view timer; default 10 * delta_post
    horizon: int = 8  # last view any node may start
    stop_after_committed: int | None = None  # else run to quiescence
    max_ticks: int = 1_000_000
    strategies: dict[NodeId, Strategy] = field(default_factory=dict)
    injections: tuple[tuple[int, NodeId], ...] = ()
    audit_probe: bool = False

    def __post_init__(self):
        params = self.params
        if len(self.strategies) > params.f:
            raise ConfigError(
                f"{len(self.strategies)} byzantine nodes exceeds f={params.f}")
        for node in self.strategies:
            if not 0 <= node < self.n:
                raise ConfigError(f"byzantine node {node} out of range")
        if self.delay_mode not in ("uniform", "random"):
            raise ConfigError(f"unknown delay mode {self.delay_mode!r}")
        if self.delta_post < 1:
            raise ConfigError("delta_post must be at least one tick")
        if self.t_max is not None and self.t_max < 1:
            raise ConfigError("t_max must be at least one tick")

    @property
    def params(self) -> SystemParams:
        return params_for(self.n)

    @property
    def timer_ticks(self) -> int:
        return self.t_max if self.t_max is not None else 10 * self.delta_post

    def correct_nodes(self) -> list[NodeId]:
        return [i for i in range(self.n) if i not in self.strategies]


# -- events -------------------------------------------------------------------
# Named tuples, which are cheaper to build than dataclasses: a broadcast
# schedules one Deliver per recipient.

class Deliver(NamedTuple):
    to: NodeId
    frm: NodeId
    msg: WireMsg


class TimerFire(NamedTuple):
    node: NodeId
    view: int


class Inject(NamedTuple):
    node: NodeId
    payload: bytes


# -- delay model --------------------------------------------------------------

# Kept for +6.1% sim_long events/s over stdlib randint (perfbench seed 5).
def randints(rng: random.Random, low: int, high: int,
             count: int) -> list[int]:
    """``[rng.randint(low, high) for _ in range(count)]``, from the same
    generator stream but without the stdlib's three Python frames per draw.

    ``randint(low, high)`` is ``low + r`` for the first ``getrandbits(k)``
    draw ``r`` below the width ``high - low + 1``, where ``k`` is the
    width's bit length.
    """
    width = high - low + 1
    if width < 1:
        raise ValueError(f"empty range for randint({low}, {high})")
    k = width.bit_length()
    getrandbits = rng.getrandbits
    draws = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        draws.append(low + r)
    return draws


class DelayModel:
    def __init__(self, scenario: Scenario):
        self.gst = scenario.gst
        self.delta = scenario.delta_post
        self.mode = scenario.delay_mode
        self.pre = scenario.pre_gst

    def delivery_ticks(self, sent: int, count: int,
                       rng: random.Random) -> list[int]:
        """Delivery ticks of ``count`` copies of a message sent at ``sent``,
        drawn in recipient order; anything sent pre-GST still lands by
        gst + delta_post."""
        if sent >= self.gst or self.pre is None:
            base = sent
        elif self.pre.kind == "drop":
            base = self.gst
        else:
            cap = self.gst + self.delta
            return [min(tick, cap) for tick in randints(
                rng, sent + 1, sent + self.pre.max_delay, count)]
        if self.mode == "uniform":
            return [base + self.delta] * count
        return randints(rng, base + 1, base + self.delta, count)

    def bound(self, sent: int) -> int:
        """Latest legal delivery tick for a message entering the net at
        ``sent``; traces are audited against this."""
        if sent >= self.gst:
            return sent + self.delta
        return self.gst + self.delta


# -- adversary ----------------------------------------------------------------

class Adversary:
    """Outbound-traffic rewriter for one byzantine node.

    Never signs for anyone else: equivocation only re-signs with the node's
    own key, replay only copies messages verbatim.
    """

    def __init__(self, node: NodeId, strategy: Strategy,
                 everyone: tuple[NodeId, ...], rng: random.Random):
        self.node = node
        self.strategy = strategy
        self.everyone = everyone  # every node id, ascending
        split = len(everyone) // 2
        self.lower, self.upper = everyone[:split], everyone[split:]
        self.rng = rng
        self._replayed: set = set()

    def outgoing(self, msg: WireMsg
                 ) -> list[tuple[WireMsg, tuple[NodeId, ...], int]]:
        """Map one broadcast to (message, recipients, send lag) tuples."""
        everyone = self.everyone
        name = self.strategy.name
        if name == "silent":
            return []
        if name == "withhold_ready":
            if isinstance(msg, BbcaMsg) and msg.kind == READY:
                return []
            return [(msg, everyone, 0)]
        if name == "delay_own":
            lag, = randints(self.rng, 0, self.strategy.max_delay, 1)
            return [(msg, everyone, lag)]
        if name == "equivocate_init" and isinstance(msg, BbcaMsg) \
                and msg.instance.sender == self.node:
            return self._equivocate_broadcast(msg)
        if name == "equivocate_data" and isinstance(msg, BlockMsg) \
                and msg.block.kind == _DATA \
                and msg.block.author == self.node:
            twin = dataclasses.replace(
                msg.block, payload=msg.block.payload + b"/equivocated")
            return [(msg, self.lower, 0), (BlockMsg(twin), self.upper, 0)]
        return [(msg, everyone, 0)]

    def _equivocate_broadcast(self, msg: BbcaMsg):
        if msg.kind == READY:
            return [(msg, self.everyone, 0)]
        try:
            block = decode_block(msg.message)
        except EncodingError:
            return [(msg, self.everyone, 0)]
        twin = dataclasses.replace(
            block, payload=block.payload + b"/equivocated")
        # A fresh sender instance signs the twin: [INIT, sender ECHO].
        init, echo = BbcaInstance(params_for(len(self.everyone)),
                                  msg.instance,
                                  self.node).broadcast(twin.encoded)
        alt = init if msg.kind == INIT else echo
        return [(msg, self.lower, 0), (alt, self.upper, 0)]

    def observed(self, msg: WireMsg
                 ) -> list[tuple[WireMsg, tuple[NodeId, ...], int]]:
        """Replay hook: re-send each observed message once, verbatim."""
        if self.strategy.name != "replay" or msg in self._replayed:
            return []
        self._replayed.add(msg)
        return [(msg, self.everyone, 0)]


# -- trace --------------------------------------------------------------------

@dataclass
class Trace:
    # send/deliver records end with the message object; export_lines formats it
    records: list[tuple] = field(default_factory=list)
    view_entries: dict[NodeId, dict[int, tuple[int, str]]] = field(
        default_factory=dict)
    commit_ticks: dict[BlockRef, dict[NodeId, int]] = field(
        default_factory=dict)
    send_ticks: dict[BlockRef, int] = field(default_factory=dict)
    deliveries: list[tuple[int, int, NodeId, NodeId]] = field(
        default_factory=list)  # (entry tick, delivery tick, frm, to)
    probes: dict[NodeId, list[tuple[int, int, bool, BlockRef | None]]] = \
        field(default_factory=dict)  # node -> [(tick, view, adopted, ref)]
    audits: dict[tuple[NodeId, int], tuple[bool, BlockRef | None]] = field(
        default_factory=dict)  # (node, view) -> (adopted, ref)
    injected: list[tuple[int, NodeId, BlockRef]] = field(default_factory=list)
    failure: tuple[int, str] | None = None  # (event index, description)
    stop_reason: str = ""
    events_processed: int = 0

    def record(self, *fields) -> None:
        self.records.append(fields)

    def export_lines(self) -> list[str]:
        described: dict[int, str] = {}  # id(msg) -> text, for this call only
        lines = []
        append = lines.append
        for record in self.records:
            kind = record[0]
            if kind == "send" or kind == "deliver":
                msg = record[-1]
                text = described.get(id(msg))
                if text is None:
                    text = described[id(msg)] = _describe(msg)
                # Byte-identical to the generic join below with the text in
                # place of msg; kept for +15% campaign_byz runs/s (seed 5).
                if kind == "send":
                    append(f"send {record[1]} {record[2]} {text}")
                else:
                    append(f"deliver {record[1]} {record[2]} {record[3]} "
                           f"{text}")
            else:
                append(" ".join(map(str, record)))
        append(f"stop {self.stop_reason}")
        return lines

    def digest(self) -> str:
        payload = "\n".join(self.export_lines()).encode()
        return hashlib.sha256(payload).hexdigest()


@dataclass
class RunResult:
    scenario: Scenario
    trace: Trace
    nodes: dict[NodeId, ChainNode]

    @property
    def failed(self) -> bool:
        return self.trace.failure is not None


def _describe(msg: WireMsg) -> str:
    if isinstance(msg, BbcaMsg):
        return (f"{msg.kind.name} s{msg.instance.sender} v{msg.instance.view} "
                f"{digest32(msg.message).hex()[:12]}")
    return (f"BLOCK {msg.block.kind.name} v{msg.block.view} "
            f"a{msg.block.author} {msg.block.digest.hex()[:12]}")


# -- simulator ----------------------------------------------------------------

class Simulator:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.delay_model = DelayModel(scenario)
        self.trace = Trace()
        self.now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, object]] = []
        self.nodes = {i: ChainNode(i, scenario.params, scenario.horizon)
                      for i in range(scenario.n)}
        self.correct = scenario.correct_nodes()
        self.everyone = tuple(range(scenario.n))
        self.adversaries = {
            i: Adversary(i, strategy, self.everyone, self.rng)
            for i, strategy in sorted(scenario.strategies.items())}

    # -- scheduling --------------------------------------------------------

    def _push(self, tick: int, event) -> None:
        heapq.heappush(self._heap, (tick, self._seq, event))
        self._seq += 1

    def _note_block_send(self, msg: WireMsg, tick: int) -> None:
        blocks: list[Block] = []
        if isinstance(msg, BlockMsg):
            blocks.append(msg.block)
        elif isinstance(msg, BbcaMsg):
            try:
                block = decode_block(msg.message)
            except EncodingError:
                return
            blocks.append(block)
            if block.justification is not None:
                blocks.extend(block.justification.new_view_blocks)
        for block in blocks:
            self.trace.send_ticks.setdefault(block.digest, tick)

    def _transmit(self, frm: NodeId, msg: WireMsg,
                  targets: tuple[NodeId, ...], lag: int) -> None:
        """Send ``msg`` to ``targets`` (ascending), entering the net after
        ``lag`` ticks.  Inlines ``_push`` and ``Trace.record``, kept for
        +2.2% sim_long events/s (perfbench seed 5)."""
        entry = self.now + lag
        self._note_block_send(msg, entry)
        trace = self.trace
        trace.records.append(("send", entry, frm, msg))
        deliveries, heap, seq = trace.deliveries, self._heap, self._seq
        ticks = self.delay_model.delivery_ticks(entry, len(targets), self.rng)
        for target, tick in zip(targets, ticks):
            deliveries.append((entry, tick, frm, target))
            heapq.heappush(heap, (tick, seq, Deliver(target, frm, msg)))
            seq += 1
        self._seq = seq

    def _drain(self, node_id: NodeId) -> None:
        adversary = self.adversaries.get(node_id)
        for action in self.nodes[node_id].take_outbox():
            if isinstance(action, Broadcast):
                if adversary is None:
                    self._transmit(node_id, action.msg, self.everyone, 0)
                else:
                    for msg, targets, lag in adversary.outgoing(action.msg):
                        self._transmit(node_id, msg, targets, lag)
            elif isinstance(action, SetTimer):
                self._push(self.now + self.scenario.timer_ticks,
                           TimerFire(node_id, action.view))
            elif isinstance(action, Note):
                self._absorb_note(node_id, action)

    def _absorb_note(self, node_id: NodeId, note: Note) -> None:
        if note.kind == "view":
            view, cause = note.data
            self.trace.view_entries.setdefault(node_id, {})[view] = (
                self.now, cause)
            self.trace.record("view", self.now, node_id, view, cause)
        elif note.kind == "commit":
            view, refs = note.data
            for ref in refs:
                self.trace.commit_ticks.setdefault(ref, {})[node_id] = self.now
            self.trace.record("commit", self.now, node_id, view,
                              ",".join(r.hex()[:12] for r in refs))
        elif note.kind == "probe":
            view, adopted, ref = note.data
            self.trace.probes.setdefault(node_id, []).append(
                (self.now, view, adopted, ref))
            self.trace.record("probe", self.now, node_id, view, adopted)

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        scenario = self.scenario
        for tick, node in scenario.injections:
            payload = f"payload/{node}/{tick}".encode()
            self._push(tick, Inject(node, payload))
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()
            self._drain(node_id)
        stop = ""
        while self._heap:
            tick, _, event = heapq.heappop(self._heap)
            if tick > scenario.max_ticks:
                stop = "max_ticks"
                break
            self.now = tick
            self.trace.events_processed += 1
            try:
                node_id = self._dispatch(event)
            except SafetyViolation as violation:
                self.trace.failure = (self.trace.events_processed,
                                      str(violation))
                self.trace.record("violation", self.now,
                                  self.trace.events_processed, str(violation))
                stop = "violation"
                break
            if self._target_reached(node_id):
                stop = "target"
                break
        if not stop:
            stop = "quiesced"
        self.trace.stop_reason = stop
        if scenario.audit_probe:
            self._audit()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            log_digest = hashlib.sha256(
                b"".join(node.committed_log)).hexdigest()[:16]
            entries = self.trace.view_entries.get(node_id, {})
            entry_vector = ",".join(f"{v}:{t}" for v, (t, _)
                                    in sorted(entries.items()))
            self.trace.record("summary", node_id, node.view,
                              node.last_committed, log_digest, entry_vector)
        return RunResult(scenario, self.trace, self.nodes)

    def _dispatch(self, event) -> NodeId:
        """Process one event; return the node it was addressed to."""
        if isinstance(event, Deliver):
            self.trace.records.append(("deliver", self.now, event.to,
                                       event.frm, event.msg))
            self.nodes[event.to].handle_message(event.frm, event.msg)
            self._drain(event.to)
            adversary = self.adversaries.get(event.to)
            if adversary is not None:
                for msg, targets, lag in adversary.observed(event.msg):
                    self._transmit(event.to, msg, targets, lag)
            return event.to
        if isinstance(event, TimerFire):
            self.trace.record("timer", self.now, event.node, event.view)
            self.nodes[event.node].handle_timer(event.view)
        else:
            block = self.nodes[event.node].submit_payload(event.payload)
            self.trace.injected.append((self.now, event.node, block.digest))
            self.trace.record("inject", self.now, event.node,
                              block.digest.hex()[:12])
        self._drain(event.node)
        return event.node

    def _target_reached(self, node_id: NodeId) -> bool:
        """Whether every correct node committed the target view.

        An event changes only its own node's ``last_committed`` and the
        check was false after the previous event, so the node the event
        touched is tested first.
        """
        target = self.scenario.stop_after_committed
        if target is None or self.nodes[node_id].last_committed < target:
            return False
        return all(self.nodes[i].last_committed >= target
                   for i in self.correct)

    def _audit(self) -> None:
        """End-of-run probe sweep of every correct node and instance.

        Undelivered traffic is dead once the run stopped; it stays unread.
        """
        views = sorted({view for node_id in self.correct
                        for view in self.nodes[node_id].instances})
        for node_id in self.correct:
            for view in views:
                result = self.nodes[node_id].audit_probe(view)
                ref = result.cert.block_digest if result.adopted else None
                self.trace.audits[(node_id, view)] = (result.adopted, ref)
                self.trace.record("force_probe", node_id, view,
                                  result.adopted, ref and ref.hex()[:12])


def run(scenario: Scenario) -> RunResult:
    return Simulator(scenario).run()


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
