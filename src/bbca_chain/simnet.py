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

from .bbca import BbcaInstance, BbcaMsg, MsgKind
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
from .identity import ConfigError, NodeId, SystemParams

STRATEGIES = ("silent", "withhold_ready", "equivocate_init",
              "equivocate_data", "replay", "delay_own")


@dataclass(frozen=True)
class Strategy:
    name: str
    max_delay: int = 0  # delay_own only

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ConfigError(f"unknown adversary strategy {self.name!r}")


@dataclass(frozen=True)
class PreGstPolicy:
    kind: str  # "adversarial" | "drop"
    max_delay: int = 0  # adversarial only

    def __post_init__(self):
        if self.kind not in ("adversarial", "drop"):
            raise ConfigError(f"unknown pre-GST policy {self.kind!r}")


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
        params = SystemParams(self.n)
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

    @property
    def params(self) -> SystemParams:
        return SystemParams(self.n)

    @property
    def timer_ticks(self) -> int:
        return self.t_max if self.t_max is not None else 10 * self.delta_post

    def correct_nodes(self) -> list[NodeId]:
        return [i for i in range(self.n) if i not in self.strategies]


# -- events -------------------------------------------------------------------

@dataclass(frozen=True)
class Deliver:
    to: NodeId
    frm: NodeId
    msg: WireMsg


@dataclass(frozen=True)
class TimerFire:
    node: NodeId
    view: int


@dataclass(frozen=True)
class Inject:
    node: NodeId
    payload: bytes


@dataclass(frozen=True)
class ForceProbe:
    node: NodeId
    view: int


# -- delay model --------------------------------------------------------------

class DelayModel:
    def __init__(self, scenario: Scenario):
        self.gst = scenario.gst
        self.delta = scenario.delta_post
        self.mode = scenario.delay_mode
        self.pre = scenario.pre_gst

    def _post_delay(self, rng: random.Random) -> int:
        if self.mode == "uniform":
            return self.delta
        return rng.randint(1, self.delta)

    def delivery_tick(self, sent: int, rng: random.Random) -> int:
        """Sent-to-delivered mapping; anything sent pre-GST still lands by
        gst + delta_post."""
        if sent >= self.gst or self.pre is None:
            return sent + self._post_delay(rng)
        if self.pre.kind == "drop":
            return self.gst + self._post_delay(rng)
        raw = sent + rng.randint(1, self.pre.max_delay)
        return min(raw, self.gst + self.delta)

    def bound(self, sent: int) -> int:
        """Latest legal delivery tick for a message entering the net at
        ``sent``; traces are audited against this."""
        if sent >= self.gst:
            return sent + self.delta
        return self.gst + self.delta


# -- adversary ----------------------------------------------------------------

def _alter_payload(block: Block, tag: bytes) -> Block:
    twin = dataclasses.replace(block, payload=block.payload + tag)
    return twin


class Adversary:
    """Outbound-traffic rewriter for one byzantine node.

    Never signs for anyone else: equivocation only re-signs with the node's
    own key, replay only copies messages verbatim.
    """

    def __init__(self, node: NodeId, strategy: Strategy, n: int,
                 rng: random.Random):
        self.node = node
        self.strategy = strategy
        self.n = n
        self.rng = rng
        self._replayed: set = set()

    def _halves(self) -> tuple[list[NodeId], list[NodeId]]:
        split = self.n // 2
        return list(range(split)), list(range(split, self.n))

    def outgoing(self, msg: WireMsg) -> list[tuple[WireMsg, list[NodeId], int]]:
        """Map one broadcast to (message, recipients, send lag) tuples."""
        everyone = list(range(self.n))
        name = self.strategy.name
        if name == "silent":
            return []
        if name == "withhold_ready":
            if isinstance(msg, BbcaMsg) and msg.kind == MsgKind.READY:
                return []
            return [(msg, everyone, 0)]
        if name == "delay_own":
            return [(msg, everyone, self.rng.randint(0, self.strategy.max_delay))]
        if name == "equivocate_init" and isinstance(msg, BbcaMsg) \
                and msg.instance.sender == self.node:
            return self._equivocate_broadcast(msg)
        if name == "equivocate_data" and isinstance(msg, BlockMsg) \
                and msg.block.kind == BlockKind.DATA \
                and msg.block.author == self.node:
            lower, upper = self._halves()
            twin = _alter_payload(msg.block, b"/equivocated")
            return [(msg, lower, 0), (BlockMsg(twin), upper, 0)]
        return [(msg, everyone, 0)]

    def _equivocate_broadcast(self, msg: BbcaMsg):
        lower, upper = self._halves()
        if msg.kind == MsgKind.READY:
            return [(msg, lower + upper, 0)]
        try:
            block = decode_block(msg.message)
        except EncodingError:
            return [(msg, lower + upper, 0)]
        twin = _alter_payload(block, b"/equivocated")
        # A fresh sender instance signs the twin: [INIT, sender ECHO].
        init, echo = BbcaInstance(SystemParams(self.n), msg.instance,
                                  self.node).broadcast(twin.encoded)
        alt = init if msg.kind == MsgKind.INIT else echo
        return [(msg, lower, 0), (alt, upper, 0)]

    def observed(self, msg: WireMsg) -> list[tuple[WireMsg, list[NodeId], int]]:
        """Replay hook: re-send each observed message once, verbatim."""
        if self.strategy.name != "replay" or msg in self._replayed:
            return []
        self._replayed.add(msg)
        return [(msg, list(range(self.n)), 0)]


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
    probes: dict[NodeId, list[tuple[int, int, bool]]] = field(
        default_factory=dict)  # node -> [(tick, view, adopted)]
    audits: dict[tuple[NodeId, int], tuple[bool, str | None]] = field(
        default_factory=dict)
    injected: list[tuple[int, NodeId, BlockRef]] = field(default_factory=list)
    failure: tuple[int, str] | None = None  # (event index, description)
    stop_reason: str = ""
    events_processed: int = 0

    def record(self, *fields) -> None:
        self.records.append(fields)

    def export_lines(self) -> list[str]:
        described: dict[int, str] = {}  # id(msg) -> text, for this call only
        lines = []
        for record in self.records:
            if record[0] in ("send", "deliver"):
                msg = record[-1]
                text = described.get(id(msg))
                if text is None:
                    text = described[id(msg)] = _describe(msg)
                record = record[:-1] + (text,)
            lines.append(" ".join(str(f) for f in record))
        lines.append(f"stop {self.stop_reason}")
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
        self.adversaries = {
            i: Adversary(i, strategy, scenario.n, self.rng)
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

    def _transmit(self, frm: NodeId, msg: WireMsg, targets: list[NodeId],
                  lag: int) -> None:
        entry = self.now + lag
        self._note_block_send(msg, entry)
        self.trace.record("send", entry, frm, msg)
        for target in sorted(targets):
            tick = self.delay_model.delivery_tick(entry, self.rng)
            self.trace.deliveries.append((entry, tick, frm, target))
            self._push(tick, Deliver(target, frm, msg))

    def _drain(self, node_id: NodeId) -> None:
        adversary = self.adversaries.get(node_id)
        for action in self.nodes[node_id].take_outbox():
            if isinstance(action, Broadcast):
                if adversary is None:
                    self._transmit(node_id, action.msg,
                                   list(range(self.scenario.n)), 0)
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
            view, adopted, _ref = note.data
            self.trace.probes.setdefault(node_id, []).append(
                (self.now, view, adopted))
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
                self._dispatch(event)
            except SafetyViolation as violation:
                self.trace.failure = (self.trace.events_processed,
                                      str(violation))
                self.trace.record("violation", self.now,
                                  self.trace.events_processed, str(violation))
                stop = "violation"
                break
            if self._target_reached():
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

    def _dispatch(self, event) -> None:
        if isinstance(event, Deliver):
            self.trace.record("deliver", self.now, event.to, event.frm,
                              event.msg)
            self.nodes[event.to].handle_message(event.frm, event.msg)
            self._drain(event.to)
            adversary = self.adversaries.get(event.to)
            if adversary is not None:
                for msg, targets, lag in adversary.observed(event.msg):
                    self._transmit(event.to, msg, targets, lag)
        elif isinstance(event, TimerFire):
            self.trace.record("timer", self.now, event.node, event.view)
            self.nodes[event.node].handle_timer(event.view)
            self._drain(event.node)
        elif isinstance(event, Inject):
            block = self.nodes[event.node].submit_payload(event.payload)
            self.trace.injected.append((self.now, event.node, block.digest))
            self.trace.record("inject", self.now, event.node,
                              block.digest.hex()[:12])
            self._drain(event.node)

    def _target_reached(self) -> bool:
        target = self.scenario.stop_after_committed
        if target is None:
            return False
        return all(self.nodes[i].last_committed >= target
                   for i in self.scenario.correct_nodes())

    def _audit(self) -> None:
        """End-of-run probe sweep of every correct node and instance."""
        views: set[int] = set()
        for node_id in self.scenario.correct_nodes():
            views.update(self.nodes[node_id].instances)
        for node_id in self.scenario.correct_nodes():
            for view in sorted(views):
                self._push(self.now, ForceProbe(node_id, view))
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            if not isinstance(event, ForceProbe):
                continue  # undelivered traffic is dead once the run stopped
            result = self.nodes[event.node].audit_probe(event.view)
            ref = result.cert.block_digest.hex() if result.adopted else None
            self.trace.audits[(event.node, event.view)] = (result.adopted, ref)
            self.trace.record("force_probe", event.node, event.view,
                              result.adopted, ref and ref[:12])


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
