"""Deterministic discrete-event network simulator.

Partial synchrony on an integer tick clock: link delays are unbounded (or
dropped) before a global stabilization tick, and bounded by ``delta_post``
after it.  All randomness comes from one seeded generator, events are ordered
by (tick, insertion order), and nodes process exactly one event at a time,
so a (scenario, seed) pair always reproduces the same trace bytes.

Byzantine behavior is a per-node wrapper over a correct state machine that
rewrites its outbound traffic: staying silent, withholding READY votes,
equivocating proposals or data blocks to disjoint halves, replaying observed
messages, or lagging its own sends.

``Driver`` is the one way nodes are driven, here and in the explorer's chain
worlds: it starts the nodes and drains what each event makes a node emit,
routing wire messages through the node's adversary, if any, and checking
the event's commits with ``invariants.commit_ancestry``.  What a run
records, and the packed tables it keeps, are ``trace.Trace``'s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import random
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import starmap
from operator import attrgetter
from typing import NamedTuple

from . import invariants
from .bbca import INIT, READY, BbcaInstance, BbcaMsg, new_memo
from .blocks import Block, BlockKind, decode_block
from .chain import (
    WIRE_TYPES,
    BlockMsg,
    ChainNode,
    Committed,
    SafetyViolation,
    ViewEntered,
    WireMsg,
)
from .encoding import EncodingError
from .identity import ConfigError, NodeId, SystemParams, params_for
from .trace import DIGEST_CHUNK_LINES, Trace

# A kind constant like ``bbca.INIT``: +1.8% campaign_byz runs/s (seed 5).
_DATA = BlockKind.DATA

STRATEGIES = ("silent", "withhold_ready", "equivocate_init",
              "equivocate_data", "replay", "delay_own")


@dataclass(frozen=True)
class Strategy:
    """A byzantine node's behaviour: one of ``STRATEGIES``, validated on
    construction."""

    name: str
    max_delay: int = 0  # delay_own only

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ConfigError(f"unknown adversary strategy {self.name!r}")
        if self.max_delay < 0:
            raise ConfigError("max_delay must not be negative")
        if self.max_delay and self.name != "delay_own":
            raise ConfigError("max_delay applies to delay_own only")


@dataclass(frozen=True)
class PreGstPolicy:
    """How links behave before GST, validated on construction: delayed up
    to ``max_delay`` ticks, or dropped."""

    kind: str  # "adversarial" | "drop"
    max_delay: int = 0  # adversarial only

    def __post_init__(self):
        if self.kind not in ("adversarial", "drop"):
            raise ConfigError(f"unknown pre-GST policy {self.kind!r}")
        if self.kind == "adversarial" and self.max_delay < 1:
            raise ConfigError("adversarial policy needs a max_delay of at "
                              "least one tick")
        if self.kind == "drop" and self.max_delay:
            raise ConfigError("max_delay applies to the adversarial policy "
                              "only")


@dataclass(frozen=True)
class Scenario:
    """One simulator run's settings, validated on construction.  Campaigns
    and the benchmark vary the seed with ``dataclasses.replace``."""

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
        if self.pre_gst is not None and self.gst <= 0:
            raise ConfigError("pre_gst applies only when gst > 0")
        for index, (tick, node) in enumerate(self.injections):
            if not 0 <= node < self.n:
                raise ConfigError(
                    f"payloads[{index}].node: out of range for n={self.n}")
            if tick < 0:
                raise ConfigError(f"payloads[{index}].tick: negative")

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


class RunResult(NamedTuple):
    scenario: Scenario
    trace: Trace
    nodes: dict[NodeId, ChainNode]

    @property
    def failed(self) -> bool:
        return self.trace.failure is not None


# -- simulator ----------------------------------------------------------------

class Driver:
    """Starts ``nodes`` and routes what an event makes one emit, for the
    simulator and the explorer's chain worlds alike: in outbox order, each
    wire message goes through the node's ``Adversary``, if any, to
    ``_transmit`` and every other record to ``_note``.  ``ancestry`` holds
    what ``commit_ancestry`` found at the nodes without an adversary."""

    def _start(self) -> None:
        for node_id in sorted(self.nodes):
            self.nodes[node_id].start()
            self._drain(node_id)

    def _drain(self, node_id: NodeId) -> None:
        node = self.nodes[node_id]
        adversary = self.adversaries.get(node_id)
        committed: list[Block] = []  # this event's, over all its records
        for out in node.take_outbox():
            if isinstance(out, WIRE_TYPES):  # most outputs: tested first
                if adversary is None:
                    self._transmit(node_id, out, self.everyone, 0)
                else:
                    for msg, targets, lag in adversary.outgoing(out):
                        self._transmit(node_id, msg, targets, lag)
            else:
                if type(out) is Committed:
                    committed += out.blocks
                self._note(node_id, out)
        if committed and adversary is None:
            self.ancestry += invariants.commit_ancestry(node, committed)


class Simulator(Driver):
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.delay_model = DelayModel(scenario)
        self.trace = Trace(scenario.n)
        self.ancestry = self.trace.ancestry
        self.now = 0
        # Pending events in one list per tick, in push order, and a heap of
        # the ticks that hold a list.  Every push lands on a tick later than
        # the running one, so events run in (tick, push order).
        self._queue: defaultdict[int, list] = defaultdict(list)
        self._ticks: list[int] = []
        memo = self.memo = new_memo()  # the run's, shared by every node
        self.nodes = {i: ChainNode(i, scenario.params, scenario.horizon, memo)
                      for i in range(scenario.n)}
        self.correct = scenario.correct_nodes()
        self.everyone = tuple(range(scenario.n))
        self.adversaries = {
            i: Adversary(i, strategy, self.everyone, self.rng)
            for i, strategy in sorted(scenario.strategies.items())}

    # -- scheduling --------------------------------------------------------

    def _push(self, tick: int, event) -> None:
        bucket = self._queue[tick]
        if not bucket:
            heapq.heappush(self._ticks, tick)
        bucket.append(event)

    def _note_block_send(self, msg: WireMsg, tick: int) -> None:
        """Report to ``Trace.sent`` each block a BLOCK or an INIT carries,
        the proposal's new-view blocks too.  An ECHO or READY is
        transmitted only after an INIT with the same bytes, so it would
        report nothing new."""
        if isinstance(msg, BlockMsg):
            blocks = [msg.block]
        else:
            try:
                block = self.memo[msg.instance.view][(decode_block,
                                                      msg.message)]
            except EncodingError:
                return
            blocks = [block]
            if block.justification is not None:
                blocks += block.justification.new_view_blocks
        self.trace.sent(blocks, tick)

    def _transmit(self, frm: NodeId, msg: WireMsg,
                  targets: tuple[NodeId, ...], lag: int) -> None:
        """Send ``msg`` to ``targets`` (ascending), entering the net after
        ``lag`` ticks, and note in ``Trace.delays`` each copy scheduled past
        ``DelayModel.bound``.  Inlines ``_push`` and ``Trace.record``, kept
        for +2.2% sim_long events/s (perfbench seed 5).  Each ``Deliver`` is
        built with ``tuple.__new__``, so that no Python-level constructor
        runs."""
        entry = self.now + lag
        trace = self.trace
        trace.records.append(("send", entry, frm, msg))
        if isinstance(msg, BlockMsg) or msg.kind == INIT:
            self._note_block_send(msg, entry)
        else:
            trace.bbca_sends.add(frm, msg.kind, msg.instance)
        model, queue, new = self.delay_model, self._queue, tuple.__new__
        ticks = model.delivery_ticks(entry, len(targets), self.rng)
        trace.deliveries.count += len(ticks)
        bound = model.bound(entry)
        for target, tick in zip(targets, ticks):
            if tick > bound:
                trace.delays.append(
                    f"delay: message {frm}->{target} entered at {entry} but "
                    f"delivered at {tick} (bound {bound})")
            bucket = queue[tick]
            if not bucket:
                heapq.heappush(self._ticks, tick)
            bucket.append(new(Deliver, (target, frm, msg)))

    def _note(self, node_id: NodeId, out) -> None:
        """Report one non-wire output to the trace; a view entry also sets
        the node's view timer and trims the memo."""
        if isinstance(out, ViewEntered):
            self.trace.entered(node_id, self.now, *out)
            self._push(self.now + self.scenario.timer_ticks,
                       TimerFire(node_id, out.view))
            self._trim_memo()
        elif isinstance(out, Committed):
            self.trace.committed(node_id, self.now, *out)
        else:  # Probed
            self.trace.probed(node_id, self.now, *out)

    def _trim_memo(self) -> None:
        """Drop the memo tables of the views below the lowest node view - 2."""
        floor = min(map(attrgetter("view"), self.nodes.values())) - 2
        for view in list(filter(floor.__gt__, self.memo)):
            del self.memo[view]

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        scenario = self.scenario
        for tick, node in scenario.injections:
            payload = f"payload/{node}/{tick}".encode()
            self._push(tick, Inject(node, payload))
        self._start()
        stop = ""
        trace = self.trace
        queue, ticks = self._queue, self._ticks
        while ticks and not stop:
            tick = heapq.heappop(ticks)
            if tick > scenario.max_ticks:
                stop = "max_ticks"
                break
            self.now = tick
            for event in queue.pop(tick):
                trace.events_processed += 1
                try:
                    node_id = self._dispatch(event)
                except SafetyViolation as violation:
                    trace.failure = (trace.events_processed, str(violation))
                    trace.record("violation", tick, trace.events_processed,
                                 str(violation))
                    stop = "violation"
                    break
                if len(trace.records) >= DIGEST_CHUNK_LINES:
                    trace.flush()
                if self._target_reached(node_id):
                    stop = "target"
                    break
        if not stop:
            stop = "quiesced"
        self.trace.stop_reason = stop
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            log_digest = hashlib.sha256(
                b"".join(node.committed_log)).hexdigest()[:16]
            log = self.trace.view_entries.get(node_id)
            entry_vector = "" if log is None else ",".join(
                starmap("{}:{}".format, log.view_ticks()))
            self.trace.record("summary", node_id, node.view,
                              node.last_committed, log_digest, entry_vector)
        return RunResult(scenario, self.trace, self.nodes)

    def _dispatch(self, event) -> NodeId:
        """Process one event; return the node it was addressed to."""
        if isinstance(event, Deliver):
            self.trace.records.append(("deliver", self.now, event.to,
                                       event.frm, event.msg))
            node = self.nodes[event.to]
            node.handle_message(event.frm, event.msg)
            if node.outbox:  # most deliveries send nothing: skip the drain
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


def run(scenario: Scenario) -> RunResult:
    return Simulator(scenario).run()
