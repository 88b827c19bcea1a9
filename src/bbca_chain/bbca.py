"""Abortable consistent broadcast with a complete-adopt probe.

A Bracha-style echo/ready broadcast, modified in two ways: the f+1-ready
amplification is removed, and a local ``probe`` can abort the instance.
Probing returns ``Adopt(m, cert)`` when some message has gathered an echo
quorum locally, else ``NoAdopt`` while flagging the instance so it will
never send a READY afterwards.  The resulting guarantee: if any correct
node completes m, at least f+1 correct probers adopt m; conversely f+1
correct NoAdopt answers preclude completion anywhere.

Handlers are pure state transitions: one inbound message in, a list of
outbound messages (or a completion event) out.  The enclosing runtime
serializes calls per node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

from .blocks import BlockRef, Cert, CertKind
from .encoding import digest32, echo_statement, ready_statement
from .identity import NodeId, Signature, SystemParams, sign, verify

Predicate = Callable[[bytes], bool]


def _accept_all(_message: bytes) -> bool:
    return True


# Per-message records are named tuples: cheaper to build and to hash than
# frozen dataclasses, with the same field order, repr, hash and ordering.

class InstanceId(NamedTuple):
    sender: NodeId
    view: int


class MsgKind(enum.IntEnum):
    INIT = 1
    ECHO = 2
    READY = 3


# Enum members as module constants, also read by ``chain``.
# Kept for +13% explore_mixed leaves/s (perfbench seed 5).
INIT, ECHO, READY = MsgKind.INIT, MsgKind.ECHO, MsgKind.READY


class BbcaMsg(NamedTuple):
    kind: MsgKind
    instance: InstanceId
    message: bytes
    sig: Signature | None = None


class ProbeResult(NamedTuple):
    adopted: bool
    message: bytes | None = None
    cert: Cert | None = None


class CompleteEvent(NamedTuple):
    instance: InstanceId
    message: bytes
    cert: Cert


@dataclass
class _MessageState:
    message: bytes
    echo_sigs: dict[NodeId, Signature] = field(default_factory=dict)
    ready_sigs: dict[NodeId, Signature] = field(default_factory=dict)


class BbcaInstance:
    """One broadcast instance as seen by one node."""

    def __init__(self, params: SystemParams, instance: InstanceId,
                 node: NodeId, predicate: Predicate = _accept_all):
        self.params = params
        self.instance = instance
        self.node = node
        self.predicate = predicate
        # A message holds a state here only once it passed the predicate, so
        # a digest found here needs no second validity check.
        self.pending: dict[BlockRef, _MessageState] = {}
        self.received_echo: set[NodeId] = set()
        self.received_ready: set[NodeId] = set()
        self.echo = False
        self.ready = False
        self.abort = False
        self.completed: CompleteEvent | None = None

    def clone(self) -> "BbcaInstance":
        """Snapshot for state-space exploration; shares immutable pieces."""
        twin = object.__new__(BbcaInstance)
        twin.params, twin.instance = self.params, self.instance
        twin.node, twin.predicate = self.node, self.predicate
        twin.pending = {
            digest: _MessageState(m.message, dict(m.echo_sigs),
                                  dict(m.ready_sigs))
            for digest, m in self.pending.items()}
        twin.received_echo = set(self.received_echo)
        twin.received_ready = set(self.received_ready)
        twin.echo, twin.ready, twin.abort = self.echo, self.ready, self.abort
        twin.completed = self.completed
        return twin

    # -- outbound construction ------------------------------------------

    def _signed(self, kind: MsgKind, message: bytes) -> BbcaMsg:
        instance = self.instance
        stmt = _statement(kind, instance.sender, instance.view, message)
        return BbcaMsg(kind, instance, message, sign(self.node, stmt))

    # -- interfaces -------------------------------------------------------

    def broadcast(self, message: bytes) -> list[BbcaMsg]:
        """Sender entry point: emit INIT plus the sender's own ECHO."""
        if self.node != self.instance.sender:
            raise ValueError("only the designated sender may broadcast")
        if self.echo:
            raise ValueError("duplicate broadcast on an initialized instance")
        self.echo = True
        return [BbcaMsg(INIT, self.instance, message),
                self._signed(ECHO, message)]

    def probe(self) -> ProbeResult:
        """Adopt a quorum-echoed message, or abort the instance.

        Never un-sets ready: a node that already sent READY holds the echo
        quorum and always adopts.  Echo recording continues after an abort,
        so a later probe may upgrade NoAdopt to Adopt.
        """
        found = self.available_adopt()
        if found is not None:
            return ProbeResult(True, found[0], found[1])
        self.abort = True
        return ProbeResult(False)

    # -- message handlers --------------------------------------------------

    def handle_message(self, frm: NodeId, msg: BbcaMsg
                       ) -> tuple[list[BbcaMsg], CompleteEvent | None]:
        """The one entry point for inbound traffic: dispatch on the kind.

        Only INIT rides unsigned; an ECHO or READY without a signature is
        dropped.
        """
        kind, _, message, sig = msg
        if sig is not None:
            if kind == ECHO:
                return self.on_echo(message, sig, frm), None
            if kind == READY:
                return [], self.on_ready(message, sig, frm)
        if kind == INIT:
            return self.on_init(message, frm), None
        return [], None

    def on_init(self, message: bytes, frm: NodeId) -> list[BbcaMsg]:
        # INIT is unsigned; channel-level origin must be the instance sender.
        if self.echo or frm != self.instance.sender:
            return []
        digest = message_digest(message)
        if digest not in self.pending:
            if not self.predicate(message):
                return []
            self.pending[digest] = _MessageState(message)
        self.echo = True
        return [self._signed(ECHO, message)]

    def on_echo(self, message: bytes, sig: Signature,
                frm: NodeId) -> list[BbcaMsg]:
        # Dedupe by signer, not by channel origin: a relayed echo still
        # counts once for its signer and certificates stay distinct-signer.
        signer = sig.signer
        if signer in self.received_echo:
            return []
        digest = message_digest(message)
        if digest not in self.pending and not self.predicate(message):
            return []
        sender, view = self.instance
        if not verify(sig, _statement(ECHO, sender, view, message), signer):
            return []
        self.received_echo.add(signer)
        mstate = self._state_for(digest, message)
        mstate.echo_sigs[signer] = sig
        if (not self.ready and not self.abort
                and len(mstate.echo_sigs) == self.params.quorum):
            self.ready = True
            return [self._signed(READY, message)]
        return []

    def on_ready(self, message: bytes, sig: Signature,
                 frm: NodeId) -> CompleteEvent | None:
        signer = sig.signer
        if signer in self.received_ready:
            return None
        digest = message_digest(message)
        if digest not in self.pending and not self.predicate(message):
            return None
        sender, view = self.instance
        if not verify(sig, _statement(READY, sender, view, message),
                      signer):
            return None
        self.received_ready.add(signer)
        mstate = self._state_for(digest, message)
        mstate.ready_sigs[signer] = sig
        # Completion is not blocked by abort; only READY emission is.
        if self.completed is None and len(mstate.ready_sigs) == self.params.quorum:
            cert = Cert(CertKind.COMPLETE, sender, view, digest,
                        _sorted_sigs(mstate.ready_sigs))
            self.completed = CompleteEvent(self.instance, message, cert)
            return self.completed
        return None

    def _state_for(self, digest: BlockRef, message: bytes) -> _MessageState:
        mstate = self.pending.get(digest)
        if mstate is None:
            mstate = self.pending[digest] = _MessageState(message)
        return mstate

    # -- local queries -----------------------------------------------------

    def adoptable_digest(self) -> BlockRef | None:
        """Digest of the message a probe would adopt now, if any."""
        # At most one message can hold an echo quorum: each node's first
        # echo is the only one counted, so quorums for two messages would
        # need more distinct nodes than exist.
        quorum = self.params.quorum
        for digest, mstate in self.pending.items():
            if len(mstate.echo_sigs) >= quorum:
                return digest
        return None

    def available_adopt(self) -> tuple[bytes, Cert] | None:
        """Adopt certificate extractable from current state, without probing."""
        digest = self.adoptable_digest()
        if digest is None:
            return None
        mstate = self.pending[digest]
        sender, view = self.instance
        sigs = _sorted_sigs(mstate.echo_sigs)[:self.params.quorum]
        return mstate.message, Cert(CertKind.ADOPT, sender, view, digest, sigs)


@lru_cache(maxsize=4096)
def message_digest(message: bytes) -> bytes:
    """``digest32`` of a broadcast message, memoized by value: every node
    digests the same proposal bytes on every ECHO and READY it handles."""
    return digest32(message)


@lru_cache(maxsize=4096)
def _statement(kind: MsgKind, sender: NodeId, view: int,
               message: bytes) -> bytes:
    """The ECHO or READY statement over ``message`` in instance (sender, view).

    Pure in its arguments, so memoized; signatures over it are still
    verified on every delivery.
    """
    build = echo_statement if kind == ECHO else ready_statement
    return build(sender, view, message_digest(message))


def _sorted_sigs(sigs: dict[NodeId, Signature]) -> tuple[Signature, ...]:
    # map form kept for +10.6% explore_mixed leaves/s (perfbench seed 5)
    return tuple(map(sigs.__getitem__, sorted(sigs)))
