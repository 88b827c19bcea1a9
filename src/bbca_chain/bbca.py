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
from typing import Callable

from .blocks import BlockRef, Cert, CertKind
from .encoding import digest32, echo_statement, ready_statement
from .identity import NodeId, Signature, SystemParams, sign, verify

Predicate = Callable[[bytes], bool]


def _accept_all(_message: bytes) -> bool:
    return True


@dataclass(frozen=True, order=True)
class InstanceId:
    sender: NodeId
    view: int


class MsgKind(enum.IntEnum):
    INIT = 1
    ECHO = 2
    READY = 3


@dataclass(frozen=True)
class BbcaMsg:
    kind: MsgKind
    instance: InstanceId
    message: bytes
    sig: Signature | None = None


@dataclass(frozen=True)
class ProbeResult:
    adopted: bool
    message: bytes | None = None
    cert: Cert | None = None


@dataclass(frozen=True)
class CompleteEvent:
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
        self.pending: dict[BlockRef, _MessageState] = {}
        self.received_echo: set[NodeId] = set()
        self.received_ready: set[NodeId] = set()
        self.echo = False
        self.ready = False
        self.abort = False
        self.completed: CompleteEvent | None = None

    def clone(self) -> "BbcaInstance":
        """Snapshot for state-space exploration; shares immutable pieces."""
        twin = BbcaInstance(self.params, self.instance, self.node,
                            self.predicate)
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

    def _echo_msg(self, message: bytes) -> BbcaMsg:
        stmt = echo_statement(self.instance.sender, self.instance.view,
                              digest32(message))
        return BbcaMsg(MsgKind.ECHO, self.instance, message,
                       sign(self.node, stmt))

    def _ready_msg(self, message: bytes) -> BbcaMsg:
        stmt = ready_statement(self.instance.sender, self.instance.view,
                               digest32(message))
        return BbcaMsg(MsgKind.READY, self.instance, message,
                       sign(self.node, stmt))

    # -- interfaces -------------------------------------------------------

    def broadcast(self, message: bytes) -> list[BbcaMsg]:
        """Sender entry point: emit INIT plus the sender's own ECHO."""
        if self.node != self.instance.sender:
            raise ValueError("only the designated sender may broadcast")
        if self.echo:
            raise ValueError("duplicate broadcast on an initialized instance")
        self.echo = True
        return [BbcaMsg(MsgKind.INIT, self.instance, message),
                self._echo_msg(message)]

    def probe(self) -> ProbeResult:
        """Adopt a quorum-echoed message, or abort the instance.

        Never un-sets ready: a node that already sent READY holds the echo
        quorum and always adopts.  Echo recording continues after an abort,
        so a later probe may upgrade NoAdopt to Adopt.
        """
        found = self._quorum_echoed()
        if found is not None:
            return ProbeResult(True, found[0], found[1])
        self.abort = True
        return ProbeResult(False)

    # -- message handlers --------------------------------------------------

    def on_init(self, message: bytes, frm: NodeId) -> list[BbcaMsg]:
        # INIT is unsigned; channel-level origin must be the instance sender.
        if self.echo or frm != self.instance.sender:
            return []
        if not self.predicate(message):
            return []
        self.echo = True
        return [self._echo_msg(message)]

    def on_echo(self, message: bytes, sig: Signature,
                frm: NodeId) -> list[BbcaMsg]:
        # Dedupe by signer, not by channel origin: a relayed echo still
        # counts once for its signer and certificates stay distinct-signer.
        signer = sig.signer
        if signer in self.received_echo or not self.predicate(message):
            return []
        digest = digest32(message)
        stmt = echo_statement(self.instance.sender, self.instance.view, digest)
        if not verify(sig, stmt, signer):
            return []
        self.received_echo.add(signer)
        mstate = self.pending.setdefault(digest, _MessageState(message))
        mstate.echo_sigs[signer] = sig
        if (not self.ready and not self.abort
                and len(mstate.echo_sigs) == self.params.quorum):
            self.ready = True
            return [self._ready_msg(message)]
        return []

    def on_ready(self, message: bytes, sig: Signature,
                 frm: NodeId) -> CompleteEvent | None:
        signer = sig.signer
        if signer in self.received_ready or not self.predicate(message):
            return None
        digest = digest32(message)
        stmt = ready_statement(self.instance.sender, self.instance.view,
                               digest)
        if not verify(sig, stmt, signer):
            return None
        self.received_ready.add(signer)
        mstate = self.pending.setdefault(digest, _MessageState(message))
        mstate.ready_sigs[signer] = sig
        # Completion is not blocked by abort; only READY emission is.
        if self.completed is None and len(mstate.ready_sigs) == self.params.quorum:
            cert = Cert(CertKind.COMPLETE, self.instance.sender,
                        self.instance.view, digest,
                        _sorted_sigs(mstate.ready_sigs))
            self.completed = CompleteEvent(self.instance, message, cert)
            return self.completed
        return None

    # -- local queries -----------------------------------------------------

    def available_adopt(self) -> tuple[bytes, Cert] | None:
        """Adopt certificate extractable from current state, without probing."""
        return self._quorum_echoed()

    def _quorum_echoed(self) -> tuple[bytes, Cert] | None:
        # At most one message can hold an echo quorum: each node's first
        # echo is the only one counted, so quorums for two messages would
        # need more distinct nodes than exist.
        for digest, mstate in self.pending.items():
            if len(mstate.echo_sigs) >= self.params.quorum:
                sigs = _sorted_sigs(mstate.echo_sigs)[:self.params.quorum]
                cert = Cert(CertKind.ADOPT, self.instance.sender,
                            self.instance.view, digest, tuple(sigs))
                return mstate.message, cert
        return None


def _sorted_sigs(sigs: dict[NodeId, Signature]) -> tuple[Signature, ...]:
    return tuple(sigs[s] for s in sorted(sigs))
