"""Abortable consistent broadcast with a complete-adopt probe.

A Bracha-style echo/ready broadcast, modified in two ways: the f+1-ready
amplification is removed, and a local ``probe`` can abort the instance.
Answers are certificates: the vote that completes a quorum yields a COMPLETE
``Cert`` (READY signatures) or an ADOPT ``Cert`` (ECHO signatures, even when
an abort suppressed the READY), a probe the ADOPT ``Cert`` available now or
``None`` for NoAdopt, which flags the instance so it never sends a READY
afterwards; the message stays in ``pending`` under the certificate's
``block_digest``.  If any correct node completes m, at least f+1 correct
probers adopt m; conversely f+1 correct NoAdopt answers preclude completion
anywhere.

An ECHO or READY counts only if its signer is one of the n nodes.  The
statement a vote signs is fixed by (kind, instance, message), so the vote
table ``vote_row``, kept in the run's memo, maps that key to (message
digest, statement digest): a handler checks a vote by comparing its
signature's digest with the row, which is ``identity.verify`` for a
signature checked against its own signer, and signs its own votes with the
row's digest, as ``identity.sign`` would.  Once a node sent its own ECHO
and holds the ECHO and the READY of all n nodes, the instance is ``final``:
no input can change its answers, so the enclosing node may keep its
``outcome`` and drop the instance.

Handlers are pure state transitions: one inbound message in, a list of
outbound messages and the certificate it formed, if any, out.  The
enclosing runtime serializes calls per node.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Callable, NamedTuple

from .blocks import BlockRef, Cert, CertKind
from .encoding import digest32, echo_statement, ready_statement
from .identity import NodeId, Signature, SystemParams, statement_digest

Predicate = Callable[[bytes], bool]


class MemoTable(dict):
    """One view's table of a run's memo: ``table[(fn, *args)]`` is the pure
    ``fn(*args)``, kept from the first lookup on unless the call raises."""

    def __missing__(self, key):
        fn, *args = key
        value = self[key] = fn(*args)
        return value


Memo = defaultdict[int, MemoTable]  # a run's memo: one table per view


def new_memo() -> Memo:
    return defaultdict(MemoTable)


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


class BbcaInstance:
    """One broadcast instance as seen by one node."""

    def __init__(self, params: SystemParams, instance: InstanceId,
                 node: NodeId, predicate: Predicate = _accept_all,
                 memo: Memo | None = None):
        self.params = params
        self.instance = instance
        self.node = node
        self.predicate = predicate
        self.memo = new_memo() if memo is None else memo  # the run's
        # A message is held here only once it passed the predicate, so a
        # digest found here needs no second validity check.
        self.pending: dict[BlockRef, bytes] = {}
        # Per digest, its ECHO and READY signatures: tuples that a vote
        # replaces, so ``clone`` copies these dicts flat.
        self.echo_sigs: dict[BlockRef, tuple[Signature, ...]] = {}
        self.ready_sigs: dict[BlockRef, tuple[Signature, ...]] = {}
        self.received_echo: set[NodeId] = set()
        self.received_ready: set[NodeId] = set()
        self.echo = False
        self.ready = False
        self.abort = False
        self.completed: Cert | None = None

    def clone(self) -> "BbcaInstance":
        """Snapshot for state-space exploration; shares immutable pieces."""
        twin = object.__new__(BbcaInstance)
        twin.params, twin.instance = self.params, self.instance
        twin.node, twin.predicate = self.node, self.predicate
        twin.memo = self.memo
        twin.pending = dict(self.pending)
        twin.echo_sigs = dict(self.echo_sigs)
        twin.ready_sigs = dict(self.ready_sigs)
        twin.received_echo = set(self.received_echo)
        twin.received_ready = set(self.received_ready)
        twin.echo, twin.ready, twin.abort = self.echo, self.ready, self.abort
        twin.completed = self.completed
        return twin

    # -- outbound construction ------------------------------------------

    def _signed(self, kind: MsgKind, message: bytes) -> BbcaMsg:
        instance = self.instance
        _, signed = self.memo[instance.view][(vote_row, kind, instance,
                                              message)]
        # ``identity.sign`` over the row's statement; ``tuple.__new__`` skips
        # the generated constructors: 375-381 -> 244-247 ns (timeit).
        sig = tuple.__new__(Signature, (self.node, signed))
        return tuple.__new__(BbcaMsg, (kind, instance, message, sig))

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

    def probe(self) -> Cert | None:
        """Adopt with an ADOPT certificate, or abort: ``None`` is NoAdopt.

        Never un-sets ready: a node that already sent READY holds the echo
        quorum and always adopts.  Echo recording continues after an abort,
        so a later probe may upgrade NoAdopt to Adopt.
        """
        cert = self.available_adopt()
        if cert is None:
            self.abort = True
        return cert

    # -- message handlers --------------------------------------------------

    def handle_message(self, frm: NodeId, msg: BbcaMsg
                       ) -> tuple[list[BbcaMsg], Cert | None]:
        """The one entry point for inbound traffic: dispatch on the kind.

        Only INIT rides unsigned; an ECHO or READY without a signature is
        dropped.
        """
        kind, _, message, sig = msg
        if sig is not None:
            if kind == ECHO:
                return self.on_echo(message, sig, frm)
            if kind == READY:
                return [], self.on_ready(message, sig, frm)
        if kind == INIT:
            return self.on_init(message, frm), None
        return [], None

    def on_init(self, message: bytes, frm: NodeId) -> list[BbcaMsg]:
        # INIT is unsigned; channel-level origin must be the instance sender.
        if self.echo or frm != self.instance.sender:
            return []
        instance = self.instance
        digest, _ = self.memo[instance.view][(vote_row, ECHO, instance,
                                              message)]
        if digest not in self.pending:
            if not self.predicate(message):
                return []
            self.pending[digest] = message
        self.echo = True
        return [self._signed(ECHO, message)]

    def on_echo(self, message: bytes, sig: Signature,
                frm: NodeId) -> tuple[list[BbcaMsg], Cert | None]:
        # Dedupe by signer, not by channel origin: a relayed echo still
        # counts once for its signer and certificates stay distinct-signer.
        signer = sig.signer
        if signer in self.received_echo or not 0 <= signer < self.params.n:
            return [], None
        instance = self.instance
        digest, signed = self.memo[instance.view][(vote_row, ECHO, instance,
                                                   message)]
        if digest not in self.pending and not self.predicate(message):
            return [], None
        if sig.digest != signed:
            return [], None
        self.received_echo.add(signer)
        self.pending[digest] = message
        sigs = (*self.echo_sigs.get(digest, ()), sig)
        self.echo_sigs[digest] = sigs
        if len(sigs) != self.params.quorum:
            return [], None
        # ``available_adopt()`` now, READY or not; built as in ``_signed``.
        adopt = tuple.__new__(Cert, (CertKind.ADOPT, *instance, digest,
                                     tuple(sorted(sigs))))
        if self.ready or self.abort:
            return [], adopt
        self.ready = True
        return [self._signed(READY, message)], adopt

    def on_ready(self, message: bytes, sig: Signature,
                 frm: NodeId) -> Cert | None:
        signer = sig.signer
        if signer in self.received_ready or not 0 <= signer < self.params.n:
            return None
        instance = self.instance
        digest, signed = self.memo[instance.view][(vote_row, READY, instance,
                                                   message)]
        if digest not in self.pending and not self.predicate(message):
            return None
        if sig.digest != signed:
            return None
        self.received_ready.add(signer)
        self.pending[digest] = message
        sigs = (*self.ready_sigs.get(digest, ()), sig)
        self.ready_sigs[digest] = sigs
        # Completion is not blocked by abort; only READY emission is.
        if self.completed is None and len(sigs) == self.params.quorum:
            # As ``on_echo`` builds ADOPT: no generated constructor frame.
            self.completed = tuple.__new__(Cert, (
                CertKind.COMPLETE, *instance, digest, tuple(sorted(sigs))))
            return self.completed
        return None

    # -- local queries -----------------------------------------------------

    def final(self) -> bool:
        """Whether no input can change an answer: this node sent its own
        ECHO and holds the ECHO and the READY of all n nodes, so every later
        vote is a duplicate or has an unknown signer, and every later INIT
        finds the ECHO sent."""
        n = self.params.n
        return (self.echo and len(self.received_echo) >= n
                and len(self.received_ready) >= n)

    def outcome(self) -> tuple[BlockRef | None, BlockRef | None]:
        """(completed digest, adoptable digest), ``None`` where absent."""
        completed = self.completed
        return (None if completed is None else completed.block_digest,
                self.adoptable_digest())

    def adoptable_digest(self) -> BlockRef | None:
        """Digest of the message a probe would adopt now, if any."""
        # At most one message can hold an echo quorum: each node's first
        # echo is the only one counted, so quorums for two messages would
        # need more distinct nodes than exist.
        quorum = self.params.quorum
        for digest, sigs in self.echo_sigs.items():
            if len(sigs) >= quorum:
                return digest
        return None

    def available_adopt(self) -> Cert | None:
        """ADOPT certificate extractable from current state, without probing."""
        digest = self.adoptable_digest()
        if digest is None:
            return None
        sigs = tuple(sorted(self.echo_sigs[digest])[:self.params.quorum])
        return Cert(CertKind.ADOPT, *self.instance, digest, sigs)


def vote_row(kind: MsgKind, instance: InstanceId,
             message: bytes) -> tuple[BlockRef, bytes]:
    """The vote table's row: (message digest, statement digest) of an ECHO
    or READY over ``message`` in ``instance``."""
    digest = digest32(message)
    build = echo_statement if kind == ECHO else ready_statement
    return digest, statement_digest(
        build(instance.sender, instance.view, digest))
