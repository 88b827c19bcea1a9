"""Named protocol mutants: deliberately broken handlers for checking that a
named invariant kills them.

Each mutant is a ``(owner, attribute, replacement)`` triple; ``apply`` sets
it with ``monkeypatch``, so the original is restored after the test.  A
mutant body is the original handler with one rule changed, and the comment
on that rule says what changed.
"""

from bbca_chain.bbca import ECHO, READY, BbcaInstance, BbcaMsg, vote_row
from bbca_chain.blocks import Cert, CertKind, decode_block
from bbca_chain.chain import BlockMsg, ChainNode, get_proposer
from bbca_chain.dag import DagStore
from bbca_chain.encoding import EncodingError


def _on_init_echoing_twice(self, message, frm):
    """``BbcaInstance.on_init`` returning its ECHO twice."""
    if self.echo or frm != self.instance.sender:
        return []
    instance = self.instance
    digest, _ = self.memo[instance.view][(vote_row, ECHO, instance, message)]
    if digest not in self.pending:
        if not self.predicate(message):
            return []
        self.pending[digest] = message
    self.echo = True
    echo = self._signed(ECHO, message)
    return [echo, echo]  # mutated


def _on_echo_sending_ready_when(ready_rule):
    """``BbcaInstance.on_echo`` with its READY condition replaced by
    ``ready_rule(inst, echo_count)``; the echo quorum still hands back its
    ADOPT certificate."""

    def on_echo(self, message, sig, frm):
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
        adopt = None
        if len(sigs) == self.params.quorum:
            adopt = tuple.__new__(Cert, (CertKind.ADOPT, *instance, digest,
                                         tuple(sorted(sigs))))
        if not self.ready and ready_rule(self, len(sigs)):  # mutated
            self.ready = True
            return [self._signed(READY, message)], adopt
        return [], adopt

    return on_echo


def _on_echo_counting_repeats(self, message, sig, frm):
    """``BbcaInstance.on_echo`` without its dedupe by signer."""
    signer = sig.signer
    if not 0 <= signer < self.params.n:  # mutated
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
    adopt = tuple.__new__(Cert, (CertKind.ADOPT, *instance, digest,
                                 tuple(sorted(sigs))))
    if self.ready or self.abort:
        return [], adopt
    self.ready = True
    return [self._signed(READY, message)], adopt


def _on_ready_completing_at_quorum_minus_one(self, message, sig, frm):
    """``BbcaInstance.on_ready`` completing one READY short of the quorum."""
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
    if (self.completed is None
            and len(sigs) == self.params.quorum - 1):  # mutated
        self.completed = Cert(CertKind.COMPLETE, *instance, digest,
                              tuple(sorted(sigs)))
        return self.completed
    return None


def _commit_in_reverse(self, backbone):
    """``DagStore.commit`` committing its batch backbone first, each block
    before the blocks it references."""
    added = self.order_under(backbone, self.committed)[::-1]  # mutated
    blocks = list(map(self.delivered.pop, added))
    self.committed.update(block.digest for block in blocks)
    self._tips.difference_update(added)
    return blocks


def _handle_message_from_any_sender(self, frm, msg):
    """``ChainNode.handle_message`` filing a DATA block whoever sends it."""
    if isinstance(msg, BlockMsg):
        block = msg.block
        if not self.dag.holds(block.digest):  # mutated
            self._ingest_block(block)
    elif isinstance(msg, BbcaMsg):
        self._handle_bbca_message(frm, msg)
    if self.rules_dirty:
        self._evaluate_view_rules()


def _handle_bbca_message_filing_any_block(self, frm, msg):
    """``ChainNode._handle_bbca_message`` filing any block it decodes."""
    _, bid, message, _ = msg
    sender, view = bid
    inst = self.instances.get(view)
    if inst is None:
        if view < 1 or sender != get_proposer(view, self.params):
            return
    elif inst.instance != bid:
        return
    try:
        block = self.memo[view][(decode_block, message)]
    except EncodingError:
        block = None
    if block is not None and not self.dag.holds(block.digest):  # mutated
        self._ingest_block(block)
    if inst is None:
        inst = self._instance_for(view)
        if inst is None:
            return
    outs, cert = inst.handle_message(frm, msg)
    self.outbox.extend(outs)
    if cert is not None:
        if view >= self.anchor_floor:
            self.held_certs.setdefault(view, cert)
        if cert.kind == CertKind.ADOPT:
            return
        if cert.block_digest in self.dag:
            self._on_bbca_complete(cert)
        else:
            self.awaiting[cert.block_digest] = cert


def _bbca_clone_sharing_received_echo(self):
    """``BbcaInstance.clone`` whose twin shares ``received_echo``."""
    twin = object.__new__(BbcaInstance)
    twin.params, twin.instance = self.params, self.instance
    twin.node, twin.predicate = self.node, self.predicate
    twin.memo = self.memo
    twin.pending = dict(self.pending)
    twin.echo_sigs = dict(self.echo_sigs)
    twin.ready_sigs = dict(self.ready_sigs)
    twin.received_echo = self.received_echo  # mutated
    twin.received_ready = set(self.received_ready)
    twin.echo, twin.ready, twin.abort = self.echo, self.ready, self.abort
    twin.completed = self.completed
    return twin


def _dag_clone_sharing_missing(self):
    """``DagStore.clone`` whose twin shares ``_missing``."""
    twin = object.__new__(DagStore)
    twin.delivered = dict(self.delivered)
    twin.committed = set(self.committed)
    twin.pending = dict(self.pending)
    twin._missing = self._missing  # mutated
    twin._waiters = dict(self._waiters)
    twin._tips = set(self._tips)
    return twin


MUTANTS = {
    # READY is sent on an echo quorum even after a probe aborted.
    "ready_despite_abort": (
        BbcaInstance, "on_echo", _on_echo_sending_ready_when(
            lambda inst, count: count == inst.params.quorum)),
    # READY is sent one echo short of the quorum.
    "ready_at_quorum_minus_one": (
        BbcaInstance, "on_echo", _on_echo_sending_ready_when(
            lambda inst, count: (not inst.abort
                                 and count == inst.params.quorum - 1))),
    # The ECHO for an INIT is sent twice.
    "echo_twice": (BbcaInstance, "on_init", _on_init_echoing_twice),
    # A signer's repeated or relayed ECHO counts again.
    "no_echo_dedupe": (
        BbcaInstance, "on_echo", _on_echo_counting_repeats),
    # Completion one READY short of the quorum.
    "completion_at_quorum_minus_one": (
        BbcaInstance, "on_ready", _on_ready_completing_at_quorum_minus_one),
    # Each commit batch in reverse order.
    "reversed_commit_batches": (DagStore, "commit", _commit_in_reverse),
    # A DATA block is filed from any sender, not only from its author.
    "data_from_any_sender": (
        ChainNode, "handle_message", _handle_message_from_any_sender),
    # Any block an INIT, ECHO or READY carries is filed, not only a backbone.
    "bbca_files_any_block": (
        ChainNode, "_handle_bbca_message",
        _handle_bbca_message_filing_any_block),
    # A BBCA instance's clone shares its ECHO signer set with the original.
    "bbca_clone_shares_received_echo": (
        BbcaInstance, "clone", _bbca_clone_sharing_received_echo),
    # A DAG's clone shares its per-pending-block missing counts.
    "dag_clone_shares_missing": (DagStore, "clone", _dag_clone_sharing_missing),
}


def apply(monkeypatch, name: str) -> None:
    owner, attribute, replacement = MUTANTS[name]
    monkeypatch.setattr(owner, attribute, replacement)
