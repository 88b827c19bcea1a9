"""View-by-view consensus node riding on the causal DAG.

Each view has one leader that proposes a backbone block through an abortable
consistent broadcast; everyone else concludes the view with a new-view block
carrying a complete certificate, an adopt certificate, or a signed noadopt.
Commits walk the finalized views contiguously, skipping views finalized as
NO-OP, and linearize each backbone block's uncommitted causal ancestry.

Nodes are pure event-driven state machines: handlers consume one event and
push outbound actions (broadcasts, timer requests, trace notes) onto
``outbox``.  They never read a clock or a random source.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Union

from .bbca import ECHO, BbcaInstance, BbcaMsg, CompleteEvent, InstanceId, ProbeResult
from .blocks import (
    GENESIS_BLOCK,
    GENESIS_CERT,
    GENESIS_NEW_VIEW,
    GENESIS_REF,
    Block,
    BlockKind,
    BlockRef,
    Cert,
    CertKind,
    EvidenceKind,
    Justification,
    NewViewData,
    decode_block,
    make_backbone,
    make_data,
    make_new_view,
    verify_cert,
)
from .dag import DagStore
from .encoding import EncodingError, noadopt_statement
from .identity import NodeId, SystemParams, sign, verify

NO_OP = "NO-OP"

# Enum members as module constants, like ``bbca.ECHO``.
# Kept for +4.3% sim_long events/s (perfbench seed 5).
_BACKBONE, _NEW_VIEW = BlockKind.BACKBONE, BlockKind.NEW_VIEW
_COMPLETE, _ADOPT, _NOADOPT = (EvidenceKind.COMPLETE, EvidenceKind.ADOPT,
                               EvidenceKind.NOADOPT)


class SafetyViolation(Exception):
    """A correct node reached a state the protocol promises is unreachable."""


def get_proposer(view: int, params: SystemParams) -> NodeId:
    """Round-robin leader rotation."""
    if view < 1:
        raise ValueError("views are numbered from 1")
    return view % params.n


# -- wire messages and node actions ------------------------------------------
# Named tuples, like the BBCA records: a node emits one ``Broadcast`` per
# message it sends.

class BlockMsg(NamedTuple):
    """Best-effort broadcast of a single block."""

    block: Block


WireMsg = Union[BbcaMsg, BlockMsg]


class Broadcast(NamedTuple):
    msg: WireMsg


class SetTimer(NamedTuple):
    view: int


class Note(NamedTuple):
    """Trace breadcrumb for the simulator; carries no protocol meaning."""

    kind: str  # "view" | "commit" | "probe"
    data: tuple


Action = Union[Broadcast, SetTimer, Note]

# View-entry causes; the first four are the broadcast-driven fast paths,
# "noadopt_quorum" is the 2f+1 path.
CERT_DRIVEN_CAUSES = ("init", "complete_own", "complete_recv", "adopt_recv",
                      "adopt_probe")
NOADOPT_CAUSE = "noadopt_quorum"


# -- validation ---------------------------------------------------------------
# Validation is pure in (block, params) and blocks are immutable, so results
# are memoized globally; every node revalidates the same bytes otherwise.

@lru_cache(maxsize=8192)
def validate_new_view_block(block: Block, params: SystemParams) -> bool:
    if block.kind != BlockKind.NEW_VIEW or block.new_view is None:
        return False
    if not 0 <= block.author < params.n:
        return False
    if block.view == 0:
        return block.digest == GENESIS_NEW_VIEW.digest
    data = block.new_view
    cert = data.cert
    if cert.block_digest not in block.refs:
        return False
    if data.evidence in (EvidenceKind.COMPLETE, EvidenceKind.ADOPT):
        want = CertKind.COMPLETE if data.evidence == EvidenceKind.COMPLETE \
            else CertKind.ADOPT
        return (cert.view == block.view
                and _valid_cert_for_view(cert, params, want))
    # noadopt: author's signature over the view, plus the anchor certificate
    # for the highest block the author holds a certificate for.
    if data.noadopt_sig is None or data.noadopt_sig.signer != block.author:
        return False
    if not verify(data.noadopt_sig, noadopt_statement(block.view),
                  block.author):
        return False
    return cert.view <= block.view and _valid_cert_for_view(cert, params, None)


def _valid_cert_for_view(cert: Cert, params: SystemParams,
                         kind: CertKind | None) -> bool:
    return ((cert.view == 0 or cert.sender == get_proposer(cert.view, params))
            and verify_cert(cert, params, kind))


@lru_cache(maxsize=8192)
def validate_backbone_block(block: Block, params: SystemParams) -> bool:
    """Structural core of the broadcast validity predicate."""
    if block.kind != BlockKind.BACKBONE or block.justification is None:
        return False
    if block.view < 1 or block.author != get_proposer(block.view, params):
        return False
    just = block.justification
    nvbs = just.new_view_blocks
    if any(nvb.digest not in block.refs for nvb in nvbs):
        return False
    if not all(validate_new_view_block(nvb, params) for nvb in nvbs):
        return False
    if just.kind in (EvidenceKind.COMPLETE, EvidenceKind.ADOPT):
        return (len(nvbs) == 1
                and nvbs[0].new_view.evidence == just.kind
                and nvbs[0].new_view.cert.view == block.view - 1)
    if just.kind == EvidenceKind.NOADOPT:
        if len(nvbs) != params.quorum:
            return False
        if len({nvb.author for nvb in nvbs}) != params.quorum:
            return False
        return all(nvb.new_view.evidence == EvidenceKind.NOADOPT
                   and nvb.view == block.view - 1 for nvb in nvbs)
    return False  # GENESIS justification is only for the genesis constant


def make_predicate(view: int, params: SystemParams):
    """Validity predicate bound to one broadcast instance."""

    def predicate(message: bytes) -> bool:
        try:
            block = decode_block(message)
        except EncodingError:
            return False
        return block.view == view and validate_backbone_block(block, params)

    return predicate


# -- the node -----------------------------------------------------------------

class ChainNode:
    def __init__(self, node_id: NodeId, params: SystemParams,
                 horizon: int | None = None):
        self.id = node_id
        self.params = params
        self.horizon = horizon  # scenario device: last view allowed to start
        self.dag = DagStore()
        self.dag.insert(GENESIS_BLOCK)
        self.dag.insert(GENESIS_NEW_VIEW)
        self.view = 0
        # Each view's blocks are kept in author order, so that the evidence
        # scans never sort.
        self.new_view_blocks: dict[int, dict[NodeId, Block]] = {
            0: {0: GENESIS_NEW_VIEW}}
        # Highest view holding a complete or adopt new-view block; the
        # certified-conclusion rule scans down from here.
        self.top_certified_view = 0
        self.finalized: dict[int, Block | str] = {0: GENESIS_BLOCK}
        self.last_committed = 0
        self.committed_log: list[BlockRef] = []
        self.committed_set: set[BlockRef] = {GENESIS_REF,
                                             GENESIS_NEW_VIEW.digest}
        # Every certificate this node ever held, by view.  Becoming ready
        # counts (the echo quorum is an adopt certificate), and so do
        # certificates seen in valid new-view blocks.  The noadopt anchor is
        # the highest held certificate at or below the concluded view;
        # anchoring above it would break the finalize recursion.
        self.held_certs: dict[int, Cert] = {0: GENESIS_CERT}
        self.instances: dict[int, BbcaInstance] = {}
        self.pending_complete: dict[BlockRef, CompleteEvent] = {}
        self.pending_commit: set[BlockRef] = set()
        self.probed: set[int] = set()
        self.proposed: set[int] = set()
        self.emitted_nvb: set[int] = set()
        self.my_last_ref: BlockRef | None = None
        self.outbox: list[Action] = []
        # Set when a view rule's input changes (the view, a stored new-view
        # block, a probe); the rules are rerun only then.
        self.rules_dirty = True

    def clone(self) -> "ChainNode":
        """Snapshot for state-space exploration.

        Copies every mutable container; blocks, certificates, events, params
        and the broadcast predicates are immutable and shared.
        """
        twin = object.__new__(ChainNode)
        twin.id = self.id
        twin.params = self.params
        twin.horizon = self.horizon
        twin.dag = self.dag.clone()
        twin.view = self.view
        twin.new_view_blocks = {view: dict(per_view) for view, per_view
                                in self.new_view_blocks.items()}
        twin.top_certified_view = self.top_certified_view
        twin.finalized = dict(self.finalized)
        twin.last_committed = self.last_committed
        twin.committed_log = list(self.committed_log)
        twin.committed_set = set(self.committed_set)
        twin.held_certs = dict(self.held_certs)
        twin.instances = {view: inst.clone()
                          for view, inst in self.instances.items()}
        twin.pending_complete = dict(self.pending_complete)
        twin.pending_commit = set(self.pending_commit)
        twin.probed = set(self.probed)
        twin.proposed = set(self.proposed)
        twin.emitted_nvb = set(self.emitted_nvb)
        twin.my_last_ref = self.my_last_ref
        twin.outbox = list(self.outbox)
        twin.rules_dirty = self.rules_dirty
        return twin

    # -- plumbing ---------------------------------------------------------

    def take_outbox(self) -> list[Action]:
        out, self.outbox = self.outbox, []
        return out

    def _terminal(self) -> bool:
        return self.horizon is not None and self.view > self.horizon

    def _instance_for(self, view: int) -> BbcaInstance:
        inst = self.instances.get(view)
        if inst is None:
            bid = InstanceId(get_proposer(view, self.params), view)
            inst = BbcaInstance(self.params, bid, self.id,
                                make_predicate(view, self.params))
            self.instances[view] = inst
        return inst

    def _frontier(self) -> list[BlockRef]:
        return [t for t in self.dag.tips() if t not in self.committed_set]

    def _own_refs(self) -> set[BlockRef]:
        refs = set(self._frontier())
        if self.my_last_ref is not None:
            refs.add(self.my_last_ref)
        if not refs:
            refs.add(GENESIS_REF)
        return refs

    # -- entry points (driven by the runtime) -------------------------------

    def start(self) -> None:
        self._enter_view(1, "init")
        self._evaluate_view_rules()

    def handle_message(self, frm: NodeId, msg: WireMsg) -> None:
        if isinstance(msg, BlockMsg):
            self._ingest_block(msg.block)
        elif isinstance(msg, BbcaMsg):
            self._handle_bbca_message(frm, msg)
        if self.rules_dirty:
            self._evaluate_view_rules()

    def handle_timer(self, view: int) -> None:
        if view != self.view or self._terminal() or view in self.probed:
            return
        self._conclude_view_by_probe(view)
        self._evaluate_view_rules()

    def submit_payload(self, payload: bytes) -> Block:
        block = make_data(self.id, self.view, self._own_refs(), payload)
        self.my_last_ref = block.digest
        self.outbox.append(Broadcast(BlockMsg(block)))
        return block

    def audit_probe(self, view: int) -> ProbeResult:
        """End-of-run probe; records nothing and triggers no protocol step."""
        return self._instance_for(view).probe()

    # -- broadcast plumbing -------------------------------------------------

    def _handle_bbca_message(self, frm: NodeId, msg: BbcaMsg) -> None:
        kind, (sender, view), message, sig = msg
        if view < 1 or sender != get_proposer(view, self.params):
            return
        # Proposal bytes ride inside INIT/ECHO/READY; file them into the DAG
        # on first sight so causal delivery can gate completion.
        try:
            block = decode_block(message)
        except EncodingError:
            block = None
        if block is not None:
            self._ingest_block(block)
        inst = self._instance_for(view)
        outs, event = inst.handle_message(frm, msg)
        for out in outs:
            self.outbox.append(Broadcast(out))
        if sig is not None and kind == ECHO and view not in self.held_certs:
            # Holding an echo quorum is holding an adopt certificate, even
            # when abort suppressed the READY; the noadopt anchor must see it.
            # Only a view's first certificate is kept: stop asking after it.
            found = inst.available_adopt()
            if found is not None:
                self._update_highest_certified(found[1])
        if event is not None:
            self._update_highest_certified(event.cert)
            ref = event.cert.block_digest
            if ref in self.dag:
                self._on_bbca_complete(event)
            else:
                self.pending_complete[ref] = event

    def _ingest_block(self, block: Block) -> None:
        # A held block was validated, recorded and had its embedded blocks
        # ingested on first sight; invalid blocks are never held.
        if self.dag.holds(block.digest):
            return
        kind = block.kind
        if kind == _NEW_VIEW:
            if not validate_new_view_block(block, self.params):
                return
            # Certificates act at byte receipt: view synchronization must not
            # wait for the block's ancestry.  Only commits are delivery-gated.
            self._record_new_view_block(block)
        elif kind == _BACKBONE:
            if block.justification is None:
                return
            for nvb in block.justification.new_view_blocks:
                self._ingest_block(nvb)
        for delivered in self.dag.insert(block):
            self._dispatch_delivered(delivered)

    def _dispatch_delivered(self, block: Block) -> None:
        if block.kind == _BACKBONE:
            event = self.pending_complete.pop(block.digest, None)
            if event is not None:
                self._on_bbca_complete(event)
            elif block.digest in self.pending_commit:
                self.pending_commit.discard(block.digest)
                self.try_commit(block)

    # -- new-view bookkeeping ------------------------------------------------

    def _record_new_view_block(self, nvb: Block) -> None:
        per_view = self.new_view_blocks.get(nvb.view, {})
        if nvb.author in per_view:
            return
        self.new_view_blocks[nvb.view] = dict(
            sorted([*per_view.items(), (nvb.author, nvb)]))
        self.rules_dirty = True
        evidence = nvb.new_view.evidence
        if evidence != _NOADOPT:
            self.top_certified_view = max(self.top_certified_view, nvb.view)
        self._update_highest_certified(nvb.new_view.cert)
        if evidence == _COMPLETE and nvb.view > 0:
            ref = nvb.certified_ref
            if ref in self.dag:
                self.try_commit(self.dag.get(ref))
            else:
                self.pending_commit.add(ref)

    def _update_highest_certified(self, cert: Cert) -> None:
        self.held_certs.setdefault(cert.view, cert)

    def _anchor_for(self, view: int) -> Cert:
        return self.held_certs[max(v for v in self.held_certs if v <= view)]

    def _make_own_new_view_block(self, view: int, data: NewViewData) -> None:
        if view in self.emitted_nvb:
            return
        self.emitted_nvb.add(view)
        nvb = make_new_view(self.id, view, data, extra_refs=self._own_refs())
        self.my_last_ref = nvb.digest
        # Ingest records it and files it into the DAG so later blocks can
        # reference it; the next leader embeds instead of broadcasting.
        self._ingest_block(nvb)
        if get_proposer(view + 1, self.params) != self.id:
            self.outbox.append(Broadcast(BlockMsg(nvb)))

    # -- completion, probing, view entry -------------------------------------

    def _on_bbca_complete(self, event: CompleteEvent) -> None:
        block = self.dag.get(event.cert.block_digest)
        self.try_commit(block)
        if block.view < self.view:
            return  # stale: a timeout already moved this node on
        self._make_own_new_view_block(
            block.view, NewViewData(EvidenceKind.COMPLETE, event.cert))
        self._enter_view(block.view + 1, "complete_own")

    def _conclude_view_by_probe(self, view: int) -> None:
        self.probed.add(view)
        self.rules_dirty = True
        result = self._instance_for(view).probe()
        if result.adopted:
            self._update_highest_certified(result.cert)
            self.outbox.append(
                Note("probe", (view, True, result.cert.block_digest)))
            self._make_own_new_view_block(
                view, NewViewData(EvidenceKind.ADOPT, result.cert))
            self._enter_view(view + 1, "adopt_probe")
        else:
            self.outbox.append(Note("probe", (view, False, None)))
            data = NewViewData(EvidenceKind.NOADOPT, self._anchor_for(view),
                               sign(self.id, noadopt_statement(view)))
            self._make_own_new_view_block(view, data)
            # Entry waits for a quorum of new-view blocks for this view.

    def _enter_view(self, view: int, cause: str) -> None:
        if view <= self.view:
            return
        self.view = view
        self.rules_dirty = True
        if self._terminal():
            return
        self.outbox.append(Note("view", (view, cause)))
        self.outbox.append(SetTimer(view))

    def _evaluate_view_rules(self) -> None:
        """Re-check every event-driven rule until none fires.

        Order matters: certificate-driven catch-up first, then the early
        probe at f+1 noadopts, then quorum entry.  A node never takes the
        noadopt entry without having probed its own instance first.

        The rules read only the view, the stored new-view blocks, ``probed``
        and ``proposed``, and the loop ends at a fixpoint, so a pass can be
        skipped until one of the first three changes (``proposed`` changes
        only here, on the pass's last step).
        """
        while not self._terminal():
            view = self.view
            found = self._best_certified_conclusion(view)
            if found is not None:
                w, nvb = found
                if w not in self.emitted_nvb:
                    self._make_own_new_view_block(w, nvb.new_view)
                else:
                    # Already concluded w ourselves (first block is final);
                    # relay the evidence so everyone enters within a delay.
                    self.outbox.append(Broadcast(BlockMsg(nvb)))
                cause = ("complete_recv"
                         if nvb.new_view.evidence == _COMPLETE
                         else "adopt_recv")
                self._enter_view(w + 1, cause)
                continue
            noadopts = len(self._with_evidence(view, _NOADOPT))
            if view not in self.probed and noadopts >= self.params.f + 1:
                self._conclude_view_by_probe(view)
                continue
            if view in self.probed and noadopts >= self.params.quorum:
                self._enter_view(view + 1, NOADOPT_CAUSE)
                continue
            self._maybe_propose(view)
            break
        self.rules_dirty = False

    def _with_evidence(self, view: int, evidence: EvidenceKind) -> list[Block]:
        """The view's stored new-view blocks carrying ``evidence``, in author
        order."""
        return [nvb for nvb in self.new_view_blocks.get(view, {}).values()
                if nvb.new_view.evidence == evidence]

    def _best_certified_conclusion(self, view: int):
        """Highest view w >= current with a complete/adopt new-view block;
        complete first, then the lowest author."""
        for w in range(self.top_certified_view, view - 1, -1):
            found = (self._with_evidence(w, _COMPLETE)
                     or self._with_evidence(w, _ADOPT))
            if found:
                return w, found[0]
        return None

    # -- leader proposal -----------------------------------------------------

    def _maybe_propose(self, view: int) -> None:
        if (view in self.proposed
                or get_proposer(view, self.params) != self.id):
            return
        justification = self._build_justification(view - 1)
        if justification is None:
            return
        self.proposed.add(view)
        block = make_backbone(self.id, view, justification,
                              extra_refs=self._own_refs())
        self.my_last_ref = block.digest
        for out in self._instance_for(view).broadcast(block.encoded):
            self.outbox.append(Broadcast(out))

    def _build_justification(self, prev: int) -> Justification | None:
        """Pick evidence for the previous view: complete > adopt > noadopt;
        the node's own block first, then the lowest author."""
        own = self.new_view_blocks.get(prev, {}).get(self.id)
        for kind in (_COMPLETE, _ADOPT):
            found = self._with_evidence(prev, kind)
            if found:
                return Justification(kind, (own if own in found else found[0],))
        noadopts = self._with_evidence(prev, _NOADOPT)
        if len(noadopts) >= self.params.quorum:
            return Justification(_NOADOPT, tuple(noadopts[:self.params.quorum]))
        return None

    # -- finalization and commit ----------------------------------------------

    def try_commit(self, block: Block) -> list[int]:
        """Finalize, then advance the contiguous committed prefix."""
        self._finalize(block)
        newly = []
        while self.last_committed + 1 in self.finalized:
            self.last_committed += 1
            entry = self.finalized[self.last_committed]
            if entry is not NO_OP:
                added = self.dag.order_under(entry.digest, self.committed_set)
                self.committed_log.extend(added)
                self.committed_set.update(added)
                self.outbox.append(
                    Note("commit", (self.last_committed, tuple(added))))
            newly.append(self.last_committed)
        return newly

    def _finalize(self, block: Block) -> None:
        existing = self.finalized.get(block.view)
        if existing is not None:
            if existing is NO_OP or existing.digest != block.digest:
                raise SafetyViolation(
                    f"conflicting finalization for view {block.view}: "
                    f"{existing!r} vs {block!r}")
            return
        self.finalized[block.view] = block
        if block.view == 0:
            return
        # A complete or adopt justification holds one block; of a noadopt
        # quorum, the highest anchor is the previous finalized block.
        _, prev_ref = max((nvb.new_view.cert.view, nvb.certified_ref)
                          for nvb in block.justification.new_view_blocks)
        prev = self.dag.get(prev_ref)
        for skipped in range(prev.view + 1, block.view):
            if self.finalized.get(skipped, NO_OP) is not NO_OP:
                raise SafetyViolation(
                    f"view {skipped} finalized both as a block and as a skip")
            self.finalized[skipped] = NO_OP
        self._finalize(prev)

    # -- exported state ---------------------------------------------------

    def committed_log_export(self) -> list[tuple[int, int, str, str, int]]:
        """(position, view, digest hex, kind, author) per committed block."""
        out = []
        for position, ref in enumerate(self.committed_log):
            block = self.dag.get(ref)
            out.append((position, block.view, ref.hex(), block.kind.name,
                        block.author))
        return out
