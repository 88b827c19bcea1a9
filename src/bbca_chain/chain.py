"""View-by-view consensus node riding on the causal DAG.

Each view has one leader that proposes a backbone block through an abortable
consistent broadcast; everyone else concludes the view with a new-view block
carrying a complete certificate, an adopt certificate, or a signed noadopt.
Commits walk the finalized views contiguously, skipping views finalized as
NO-OP, and linearize each backbone block's uncommitted causal ancestry.

Nodes are pure event-driven state machines: handlers consume one event and
append their outputs to ``outbox``: the wire messages to broadcast, and
``ViewEntered``, ``Committed`` and ``Probed`` records of what the node did.
A driver arms the view timer on ``ViewEntered``.  Nodes never read a clock
or a random source.
"""

from __future__ import annotations

import struct
from itertools import starmap
from operator import attrgetter
from typing import Iterator, NamedTuple, Union

from .bbca import BbcaInstance, BbcaMsg, InstanceId, Memo, new_memo
from .blocks import (
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
    block_repr,
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

# One packed (view, kind, author) row per committed block: ``DagStore.commit``
# drops the bodies of committed blocks, and the exported log still names them.
_COMMIT_ROW = struct.Struct("=QBI")
_ROW_FIELDS = attrgetter("view", "kind", "author")
_DIGEST = attrgetter("digest")

# Enum members as module constants, like ``bbca.ECHO``.
# Kept for +4.3% sim_long events/s (perfbench seed 5).
_BACKBONE, _NEW_VIEW, _DATA = (BlockKind.BACKBONE, BlockKind.NEW_VIEW,
                               BlockKind.DATA)
_COMPLETE, _ADOPT, _NOADOPT = (EvidenceKind.COMPLETE, EvidenceKind.ADOPT,
                               EvidenceKind.NOADOPT)


class SafetyViolation(Exception):
    """A correct node reached a state the protocol promises is unreachable."""


def get_proposer(view: int, params: SystemParams) -> NodeId:
    """Round-robin leader rotation."""
    if view < 1:
        raise ValueError("views are numbered from 1")
    return view % params.n


def finalized_repr(view: int, entry, params: SystemParams) -> str:
    """A ``finalized`` entry as problems name it: a digest as its block."""
    if not isinstance(entry, BlockRef):
        return repr(entry)
    author = get_proposer(view, params) if view else 0  # 0: genesis
    return block_repr(_BACKBONE, view, author, entry)


# -- wire messages and node outputs ------------------------------------------
# Named tuples, like the BBCA records.  A node's outbox holds the wire
# messages it sends and the records below, which carry no protocol meaning.

class BlockMsg(NamedTuple):
    """Best-effort broadcast of a single block."""

    block: Block


WireMsg = Union[BbcaMsg, BlockMsg]
WIRE_TYPES = (BbcaMsg, BlockMsg)  # for isinstance


class ViewEntered(NamedTuple):
    view: int
    cause: str


class Committed(NamedTuple):
    view: int
    blocks: tuple[Block, ...]  # in log order


class Probed(NamedTuple):
    view: int
    adopted: bool
    ref: BlockRef | None


Output = Union[BbcaMsg, BlockMsg, ViewEntered, Committed, Probed]

# View-entry causes; the first four are the broadcast-driven fast paths,
# "noadopt_quorum" is the 2f+1 path.
CERT_DRIVEN_CAUSES = ("init", "complete_own", "complete_recv", "adopt_recv",
                      "adopt_probe")
NOADOPT_CAUSE = "noadopt_quorum"


# -- validation ---------------------------------------------------------------
# Pure in (block, params): the run's memo keeps one result per block, in its
# view's table, for every node that would revalidate the same bytes.

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


def make_predicate(view: int, params: SystemParams, memo: Memo):
    """Validity predicate of one view's broadcast instance."""

    def predicate(message: bytes) -> bool:
        table = memo[view]
        try:
            block = table[(decode_block, message)]
        except EncodingError:
            return False
        return (block.view == view
                and table[(validate_backbone_block, block, params)])

    return predicate


# -- the node -----------------------------------------------------------------

class ChainNode:
    def __init__(self, node_id: NodeId, params: SystemParams,
                 horizon: int | None = None, memo: Memo | None = None):
        self.id = node_id
        self.params = params
        self.horizon = horizon  # scenario device: last view allowed to start
        self.memo = new_memo() if memo is None else memo  # the run's
        self.dag = DagStore()
        # Genesis starts committed, and no committed body is kept.
        self.dag.committed.update((GENESIS_REF, GENESIS_NEW_VIEW.digest))
        self.view = 0
        # Each view's blocks are kept in author order, so that the evidence
        # scans never sort.  Only views from ``view - 1`` on are kept: no
        # rule reads an older one.
        self.new_view_blocks: dict[int, dict[NodeId, Block]] = {
            0: {0: GENESIS_NEW_VIEW}}
        # Highest view holding a complete or adopt new-view block; the
        # certified-conclusion rule scans down from here.
        self.top_certified_view = 0
        self.finalized: dict[int, BlockRef | str] = {0: GENESIS_REF}
        self.last_committed = 0
        self.committed_log: list[BlockRef] = []
        self.committed_rows = bytearray()  # a _COMMIT_ROW per log entry
        # The first certificate this node held for each view: one its
        # instance hands back (an echo quorum is an adopt certificate even
        # when an abort suppressed the READY) or a valid new-view block's.
        # The noadopt anchor is the highest held at or below the concluded
        # view; anchoring above it would break the finalize recursion.
        # Views below ``anchor_floor``, the highest held at or below
        # ``view``, are neither kept nor stored: no anchor names them again.
        self.held_certs: dict[int, Cert] = {0: GENESIS_CERT}
        self.anchor_floor = 0
        self.instances: dict[int, BbcaInstance] = {}
        # A final instance leaves ``instances`` on entering the view two past
        # it, and its ``outcome`` row stays here.
        self.outcomes: dict[int, tuple[BlockRef | None, BlockRef | None]] = {}
        # Backbone blocks not yet delivered, each with the COMPLETE
        # certificate to act on at delivery, or None to commit it then.
        self.awaiting: dict[BlockRef, Cert | None] = {}
        # The highest view this node probed, proposed in and emitted its own
        # new-view block for (0: genesis).  Each is asked only about views
        # from ``view`` on and holds none past it: at or below it is done.
        self.probed = self.proposed = self.emitted_nvb = 0
        self.my_last_ref: BlockRef | None = None
        self.outbox: list[Output] = []
        # Set when a view rule's input changes (the view, a stored new-view
        # block, a probe); the rules are rerun only then.
        self.rules_dirty = True

    def clone(self) -> "ChainNode":
        """Snapshot for state-space exploration.

        Copies every mutable container; blocks, certificates, params, the
        broadcast predicates and the memo of pure results are shared.
        """
        twin = object.__new__(ChainNode)
        twin.id = self.id
        twin.params = self.params
        twin.horizon = self.horizon
        twin.memo = self.memo
        twin.dag = self.dag.clone()
        twin.view = self.view
        twin.new_view_blocks = {view: dict(per_view) for view, per_view
                                in self.new_view_blocks.items()}
        twin.top_certified_view = self.top_certified_view
        twin.finalized = dict(self.finalized)
        twin.last_committed = self.last_committed
        twin.committed_log = list(self.committed_log)
        twin.committed_rows = bytearray(self.committed_rows)
        twin.held_certs = dict(self.held_certs)
        twin.anchor_floor = self.anchor_floor
        twin.instances = {view: inst.clone()
                          for view, inst in self.instances.items()}
        twin.outcomes = dict(self.outcomes)
        twin.awaiting = dict(self.awaiting)
        twin.probed, twin.proposed = self.probed, self.proposed
        twin.emitted_nvb = self.emitted_nvb
        twin.my_last_ref = self.my_last_ref
        twin.outbox = list(self.outbox)
        twin.rules_dirty = self.rules_dirty
        return twin

    # -- plumbing ---------------------------------------------------------

    def take_outbox(self) -> list[Output]:
        out, self.outbox = self.outbox, []
        return out

    def _terminal(self) -> bool:
        return self.horizon is not None and self.view > self.horizon

    def _instance_for(self, view: int) -> BbcaInstance | None:
        """The view's instance, created on first use; ``None`` once dropped."""
        inst = self.instances.get(view)
        if inst is None:
            if view in self.outcomes:
                return None
            bid = InstanceId(get_proposer(view, self.params), view)
            inst = BbcaInstance(self.params, bid, self.id,
                                make_predicate(view, self.params, self.memo),
                                self.memo)
            self.instances[view] = inst
        return inst

    @property
    def committed_set(self) -> set[BlockRef]:
        """Every committed digest, genesis included: the DAG's set."""
        return self.dag.committed

    def _own_refs(self) -> set[BlockRef]:
        refs = set(self.dag.tips())
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
            block = msg.block
            # A DATA block carries no signature: only its author may send it.
            if (block.author == frm or block.kind != _DATA) \
                    and not self.dag.holds(block.digest):
                self._ingest_block(block)
        elif isinstance(msg, BbcaMsg):
            self._handle_bbca_message(frm, msg)
        if self.rules_dirty:
            self._evaluate_view_rules()

    def handle_timer(self, view: int) -> None:
        if view != self.view or self._terminal() or view <= self.probed:
            return
        self._conclude_view_by_probe(view)
        self._evaluate_view_rules()

    def submit_payload(self, payload: bytes) -> Block:
        block = make_data(self.id, self.view, self._own_refs(), payload)
        self.my_last_ref = block.digest
        self.outbox.append(BlockMsg(block))
        return block

    # -- broadcast plumbing -------------------------------------------------

    def _handle_bbca_message(self, frm: NodeId, msg: BbcaMsg) -> None:
        _, bid, message, _ = msg
        sender, view = bid
        inst = self.instances.get(view)
        if inst is None:
            if view < 1 or sender != get_proposer(view, self.params):
                return
        elif inst.instance != bid:
            return
        # Proposal bytes ride inside INIT/ECHO/READY; file them into the DAG
        # on first sight so causal delivery can gate completion.  The memo
        # decodes each message once; bytes that do not decode file nothing.
        # Only a proposal's kind, a backbone, is filed: any node may send an
        # INIT, and nothing there vouches for a DATA block's author.
        try:
            block = self.memo[view][(decode_block, message)]
        except EncodingError:
            block = None
        if block is not None and block.kind == _BACKBONE \
                and not self.dag.holds(block.digest):
            self._ingest_block(block)
        if inst is None:
            inst = self._instance_for(view)
            if inst is None:
                return  # a final instance answers nothing new
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

    def _ingest_block(self, block: Block) -> None:
        # Callers pass only blocks the DAG does not hold: a held block was
        # validated and recorded on first sight, an invalid one never held.
        kind = block.kind
        if kind == _NEW_VIEW:
            if not self.memo[block.view][(validate_new_view_block, block,
                                          self.params)]:
                return
            # Certificates act at byte receipt: view synchronization must not
            # wait for the block's ancestry.  Only commits are delivery-gated.
            self._record_new_view_block(block)
        elif kind == _BACKBONE:
            if block.justification is None:
                return
            for nvb in block.justification.new_view_blocks:
                if not self.dag.holds(nvb.digest):
                    self._ingest_block(nvb)
        for delivered in self.dag.insert(block):
            self._dispatch_delivered(delivered)

    def _dispatch_delivered(self, block: Block) -> None:
        if block.kind == _BACKBONE and block.digest in self.awaiting:
            cert = self.awaiting.pop(block.digest)
            if cert is not None:
                self._on_bbca_complete(cert)
            else:
                self.try_commit(block.view, block.digest)

    # -- new-view bookkeeping ------------------------------------------------

    def _record_new_view_block(self, nvb: Block) -> None:
        view = nvb.view
        evidence = nvb.new_view.evidence
        # A block for a view below ``self.view - 1`` is late: no view rule
        # reads it, but its certificate and its commit still count.
        if view >= self.view - 1:
            per_view = self.new_view_blocks.get(view, {})
            if nvb.author in per_view:
                return
            self.new_view_blocks[view] = dict(
                sorted([*per_view.items(), (nvb.author, nvb)]))
            self.rules_dirty = True
            if evidence != _NOADOPT:
                self.top_certified_view = max(self.top_certified_view, view)
        cert = nvb.new_view.cert
        if cert.view >= self.anchor_floor:
            self.held_certs.setdefault(cert.view, cert)
        if evidence == _COMPLETE and view > 0:
            ref = cert.block_digest
            if ref in self.dag:
                self.try_commit(cert.view, ref)
            else:
                self.awaiting.setdefault(ref, None)

    def _anchor_for(self, view: int) -> Cert:
        # Walk down to the highest held view: view 0 is always held, and a
        # node holds a certificate for most recent views.
        held = self.held_certs
        while view not in held:
            view -= 1
        return held[view]

    def _make_own_new_view_block(self, view: int, data: NewViewData) -> None:
        if view <= self.emitted_nvb:
            return
        self.emitted_nvb = view
        nvb = make_new_view(self.id, view, data, extra_refs=self._own_refs())
        self.my_last_ref = nvb.digest
        # Ingest records it and files it into the DAG so later blocks can
        # reference it; the next leader embeds instead of broadcasting.
        self._ingest_block(nvb)
        if get_proposer(view + 1, self.params) != self.id:
            self.outbox.append(BlockMsg(nvb))

    # -- completion, probing, view entry -------------------------------------

    def _on_bbca_complete(self, cert: Cert) -> None:
        self.try_commit(cert.view, cert.block_digest)
        if cert.view < self.view:
            return  # stale: a timeout already moved this node on
        self._make_own_new_view_block(
            cert.view, NewViewData(EvidenceKind.COMPLETE, cert))
        self._enter_view(cert.view + 1, "complete_own")

    def _conclude_view_by_probe(self, view: int) -> None:
        self.probed = view
        self.rules_dirty = True
        cert = self._instance_for(view).probe()
        if cert is not None:
            # Held since its echo quorum formed, at or above the floor.
            self.outbox.append(Probed(view, True, cert.block_digest))
            self._make_own_new_view_block(
                view, NewViewData(EvidenceKind.ADOPT, cert))
            self._enter_view(view + 1, "adopt_probe")
        else:
            self.outbox.append(Probed(view, False, None))
            data = NewViewData(EvidenceKind.NOADOPT, self._anchor_for(view),
                               sign(self.id, noadopt_statement(view)))
            self._make_own_new_view_block(view, data)
            # Entry waits for a quorum of new-view blocks for this view.

    def _enter_view(self, view: int, cause: str) -> None:
        if view <= self.view:
            return
        # On entering the view two past a view, drop its new-view blocks
        # and, if final, its instance for an outcome row; views skipped by
        # a catch-up are passed too.
        instances, nvbs = self.instances, self.new_view_blocks
        for old in range(max(self.view - 1, 0), view - 1):
            nvbs.pop(old, None)
            inst = instances.get(old)
            if inst is not None and inst.final():
                del instances[old]
                completed, adoptable = inst.outcome()
                # Hold the finalized digest object, not an equal copy.
                final = self.finalized.get(old)
                if final is not None and final is not NO_OP:
                    if completed == final:
                        completed = final
                    if adoptable == final:
                        adoptable = final
                self.outcomes[old] = (completed, adoptable)
        # Raise the anchor floor; every held view below it is one passed
        # since the last raise.
        held, floor = self.held_certs, view
        while floor not in held:
            floor -= 1
        for old in range(self.anchor_floor, floor):
            held.pop(old, None)
        self.anchor_floor = floor
        self.view = view
        self.rules_dirty = True
        if self._terminal():
            return
        self.outbox.append(ViewEntered(view, cause))

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
                if w > self.emitted_nvb:
                    self._make_own_new_view_block(w, nvb.new_view)
                else:
                    # Already concluded w ourselves (first block is final);
                    # relay the evidence so everyone enters within a delay.
                    self.outbox.append(BlockMsg(nvb))
                cause = ("complete_recv"
                         if nvb.new_view.evidence == _COMPLETE
                         else "adopt_recv")
                self._enter_view(w + 1, cause)
                continue
            noadopts = len(self._with_evidence(view, _NOADOPT))
            if view > self.probed and noadopts >= self.params.f + 1:
                self._conclude_view_by_probe(view)
                continue
            if view <= self.probed and noadopts >= self.params.quorum:
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
        if (view <= self.proposed
                or get_proposer(view, self.params) != self.id):
            return
        justification = self._build_justification(view - 1)
        if justification is None:
            return
        self.proposed = view
        block = make_backbone(self.id, view, justification,
                              extra_refs=self._own_refs())
        self.my_last_ref = block.digest
        self.outbox.extend(self._instance_for(view).broadcast(block.encoded))

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

    def try_commit(self, view: int, ref: BlockRef) -> None:
        """Finalize the view, then advance the contiguous committed prefix."""
        self._finalize(view, ref)
        while self.last_committed + 1 in self.finalized:
            self.last_committed += 1
            entry = self.finalized[self.last_committed]
            if entry is not NO_OP:
                blocks = tuple(self.dag.commit(entry))
                self.committed_log += map(_DIGEST, blocks)
                self.committed_rows += b"".join(
                    starmap(_COMMIT_ROW.pack, map(_ROW_FIELDS, blocks)))
                self.outbox.append(Committed(self.last_committed, blocks))

    def _finalize(self, view: int, ref: BlockRef) -> None:
        existing = self.finalized.get(view)
        if existing is not None:
            if existing is NO_OP or existing != ref:
                raise SafetyViolation(
                    f"conflicting finalization for view {view}: "
                    f"{finalized_repr(view, existing, self.params)} vs "
                    f"{finalized_repr(view, ref, self.params)}")
            return
        # An unfinalized view lies above the committed prefix: its body is
        # delivered.  Keep the block's own digest, the object the committed
        # log holds, not the equal copy ``ref`` may be.  Of its
        # justification's certificates (one, or a noadopt quorum's anchors)
        # the highest names the previous finalized block.
        block = self.dag.get(ref)
        self.finalized[view] = block.digest
        prev_view, prev_ref = max(
            (nvb.new_view.cert.view, nvb.new_view.cert.block_digest)
            for nvb in block.justification.new_view_blocks)
        for skipped in range(prev_view + 1, view):
            if self.finalized.get(skipped, NO_OP) is not NO_OP:
                raise SafetyViolation(
                    f"view {skipped} finalized both as a block and as a skip")
            self.finalized[skipped] = NO_OP
        self._finalize(prev_view, prev_ref)

    # -- exported state ---------------------------------------------------

    def committed_entries(self) -> Iterator[tuple[BlockRef, tuple]]:
        """(digest, (view, kind, author)) per committed block, in log order;
        the kind is a ``BlockKind`` value."""
        return zip(self.committed_log,
                   _COMMIT_ROW.iter_unpack(self.committed_rows))

    def committed_log_export(self) -> list[tuple[int, int, str, str, int]]:
        """(position, view, digest hex, kind, author) per committed block."""
        return [(position, view, ref.hex(), BlockKind(kind).name, author)
                for position, (ref, (view, kind, author))
                in enumerate(self.committed_entries())]
