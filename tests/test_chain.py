import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bbca_chain import chain
from bbca_chain.bbca import (
    BbcaInstance, BbcaMsg, InstanceId, MsgKind, new_memo)
from bbca_chain.blocks import (
    BlockKind,
    CertKind,
    EvidenceKind,
    GENESIS_CERT,
    GENESIS_NEW_VIEW,
    GENESIS_REF,
    Justification,
    NewViewData,
    decode_block,
    make_backbone,
    make_data,
    make_new_view,
)
from bbca_chain.chain import (
    NO_OP,
    WIRE_TYPES,
    BlockMsg,
    ChainNode,
    Committed,
    SafetyViolation,
    ViewEntered,
    get_proposer,
    make_predicate,
    validate_backbone_block,
    validate_new_view_block,
)
from bbca_chain.dag import DagStore, UnknownBlockError
from bbca_chain.encoding import (
    echo_statement,
    noadopt_statement,
    ready_statement,
)
from bbca_chain.identity import params_for, sign
from bbca_chain.simnet import Scenario, run
from conftest import (
    make_adopt_nvb,
    make_cert,
    make_complete_chain,
    make_complete_nvb,
    make_noadopt_nvb,
)


def broadcasts(node):
    return [out for out in node.take_outbox() if isinstance(out, WIRE_TYPES)]


# -- leader rotation -----------------------------------------------------------

def test_round_robin_rotation(params4):
    assert get_proposer(1, params4) == 1
    assert get_proposer(4, params4) == 0
    assert get_proposer(5, params4) == 1


def test_rotation_rejects_view_zero(params4):
    with pytest.raises(ValueError):
        get_proposer(0, params4)


# -- validation -----------------------------------------------------------------

def test_validate_genesis_new_view(params4):
    assert validate_new_view_block(GENESIS_NEW_VIEW, params4)


def test_validate_complete_new_view(params4):
    blocks, _ = make_complete_chain(params4, 1)
    nvb = make_complete_nvb(params4, 2, 1, blocks[1])
    assert validate_new_view_block(nvb, params4)


def test_validate_rejects_view_mismatch(params4):
    # A real view-1 certificate wrapped in a new-view block labeled view 2.
    from bbca_chain.blocks import NewViewData, make_new_view
    blocks, certs = make_complete_chain(params4, 1)
    mismatched = make_new_view(
        2, 2, NewViewData(EvidenceKind.COMPLETE, certs[1]))
    assert not validate_new_view_block(mismatched, params4)


def test_validate_noadopt_new_view(params4):
    nvb = make_noadopt_nvb(params4, 2, 1, GENESIS_CERT)
    assert validate_new_view_block(nvb, params4)


def test_validate_noadopt_rejects_foreign_signature(params4):
    nvb = make_noadopt_nvb(params4, 2, 1, GENESIS_CERT)
    forged = make_noadopt_nvb(params4, 2, 1, GENESIS_CERT)
    hacked = forged.new_view.noadopt_sig
    wrong_author = dataclasses.replace(
        nvb, author=3)  # signature no longer matches the author
    assert not validate_new_view_block(wrong_author, params4)


def test_predicate_accepts_wellformed_proposal(params4):
    blocks, _ = make_complete_chain(params4, 1)
    predicate = make_predicate(1, params4, new_memo())
    assert predicate(blocks[1].encoded)
    assert not predicate(b"garbage")


def test_predicate_rejects_wrong_proposer(params4):
    wrong = make_backbone(2, 1, Justification(EvidenceKind.COMPLETE,
                                              (GENESIS_NEW_VIEW,)))
    assert not validate_backbone_block(wrong, params4)


def test_predicate_rejects_short_noadopt_quorum(params4):
    nvbs = tuple(make_noadopt_nvb(params4, author, 1, GENESIS_CERT)
                 for author in (0, 2))  # only 2f of them
    block = make_backbone(2, 2, Justification(EvidenceKind.NOADOPT, nvbs))
    assert not validate_backbone_block(block, params4)


def test_predicate_rejects_duplicate_noadopt_authors(params4):
    one = make_noadopt_nvb(params4, 2, 1, GENESIS_CERT)
    other = make_noadopt_nvb(params4, 2, 1, GENESIS_CERT, extra_refs=(
        GENESIS_NEW_VIEW.digest,))
    block = make_backbone(
        2, 2, Justification(EvidenceKind.NOADOPT,
                            (one, other,
                             make_noadopt_nvb(params4, 0, 1, GENESIS_CERT))))
    assert not validate_backbone_block(block, params4)


def new_view_rejects(params):
    """Per reject branch of ``validate_new_view_block``: a valid block and
    one that only that branch rejects."""
    blocks, _ = make_complete_chain(params, 1)
    nvb = make_complete_nvb(params, 2, 1, blocks[1])
    noadopt = make_noadopt_nvb(params, 2, 1, GENESIS_CERT)
    other_view = NewViewData(EvidenceKind.NOADOPT, GENESIS_CERT,
                             sign(2, noadopt_statement(2)))
    return {
        "wrong kind": (nvb, blocks[1]),
        "author outside [0, n)": (
            nvb, make_complete_nvb(params, params.n, 1, blocks[1])),
        "certificate digest not in refs": (
            nvb, dataclasses.replace(nvb, refs=(GENESIS_REF,))),
        "noadopt signature over another view": (
            noadopt, dataclasses.replace(noadopt, new_view=other_view)),
    }


@pytest.mark.parametrize("case", list(new_view_rejects(params_for(4))))
def test_validate_new_view_block_rejects(params4, case):
    valid, broken = new_view_rejects(params4)[case]
    assert validate_new_view_block(valid, params4) is True
    assert validate_new_view_block(broken, params4) is False


def backbone_rejects(params):
    """Per reject branch of ``validate_backbone_block``: a valid block and
    one that only that branch rejects."""
    blocks, _ = make_complete_chain(params, 2)
    block = blocks[2]
    # A view-1 new-view block by view 1's proposer passes the author check.
    nvb = make_complete_nvb(params, get_proposer(1, params), 1, blocks[1])
    invalid_nvb = make_complete_nvb(params, params.n, 1, blocks[1])
    genesis = Justification(EvidenceKind.GENESIS, (GENESIS_NEW_VIEW,))
    return {
        "wrong kind": (block, nvb),
        "embedded block not in refs": (
            block, dataclasses.replace(block, refs=())),
        "embedded block invalid": (block, make_backbone(
            block.author, 2,
            Justification(EvidenceKind.COMPLETE, (invalid_nvb,)))),
        "GENESIS justification above view 0": (
            blocks[1], make_backbone(blocks[1].author, 1, genesis)),
    }


@pytest.mark.parametrize("case", list(backbone_rejects(params_for(4))))
def test_validate_backbone_block_rejects(params4, case):
    valid, broken = backbone_rejects(params4)[case]
    assert validate_backbone_block(valid, params4) is True
    assert validate_backbone_block(broken, params4) is False


def test_a_run_validates_a_block_once_in_the_table_of_its_view(
        params4, monkeypatch):
    calls = []

    def counting(block, params):
        calls.append(block.digest)
        return validate_new_view_block(block, params)

    monkeypatch.setattr(chain, "validate_new_view_block", counting)
    blocks, _ = make_complete_chain(params4, 1)
    nvb = make_complete_nvb(params4, 2, 1, blocks[1])
    first = ChainNode(0, params4)
    second = ChainNode(1, params4, memo=first.memo)
    first.handle_message(2, BlockMsg(nvb))
    twin = decode_block(nvb.encoded)  # equal, not the same object
    second.handle_message(2, BlockMsg(twin))
    assert calls.count(nvb.digest) == 1
    assert first.memo[1][(counting, nvb, params4)] is True


# -- node behavior ----------------------------------------------------------------

def test_leader_proposes_at_startup(params4):
    leader = ChainNode(1, params4)
    leader.start()
    msgs = broadcasts(leader)
    kinds = [m.kind for m in msgs if isinstance(m, BbcaMsg)]
    assert kinds == [MsgKind.INIT, MsgKind.ECHO]
    assert leader.view == 1 and leader.proposed == 1


def test_non_leader_only_arms_timer(params4):
    node = ChainNode(0, params4)
    node.start()
    outs = node.take_outbox()
    assert any(isinstance(out, ViewEntered) and out.view == 1 for out in outs)
    assert not [out for out in outs if isinstance(out, WIRE_TYPES)]


def test_timeout_probes_and_waits_for_quorum(params4):
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    node.handle_timer(1)
    msgs = broadcasts(node)
    assert len(msgs) == 1 and isinstance(msgs[0], BlockMsg)
    nvb = msgs[0].block
    assert nvb.new_view.evidence == EvidenceKind.NOADOPT
    assert nvb.new_view.cert == GENESIS_CERT  # anchor bottoms out at genesis
    assert node.view == 1  # two more noadopt blocks are still needed
    for author in (2, 3):
        node.handle_message(author, BlockMsg(
            make_noadopt_nvb(params4, author, 1, GENESIS_CERT)))
    assert node.view == 2


def vote_messages(params, kind, view, block, signers):
    """An ECHO or READY from each of ``signers`` for a backbone block."""
    bid = InstanceId(get_proposer(view, params), view)
    statement = (echo_statement if kind == MsgKind.ECHO
                 else ready_statement)(bid.sender, view, block.digest)
    return [(signer, BbcaMsg(kind, bid, block.encoded,
                             sign(signer, statement)))
            for signer in signers]


def test_a_probe_that_adopts_finds_its_view_held(params4):
    blocks, _ = make_complete_chain(params4, 1)
    node = ChainNode(0, params4)
    node.start()
    node.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                   blocks[1].encoded))
    for frm, msg in vote_messages(params4, MsgKind.ECHO, 1, blocks[1],
                                   (1, 2, 3)):
        node.handle_message(frm, msg)
    adopt = node.held_certs[1]
    assert adopt.kind == CertKind.ADOPT
    assert adopt == node.instances[1].available_adopt()
    node.take_outbox()
    node.handle_timer(1)
    nvb, = [out.block for out in broadcasts(node)]
    assert nvb.new_view.evidence == EvidenceKind.ADOPT
    assert nvb.new_view.cert == adopt and node.held_certs[1] is adopt
    assert node.view == 2


def test_an_echo_quorum_after_a_noadopt_probe_is_held(params4):
    blocks, _ = make_complete_chain(params4, 1)
    node = ChainNode(0, params4)
    node.start()
    node.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                   blocks[1].encoded))
    node.handle_timer(1)  # noadopt: view 1's instance aborts
    node.take_outbox()
    for frm, msg in vote_messages(params4, MsgKind.ECHO, 1, blocks[1],
                                   (1, 2, 3)):
        node.handle_message(frm, msg)
    assert broadcasts(node) == []  # no READY
    assert node.held_certs[1] == node.instances[1].available_adopt()
    assert node.held_certs[1].kind == CertKind.ADOPT


def test_early_probe_after_f_plus_one_noadopts(params4):
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    node.handle_message(2, BlockMsg(
        make_noadopt_nvb(params4, 2, 1, GENESIS_CERT)))
    assert node.view == 1 and node.probed == 0
    node.handle_message(3, BlockMsg(
        make_noadopt_nvb(params4, 3, 1, GENESIS_CERT)))
    # f+1 distinct noadopts: the node probes without waiting for its timer,
    # publishes its own noadopt block, and the quorum completes the view.
    assert node.probed == 1
    assert node.view == 2


def test_received_complete_new_view_advances_and_rebroadcasts(params4):
    blocks, _ = make_complete_chain(params4, 1)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    node.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                   blocks[1].encoded))
    node.take_outbox()
    nvb = make_complete_nvb(params4, 3, 1, blocks[1])
    node.handle_message(3, BlockMsg(nvb))
    assert node.view == 2
    assert node.last_committed == 1
    sent = broadcasts(node)
    own = [m.block for m in sent if isinstance(m, BlockMsg)
           and m.block.kind.name == "NEW_VIEW"]
    assert own and own[0].author == 0
    assert own[0].new_view.evidence == EvidenceKind.COMPLETE


def test_jump_over_views_on_higher_evidence(params4):
    blocks, _ = make_complete_chain(params4, 3)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    for view in (1, 2, 3):
        node.handle_message(1, BbcaMsg(
            MsgKind.INIT, InstanceId(get_proposer(view, params4), view),
            blocks[view].encoded))
    nvb = make_complete_nvb(params4, 3, 3, blocks[3])
    node.handle_message(3, BlockMsg(nvb))
    assert node.view == 4
    assert node.last_committed == 3
    assert [node.finalized[v] for v in (1, 2, 3)] == [
        blocks[v].digest for v in (1, 2, 3)]


def test_adopt_evidence_advances_without_commit(params4):
    blocks, _ = make_complete_chain(params4, 1)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    node.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                   blocks[1].encoded))
    node.handle_message(3, BlockMsg(make_adopt_nvb(params4, 3, 1, blocks[1])))
    assert node.view == 2
    assert node.last_committed == 0  # adoption alone never commits


def test_completion_waits_for_the_proposal_ancestry(params4):
    # View 1's proposal references a data block node 0 has not received:
    # the READY quorum completes the broadcast, but the commit and the view
    # change wait until the data block delivers the proposal.
    data = make_data(1, 1, {GENESIS_REF}, b"tx")
    proposal = make_backbone(1, 1, Justification(EvidenceKind.COMPLETE,
                                                 (GENESIS_NEW_VIEW,)),
                             extra_refs={data.digest})
    node = ChainNode(0, params4)
    node.start()
    bid = InstanceId(1, 1)
    node.handle_message(1, BbcaMsg(MsgKind.INIT, bid, proposal.encoded))
    for signer in (1, 2, 3):
        sig = sign(signer, ready_statement(1, 1, proposal.digest))
        node.handle_message(signer, BbcaMsg(MsgKind.READY, bid,
                                            proposal.encoded, sig))
    cert = make_cert(params4, CertKind.COMPLETE, 1, proposal, (1, 2, 3))
    assert node.awaiting == {proposal.digest: cert}
    assert proposal.digest in node.dag.pending
    assert (node.view, node.last_committed) == (1, 0)
    node.take_outbox()

    node.handle_message(1, BlockMsg(data))
    own_nvb = make_new_view(0, 1, NewViewData(EvidenceKind.COMPLETE, cert),
                            extra_refs={GENESIS_REF})
    assert node.awaiting == {}
    assert node.committed_log == [data.digest, proposal.digest]
    assert node.take_outbox() == [
        Committed(1, (data, proposal)), BlockMsg(own_nvb),
        ViewEntered(2, "complete_own")]


def test_stale_completion_commits_without_view_change(params4):
    blocks, certs = make_complete_chain(params4, 1)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    # Timeout path pushes the node into view 2 first.
    node.handle_timer(1)
    for author in (2, 3):
        node.handle_message(author, BlockMsg(
            make_noadopt_nvb(params4, author, 1, GENESIS_CERT)))
    assert node.view == 2
    node.take_outbox()
    # The view-1 proposal and its ready quorum arrive afterwards.
    node.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                   blocks[1].encoded))
    from bbca_chain.encoding import ready_statement
    from bbca_chain.identity import sign
    for signer in (1, 2, 3):
        sig = sign(signer, ready_statement(1, 1, blocks[1].digest))
        node.handle_message(signer, BbcaMsg(MsgKind.READY, InstanceId(1, 1),
                                            blocks[1].encoded, sig))
    assert node.last_committed == 1
    assert node.view == 2  # no regression, no second new-view block
    sent = [m for m in broadcasts(node) if isinstance(m, BlockMsg)
            and m.block.kind.name == "NEW_VIEW"]
    assert not sent


# -- leader justification ------------------------------------------------------------

COMPLETE, ADOPT, NOADOPT = (EvidenceKind.COMPLETE, EvidenceKind.ADOPT,
                            EvidenceKind.NOADOPT)


@pytest.mark.parametrize("held, chosen", [
    # (author, evidence) of the view-1 new-view blocks the view-2 leader
    # (node 2) holds, in arrival order -> (kind, authors) it embeds.
    ([(0, COMPLETE), (1, ADOPT), (2, COMPLETE)], (COMPLETE, (2,))),
    ([(0, ADOPT), (2, ADOPT), (3, COMPLETE)], (COMPLETE, (3,))),
    ([(3, ADOPT), (1, ADOPT), (0, NOADOPT)], (ADOPT, (1,))),
    ([(3, NOADOPT), (1, NOADOPT), (2, NOADOPT), (0, NOADOPT)],
     (NOADOPT, (0, 1, 2))),
    ([(3, NOADOPT), (1, NOADOPT)], None),
], ids=["own-complete-over-lower-author", "complete-over-own-adopt",
        "adopt-lowest-author", "first-noadopt-quorum", "below-quorum"])
def test_leader_justification_choice(params4, held, chosen):
    blocks, _ = make_complete_chain(params4, 1)
    build = {COMPLETE: lambda a: make_complete_nvb(params4, a, 1, blocks[1]),
             ADOPT: lambda a: make_adopt_nvb(params4, a, 1, blocks[1]),
             NOADOPT: lambda a: make_noadopt_nvb(params4, a, 1, GENESIS_CERT)}
    leader = ChainNode(2, params4)
    for author, evidence in held:
        leader._ingest_block(build[evidence](author))
    leader._maybe_propose(2)
    inits = [m for m in broadcasts(leader)
             if isinstance(m, BbcaMsg) and m.kind == MsgKind.INIT]
    if chosen is None:
        assert inits == [] and leader.proposed == 0
        return
    just = decode_block(inits[0].message).justification
    assert (just.kind, tuple(nvb.author for nvb in just.new_view_blocks)) \
        == chosen
    assert all(nvb.view == 1 for nvb in just.new_view_blocks)


# -- finalize / commit --------------------------------------------------------------

def test_finalize_recursion_on_complete_chain(params4):
    blocks, _ = make_complete_chain(params4, 2)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    for view in (1, 2):
        node._ingest_block(blocks[view])
    node.try_commit(2, blocks[2].digest)
    assert node.finalized[1] == blocks[1].digest
    assert node.finalized[2] == blocks[2].digest
    assert node.last_committed == 2


def test_finalize_marks_noop_for_skipped_views(params4):
    blocks, certs = make_complete_chain(params4, 1)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    node._ingest_block(blocks[1])
    # Views 2 and 3 produce nothing; view 4's proposal is justified by a
    # noadopt quorum for view 3 anchored at view 1's certificate.
    anchor = make_cert(params4, CertKind.COMPLETE, 1, blocks[1])
    noadopts = tuple(make_noadopt_nvb(params4, author, 3, anchor)
                     for author in (0, 1, 2))
    b4 = make_backbone(0, 4, Justification(EvidenceKind.NOADOPT, noadopts))
    node._ingest_block(b4)
    node.try_commit(4, b4.digest)
    assert node.finalized[2] is NO_OP
    assert node.finalized[3] is NO_OP
    assert node.finalized[1] == blocks[1].digest
    assert node.last_committed == 4
    committed_views = [view for _, view, _, _, _
                       in node.committed_log_export()]
    assert committed_views == sorted(committed_views)


def test_conflicting_finalization_raises(params4):
    blocks, _ = make_complete_chain(params4, 1)
    twin = make_backbone(1, 1, Justification(EvidenceKind.COMPLETE,
                                             (GENESIS_NEW_VIEW,)),
                         payload=b"twin")
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    node._ingest_block(blocks[1])
    node._ingest_block(twin)
    node.try_commit(1, blocks[1].digest)
    with pytest.raises(SafetyViolation):
        node.try_commit(1, twin.digest)


def test_commit_contiguity_over_a_gap(params4):
    blocks, _ = make_complete_chain(params4, 3)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    # View 3's proposal arrives before view 2's; its embedded evidence for
    # view 2 stays buffered until the missing block shows up.
    node._ingest_block(blocks[1])
    node._ingest_block(blocks[3])
    node.try_commit(1, blocks[1].digest)
    assert node.last_committed == 1
    # Delivering view 2's block releases the buffered evidence: 2 commits.
    node._ingest_block(blocks[2])
    assert node.last_committed == 2
    node.take_outbox()
    node.try_commit(3, blocks[3].digest)
    assert [out.view for out in node.take_outbox()
            if isinstance(out, Committed)] == [3]
    assert node.last_committed == 3


# -- repeated input --------------------------------------------------------------

def settled_state(node):
    return ({view: dict(per_view)
             for view, per_view in node.new_view_blocks.items()},
            dict(node.held_certs), set(node.dag.delivered),
            set(node.dag.pending), node.dag.tips(), dict(node.finalized),
            node.view, node.last_committed)


def proposal_messages(params, view, block):
    """INIT, node 0's ECHO and node 0's READY for a backbone block."""
    bid = InstanceId(get_proposer(view, params), view)
    echo = sign(0, echo_statement(bid.sender, view, block.digest))
    ready = sign(0, ready_statement(bid.sender, view, block.digest))
    return [(bid.sender, BbcaMsg(MsgKind.INIT, bid, block.encoded)),
            (0, BbcaMsg(MsgKind.ECHO, bid, block.encoded, echo)),
            (0, BbcaMsg(MsgKind.READY, bid, block.encoded, ready))]


def test_held_blocks_and_seen_messages_change_nothing(params4):
    blocks, _ = make_complete_chain(params4, 2)
    embedded = blocks[2].justification.new_view_blocks[0]
    node = ChainNode(3, params4)
    node.start()
    node.take_outbox()
    # First pass: view 2's proposal arrives before view 1's, so it and its
    # embedded new-view block wait in pending; then view 1's proposal
    # delivers all three.
    for view in (2, 1):
        seen = proposal_messages(params4, view, blocks[view])
        for frm, msg in seen:
            node.handle_message(frm, msg)
        node.take_outbox()
        assert (embedded.digest in node.dag.pending) == (view == 2)
        before = settled_state(node)
        node._ingest_block(blocks[2])
        node._ingest_block(embedded)
        for frm, msg in seen:
            node.handle_message(frm, msg)
        assert settled_state(node) == before
        assert node.take_outbox() == []
    # An equivocating twin has its own digest: it is stored, but the first
    # block per (view, author) stays the recorded one.
    twin = make_complete_nvb(params4, embedded.author, 1, blocks[1],
                             extra_refs=(GENESIS_NEW_VIEW.digest,))
    node.handle_message(embedded.author, BlockMsg(twin))
    assert twin.digest in node.dag
    assert node.new_view_blocks[1][embedded.author] == embedded


def test_invalid_new_view_block_rejected_every_time(params4):
    # A real view-1 certificate wrapped in a new-view block labeled view 2.
    blocks, certs = make_complete_chain(params4, 1)
    mismatched = make_new_view(
        2, 2, NewViewData(EvidenceKind.COMPLETE, certs[1]))
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    for _ in range(2):
        node.handle_message(2, BlockMsg(mismatched))
        assert 2 not in node.new_view_blocks
        assert not node.dag.holds(mismatched.digest)
        assert node.view == 1


# -- view-rule gating ------------------------------------------------------------
# The view rules rerun only when one of their inputs changed: the view, a
# stored new-view block or a probe.  Input that changes none of them runs
# no pass; each input change still fires the rule that reads it.

@pytest.fixture
def rule_passes(monkeypatch):
    """Count ``_evaluate_view_rules`` passes, per node id."""
    counts = {}
    evaluate = ChainNode._evaluate_view_rules

    def counted(node):
        counts[node.id] = counts.get(node.id, 0) + 1
        evaluate(node)

    monkeypatch.setattr(ChainNode, "_evaluate_view_rules", counted)
    return counts


def test_seen_messages_and_held_blocks_run_no_rule_pass(params4, rule_passes):
    blocks, _ = make_complete_chain(params4, 2)
    node = ChainNode(3, params4)
    node.start()
    seen = proposal_messages(params4, 1, blocks[1])
    for frm, msg in seen:
        node.handle_message(frm, msg)
    node.take_outbox()
    rule_passes.clear()
    held = BlockMsg(blocks[2].justification.new_view_blocks[0])
    node.handle_message(0, held)  # first sight: stored, rules rerun
    assert rule_passes == {3: 1}
    node.take_outbox()
    for frm, msg in [*seen, (0, held), (1, BlockMsg(blocks[1]))]:
        rule_passes.clear()
        node.handle_message(frm, msg)
        assert rule_passes == {}, msg
        assert node.take_outbox() == []


def test_later_view_adopt_block_triggers_catch_up(params4):
    blocks, _ = make_complete_chain(params4, 2)
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    node.handle_message(3, BlockMsg(make_adopt_nvb(params4, 3, 2, blocks[2])))
    assert node.view == 3
    own = [m.block for m in broadcasts(node) if isinstance(m, BlockMsg)]
    assert [(b.author, b.view, b.new_view.evidence) for b in own] == [
        (0, 2, EvidenceKind.ADOPT)]


def test_entering_a_led_view_makes_the_leader_propose(params4):
    blocks, _ = make_complete_chain(params4, 1)
    leader = ChainNode(2, params4)  # leads view 2
    leader.start()
    leader.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                     blocks[1].encoded))
    leader.take_outbox()
    for frm, msg in vote_messages(params4, MsgKind.READY, 1, blocks[1],
                                   (0, 1, 3)):
        leader.handle_message(frm, msg)
    assert leader.view == 2 and leader.proposed == 2
    inits = [m for m in broadcasts(leader) if isinstance(m, BbcaMsg)
             and m.kind == MsgKind.INIT]
    assert [m.instance for m in inits] == [InstanceId(2, 2)]


def test_entering_a_view_with_f_plus_one_noadopts_probes_at_once(params4):
    # Node 0 times out of view 1 and probes (noadopt), then learns that
    # nodes 2 and 3 already gave up on view 2.  When view 1 completes after
    # all, node 0's own view-1 block is already out, so entering view 2 is
    # the only changed rule input; the f+1 noadopts must trigger the probe.
    blocks, _ = make_complete_chain(params4, 1)
    node = ChainNode(0, params4)
    node.start()
    node.handle_timer(1)
    for author in (2, 3):
        node.handle_message(author, BlockMsg(
            make_noadopt_nvb(params4, author, 2, GENESIS_CERT)))
    assert node.view == 1 and node.probed < 2
    node.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                   blocks[1].encoded))
    for frm, msg in vote_messages(params4, MsgKind.READY, 1, blocks[1],
                                   (1, 2, 3)):
        node.handle_message(frm, msg)
    assert node.last_committed == 1
    assert node.probed == 2
    assert node.view == 3  # its own noadopt completes the view-2 quorum


def test_every_rule_input_change_marks_the_rules_dirty(params4):
    node = ChainNode(0, params4)
    node.start()
    assert not node.rules_dirty
    node._record_new_view_block(
        make_noadopt_nvb(params4, 2, 1, GENESIS_CERT))
    assert node.rules_dirty
    node._evaluate_view_rules()
    node._enter_view(2, "init")
    assert node.rules_dirty
    node._evaluate_view_rules()
    # A probe normally also stores the node's own new-view block, which
    # marks the rules dirty by itself; with that block already out, the
    # probe is the only changed input.
    node.emitted_nvb = 2
    node._conclude_view_by_probe(2)
    assert node.rules_dirty


# -- payload submission ----------------------------------------------------------

def test_submit_payload_builds_connected_data_block(params4):
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    block = node.submit_payload(b"tx")
    assert block.refs  # always referenced into the existing DAG
    assert node.my_last_ref == block.digest
    second = node.submit_payload(b"tx2")
    assert block.digest in second.refs


# -- votes from unknown ids --------------------------------------------------------

def test_votes_signed_by_unknown_ids_never_finalize_a_forged_block(params4):
    # A byzantine node 3 delivers a view-1 backbone that node 1 never
    # proposed; it passes the predicate, since a block carries no author
    # signature.  Its three ECHOs and three READYs are signed as ids
    # 100-102, which once made node 0 send READY, complete and commit it.
    blocks, _ = make_complete_chain(params4, 1)
    forged = blocks[1]
    node = ChainNode(0, params4)
    node.start()
    node.take_outbox()
    bid = InstanceId(1, 1)
    for kind, statement in ((MsgKind.ECHO, echo_statement),
                            (MsgKind.READY, ready_statement)):
        for signer in (100, 101, 102):
            sig = sign(signer, statement(1, 1, forged.digest))
            node.handle_message(3, BbcaMsg(kind, bid, forged.encoded, sig))
    assert broadcasts(node) == []
    assert node.instances[1].completed is None
    assert 1 not in node.finalized and node.last_committed == 0
    assert 1 not in node.held_certs and node.view == 1


# -- dropping final instances ---------------------------------------------------------

@pytest.fixture
def offers(monkeypatch):
    """Each ``BbcaInstance.final`` call as (node, instance view, answer)."""
    calls = []
    final = BbcaInstance.final

    def counted(inst):
        answer = final(inst)
        calls.append((inst.node, inst.instance.view, answer))
        return answer

    monkeypatch.setattr(BbcaInstance, "final", counted)
    return calls


def test_each_instance_is_offered_once_two_views_on(offers):
    result = run(Scenario(n=4, seed=1, delta_post=10, horizon=6))
    assert max(Counter(call[:2] for call in offers).values()) == 1
    for node in result.nodes.values():
        answers = {view: answer for node_id, view, answer in offers
                   if node_id == node.id}
        # A final instance became a row; any other stayed live.
        assert {view for view, final in answers.items() if final} == set(
            node.outcomes)
        assert {view for view, final in answers.items() if not final} == {
            view for view in node.instances if view <= node.view - 2}
        assert not node.outcomes.keys() & node.instances.keys()
    assert any(node.outcomes for node in result.nodes.values())


def test_outcome_rows_hold_the_finalized_digest_object():
    result = run(Scenario(n=4, seed=3, delta_post=5, delay_mode="random",
                          horizon=30))
    shared = 0
    for node in result.nodes.values():
        for view, row in node.outcomes.items():
            final = node.finalized.get(view)
            for digest in row:
                if digest is not None and digest == final:
                    assert digest is final, view
                    shared += 1
    assert shared > 4 * 25


def test_views_skipped_by_a_catch_up_are_offered(params4, offers):
    # The shape of ``test_jump_over_views_on_higher_evidence``: node 0 jumps
    # from view 1 to view 4, past instances that hold only an INIT.
    blocks, _ = make_complete_chain(params4, 3)
    node = ChainNode(0, params4)
    node.start()
    for view in (1, 2, 3):
        node.handle_message(1, BbcaMsg(
            MsgKind.INIT, InstanceId(get_proposer(view, params4), view),
            blocks[view].encoded))
    node.handle_message(3, BlockMsg(make_complete_nvb(params4, 3, 3,
                                                      blocks[3])))
    assert node.view == 4
    assert offers == [(0, 1, False), (0, 2, False)]
    assert node.outcomes == {} and {1, 2} <= set(node.instances)


def every_vote(params, view, block):
    """The INIT, then an ECHO and a READY from each node, for ``block``."""
    bid = InstanceId(get_proposer(view, params), view)
    return [(bid.sender, BbcaMsg(MsgKind.INIT, bid, block.encoded)),
            *[(signer, BbcaMsg(kind, bid, block.encoded,
                               sign(signer, statement(bid.sender, view,
                                                      block.digest))))
              for kind, statement in ((MsgKind.ECHO, echo_statement),
                                      (MsgKind.READY, ready_statement))
              for signer in range(params.n)]]


def node_past_a_final_view(params):
    """Node 0 in view 3, its final view-1 instance dropped for a row."""
    blocks, _ = make_complete_chain(params, 2)
    node = ChainNode(0, params)
    node.start()
    for frm, msg in every_vote(params, 1, blocks[1]):
        node.handle_message(frm, msg)
    node.handle_message(3, BlockMsg(make_complete_nvb(params, 3, 2,
                                                      blocks[2])))
    node.take_outbox()
    assert node.view == 3 and 1 not in node.instances
    assert node.outcomes == {1: (blocks[1].digest, blocks[1].digest)}
    return node


@pytest.mark.parametrize("kind", list(MsgKind))
def test_a_late_message_for_a_dropped_view_only_files_its_block(params4,
                                                                kind):
    node = node_past_a_final_view(params4)
    held, outcomes = dict(node.held_certs), dict(node.outcomes)
    # An equivocating view-1 proposal node 0 has not seen.
    twin = make_backbone(1, 1, Justification(EvidenceKind.COMPLETE,
                                             (GENESIS_NEW_VIEW,)),
                         payload=b"twin")
    frm, msg = next((frm, msg) for frm, msg in every_vote(params4, 1, twin)
                    if msg.kind == kind)
    node.handle_message(frm, msg)
    assert twin.digest in node.dag
    assert node.take_outbox() == []
    assert 1 not in node.instances and node.outcomes == outcomes
    assert node.held_certs == held


def test_a_passed_view_without_an_instance_still_echoes_a_late_init(params4):
    blocks, _ = make_complete_chain(params4, 3)
    node = ChainNode(0, params4)
    node.start()
    node.handle_message(3, BlockMsg(make_complete_nvb(params4, 3, 3,
                                                      blocks[3])))
    assert node.view == 4 and 1 not in node.instances
    node.take_outbox()
    node.handle_message(1, BbcaMsg(MsgKind.INIT, InstanceId(1, 1),
                                   blocks[1].encoded))
    assert 1 in node.instances and node.instances[1].echo
    assert [(m.kind, m.instance) for m in broadcasts(node)
            if isinstance(m, BbcaMsg)] == [(MsgKind.ECHO, InstanceId(1, 1))]


@pytest.mark.parametrize("live", [True, False])
@pytest.mark.parametrize("kind", [MsgKind.INIT, MsgKind.ECHO])
def test_a_bbca_message_naming_another_sender_files_nothing(params4, kind,
                                                             live):
    # Byzantine node 2 names itself the sender of view 1, which node 1
    # leads.  The ECHO is signed over the statement of view 1's real
    # instance, so only the instance check keeps it from counting.
    node = ChainNode(0, params4)
    node.start()
    if live:
        node.handle_timer(1)  # the probe creates view 1's instance
    node.take_outbox()
    block = make_backbone(1, 1, Justification(EvidenceKind.COMPLETE,
                                              (GENESIS_NEW_VIEW,)),
                          payload=b"named by node 2")
    bid = InstanceId(2, 1)
    if kind == MsgKind.INIT:
        msg = BbcaMsg(kind, bid, block.encoded)
    else:
        msg = BbcaMsg(kind, bid, block.encoded,
                      sign(2, echo_statement(1, 1, block.digest)))
    node.handle_message(2, msg)
    assert not node.dag.holds(block.digest)
    assert node.take_outbox() == []
    if live:
        inst = node.instances[1]
        assert inst.instance == InstanceId(1, 1)
        assert not inst.pending and not inst.received_echo
    else:
        assert 1 not in node.instances


# -- far views named by a byzantine peer ----------------------------------------------

def flooded_with_far_views(params, count):
    """Node 0, still in view 1, after byzantine node 3 named ``count`` views
    from 10**6 on: a signed noadopt new-view block and a junk INIT each."""
    node = ChainNode(0, params)
    node.start()
    for view in range(10**6, 10**6 + count):
        node.handle_message(3, BlockMsg(
            make_noadopt_nvb(params, 3, view, GENESIS_CERT)))
        node.handle_message(3, BbcaMsg(
            MsgKind.INIT, InstanceId(get_proposer(view, params), view),
            b"junk"))
    assert node.view == 1
    return node


@pytest.mark.xfail(strict=True, reason="a correct node keeps a "
                   "new_view_blocks entry, an instance and a memo table for "
                   "every far view a byzantine peer names (ROADMAP item 15)")
def test_far_views_named_by_a_byzantine_peer_hold_no_more_state(params4):
    sizes = [(len(node.new_view_blocks), len(node.instances), len(node.memo))
             for node in (flooded_with_far_views(params4, count)
                          for count in (10, 1000))]
    assert sizes[0] == sizes[1]


# -- the noadopt anchor ------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(held=st.sets(st.integers(1, 60), max_size=30),
       view=st.integers(0, 70))
def test_anchor_is_the_highest_held_certificate_at_or_below_the_view(
        held, view):
    node = ChainNode(0, params_for(4))
    node.held_certs = {v: GENESIS_CERT._replace(view=v)
                       for v in sorted({0, *held})}
    highest = max(v for v in node.held_certs if v <= view)
    assert node._anchor_for(view) is node.held_certs[highest]


# -- collection ------------------------------------------------------------------
# A node drops what no rule reads again: new-view blocks below view - 1,
# certificates below the anchor floor, and the bodies of committed blocks,
# backbones included.  What such a block does apart from being stored stays.

def _adopted_to_view_4(params, proposal_first):
    """Node 0 after adopt-driven entries into views 2, 3 and 4, and view
    1's proposal, which the node holds uncommitted if ``proposal_first``
    and has not received otherwise."""
    proposal = make_backbone(1, 1, Justification(EvidenceKind.COMPLETE,
                                                 (GENESIS_NEW_VIEW,)))
    node = ChainNode(0, params)
    node.start()
    if proposal_first:
        node.handle_message(1, BlockMsg(proposal))
    block = proposal
    for view in (1, 2, 3):
        adopt = make_adopt_nvb(params, 3, view, block)
        node.handle_message(3, BlockMsg(adopt))
        block = make_backbone(get_proposer(view + 1, params), view + 1,
                              Justification(EvidenceKind.ADOPT, (adopt,)))
    assert (node.view, node.anchor_floor, node.last_committed) == (4, 3, 0)
    return node, proposal


@pytest.mark.parametrize("proposal_first", [True, False])
def test_a_late_new_view_block_still_commits_and_becomes_a_tip(
        params4, proposal_first):
    node, proposal = _adopted_to_view_4(params4, proposal_first)
    assert sorted(node.new_view_blocks) == [3]
    assert sorted(node.held_certs) == [3]
    node.take_outbox()
    late = make_complete_nvb(params4, 2, 1, proposal)
    node.handle_message(2, BlockMsg(late))
    if not proposal_first:
        assert node.awaiting == {proposal.digest: None}
        node.handle_message(1, BlockMsg(proposal))
    assert node.committed_log[-1] == proposal.digest
    assert Committed(1, (proposal,)) in node.take_outbox()
    assert late.digest in node.dag.tips()
    # Stored nowhere a rule reads: view 1 is below view 4 - 1, and the
    # view-1 certificate below the anchor floor.
    assert sorted(node.new_view_blocks) == [3]
    assert sorted(node.held_certs) == [3]


@pytest.mark.parametrize("via_instance", [True, False])
def test_a_late_certificate_for_a_collected_view_changes_nothing(
        params4, via_instance):
    node, proposal = _adopted_to_view_4(params4, proposal_first=True)
    node.handle_message(2, BlockMsg(make_complete_nvb(params4, 2, 1,
                                                      proposal)))
    assert node.finalized[1] == proposal.digest
    with pytest.raises(UnknownBlockError):
        node.dag.get(proposal.digest)
    node.take_outbox()
    before = settled_state(node), list(node.committed_log)
    if via_instance:
        # The node's own instance completes view 1 only now.
        node._on_bbca_complete(make_cert(params4, CertKind.COMPLETE, 1,
                                         proposal))
    else:
        node._record_new_view_block(make_complete_nvb(params4, 3, 1,
                                                      proposal))
    assert (settled_state(node), list(node.committed_log)) == before
    assert node.take_outbox() == []


def test_a_late_certificate_for_another_block_of_a_collected_view_raises(
        params4):
    node, proposal = _adopted_to_view_4(params4, proposal_first=True)
    node.handle_message(2, BlockMsg(make_complete_nvb(params4, 2, 1,
                                                      proposal)))
    twin = make_backbone(1, 1, Justification(EvidenceKind.COMPLETE,
                                             (GENESIS_NEW_VIEW,)),
                         payload=b"twin")
    node.handle_message(1, BlockMsg(twin))
    with pytest.raises(SafetyViolation) as raised:
        node.handle_message(2, BlockMsg(make_complete_nvb(params4, 2, 1,
                                                          twin)))
    # Worded as when the finalized body was still held.
    assert str(raised.value) == (
        f"conflicting finalization for view 1: {proposal!r} vs {twin!r}")


def test_kept_bodies_do_not_grow_with_run_length():
    held = {}
    for horizon in (20, 80):
        result = run(Scenario(n=4, seed=21, delay_mode="random",
                              delta_post=5, horizon=horizon))
        assert not result.failed
        held[horizon] = [len(node.dag.delivered)
                         for node in result.nodes.values()]
        for node in result.nodes.values():
            assert node.last_committed >= horizon - 2
            assert not [block for block in node.dag.delivered.values()
                        if block.kind == BlockKind.BACKBONE
                        and block.view <= node.last_committed]
            assert all(entry is NO_OP
                       or type(entry) is bytes and len(entry) == 32
                       for entry in node.finalized.values())
    assert held[20] == held[80]
    assert max(held[80]) <= 2 * 4


def _long_run(horizon):
    injections = tuple((tick, tick // 20 % 4) for tick in range(20, 2000, 20))
    return run(Scenario(n=4, seed=3, delta_post=5, delay_mode="random",
                        horizon=horizon, injections=injections))


def _held_bodies_committed(node):
    """Committed blocks whose bodies the node holds."""
    return [ref for ref in node.committed_log if ref in node.dag.delivered]


def test_collected_tables_do_not_grow_with_run_length():
    sizes = {}
    for horizon in (100, 400):
        result = _long_run(horizon)
        assert not result.failed and result.trace.stop_reason == "quiesced"
        kinds = Counter(kind for node in result.nodes.values()
                        for _, _, _, kind, _ in node.committed_log_export())
        assert kinds[BlockKind.DATA.name] > 0
        assert kinds[BlockKind.NEW_VIEW.name] > 0
        for node in result.nodes.values():
            assert node.last_committed >= horizon - 2
            assert _held_bodies_committed(node) == []
        sizes[horizon] = [
            (sum(map(len, node.new_view_blocks.values())),
             len(node.held_certs)) for node in result.nodes.values()]
    assert sizes[100] == sizes[400]
    assert all(blocks <= 8 and certs <= 2 for blocks, certs in sizes[400])


def test_exported_log_names_every_committed_body(monkeypatch):
    captured = {}
    commit = DagStore.commit

    def capturing(dag, backbone):
        blocks = commit(dag, backbone)
        for body in blocks:
            captured[body.digest] = (body.view, body.kind.name, body.author)
        return blocks

    monkeypatch.setattr(DagStore, "commit", capturing)
    result = _long_run(30)
    for node in result.nodes.values():
        assert _held_bodies_committed(node) == []
        assert [(view, kind, author) for _, view, _, kind, author
                in node.committed_log_export()] == [
            captured[ref] for ref in node.committed_log]
        assert [digest for _, _, digest, _, _
                in node.committed_log_export()] == [
            ref.hex() for ref in node.committed_log]
