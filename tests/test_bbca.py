import pytest
from hypothesis import given, settings, strategies as st

from bbca_chain.bbca import (
    BbcaInstance,
    BbcaMsg,
    InstanceId,
    MsgKind,
    vote_row,
)
from bbca_chain.blocks import Cert, CertKind, verify_cert
from bbca_chain.encoding import digest32, echo_statement, ready_statement
from bbca_chain.identity import (
    Signature,
    params_for,
    sign,
    statement_digest,
    verify,
)

BID = InstanceId(sender=0, view=1)
M = b"proposal"


def fresh(node=1, params=None, predicate=None):
    params = params or params_for(4)
    if predicate is None:
        return BbcaInstance(params, BID, node)
    return BbcaInstance(params, BID, node, predicate)


def echo_from(node, message=M):
    stmt = echo_statement(BID.sender, BID.view, digest32(message))
    return sign(node, stmt)


def ready_from(node, message=M):
    stmt = ready_statement(BID.sender, BID.view, digest32(message))
    return sign(node, stmt)


VOTE = {MsgKind.ECHO: echo_from, MsgKind.READY: ready_from}


# -- broadcast ---------------------------------------------------------------

def test_broadcast_emits_init_and_echo():
    sender = fresh(node=0)
    outs = sender.broadcast(M)
    assert [msg.kind for msg in outs] == [MsgKind.INIT, MsgKind.ECHO]
    assert all(msg.message == M for msg in outs)
    assert sender.echo


def test_broadcast_twice_rejected():
    sender = fresh(node=0)
    sender.broadcast(M)
    with pytest.raises(ValueError):
        sender.broadcast(M)


def test_broadcast_requires_designated_sender():
    with pytest.raises(ValueError):
        fresh(node=2).broadcast(M)


# -- INIT --------------------------------------------------------------------

def test_init_from_sender_triggers_echo():
    node = fresh()
    outs = node.on_init(M, frm=0)
    assert len(outs) == 1 and outs[0].kind == MsgKind.ECHO
    assert node.echo


def test_init_from_non_sender_ignored():
    node = fresh()
    assert node.on_init(M, frm=2) == []
    assert not node.echo


def test_second_init_ignored_after_echo():
    node = fresh()
    node.on_init(M, frm=0)
    assert node.on_init(b"different", frm=0) == []


def test_init_failing_predicate_ignored():
    node = fresh(predicate=lambda m: m == b"only this")
    assert node.on_init(M, frm=0) == []


# -- ECHO --------------------------------------------------------------------

def test_quorum_of_echoes_emits_ready():
    node = fresh()
    assert node.on_echo(M, echo_from(0), frm=0) == ([], None)
    assert node.on_echo(M, echo_from(2), frm=2) == ([], None)
    outs, adopt = node.on_echo(M, echo_from(3), frm=3)
    assert len(outs) == 1 and outs[0].kind == MsgKind.READY
    assert node.ready
    assert adopt == node.available_adopt()
    assert verify_cert(adopt, node.params, CertKind.ADOPT)
    # Past the quorum, a vote neither re-sends READY nor re-forms the cert.
    assert node.on_echo(M, echo_from(1), frm=1) == ([], None)


def test_duplicate_echo_sender_ignored():
    node = fresh()
    node.on_echo(M, echo_from(0), frm=0)
    assert node.on_echo(M, echo_from(0), frm=0) == ([], None)
    # A second echo by the same signer for a different message is also dead.
    assert node.on_echo(b"other", echo_from(0, b"other"),
                        frm=0) == ([], None)


def test_invalid_echo_signature_ignored():
    node = fresh()
    wrong = sign(2, b"unrelated statement")
    assert node.on_echo(M, wrong, frm=2) == ([], None)
    assert 2 not in node.received_echo


def test_abort_suppresses_ready_but_not_recording():
    node = fresh()
    node.on_echo(M, echo_from(0), frm=0)
    assert node.probe() is None
    assert node.abort
    assert node.on_echo(M, echo_from(2), frm=2) == ([], None)
    # The quorum vote: no READY, but the adopt certificate all the same.
    outs, adopt = node.on_echo(M, echo_from(3), frm=3)
    assert outs == [] and not node.ready
    assert verify_cert(adopt, node.params, CertKind.ADOPT)
    # Recording continued, so a later probe upgrades to adopt.
    cert = node.probe()
    assert cert == adopt and node.pending[cert.block_digest] == M


# -- probe -------------------------------------------------------------------

def test_probe_fresh_instance_noadopt_and_abort():
    node = fresh()
    assert node.probe() is None
    assert node.abort


def test_probe_after_quorum_adopts_with_cert():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_echo(M, echo_from(signer), frm=signer)
    cert = node.probe()
    assert cert is not None and node.pending[cert.block_digest] == M
    assert len(cert.sigs) == 3
    assert verify_cert(cert, node.params, CertKind.ADOPT)
    assert not node.abort  # adopting probes do not abort


def test_adopt_cert_names_the_lowest_quorum_signers_held_at_call_time():
    # A later echo from a lower signer changes the certificate, so a node
    # cannot cache the first one per instance: the new-view block built
    # from a later probe would carry different bytes.
    node = fresh()
    for signer in (1, 2, 3):
        node.on_echo(M, echo_from(signer), frm=signer)
    first = node.available_adopt()
    assert [sig.signer for sig in first.sigs] == [1, 2, 3]
    node.on_echo(M, echo_from(0), frm=0)
    later = node.available_adopt()
    assert [sig.signer for sig in later.sigs] == [0, 1, 2]
    assert node.probe() == later
    assert verify_cert(later, node.params, CertKind.ADOPT)


def test_ready_node_always_adopts():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_echo(M, echo_from(signer), frm=signer)
    assert node.ready
    assert node.probe() is not None


# -- READY -------------------------------------------------------------------

def test_quorum_of_readies_completes():
    node = fresh()
    assert node.on_ready(M, ready_from(0), frm=0) is None
    assert node.on_ready(M, ready_from(2), frm=2) is None
    cert = node.on_ready(M, ready_from(3), frm=3)
    assert cert is not None and node.pending[cert.block_digest] == M
    assert verify_cert(cert, node.params, CertKind.COMPLETE)
    assert node.completed is cert


def test_ready_amplification_removed():
    # f+1 readies at a node that never echoed emit nothing at all.
    node = fresh()
    node.on_ready(M, ready_from(0), frm=0)
    node.on_ready(M, ready_from(2), frm=2)
    assert not node.ready
    assert node.completed is None


def test_completion_fires_once():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_ready(M, ready_from(signer), frm=signer)
    first = node.completed
    assert node.on_ready(M, ready_from(1), frm=1) is None
    assert node.completed is first


def test_completion_not_blocked_by_abort():
    node = fresh()
    assert node.probe() is None
    for signer in (0, 2, 3):
        cert = node.on_ready(M, ready_from(signer), frm=signer)
    assert cert is not None


def test_relayed_ready_counts_for_its_signer_once():
    node = fresh()
    node.on_ready(M, ready_from(0), frm=3)  # relayed by node 3
    assert node.on_ready(M, ready_from(0), frm=0) is None
    assert len(node.ready_sigs[digest32(M)]) == 1


# -- certificates -------------------------------------------------------------

def test_cert_kind_mismatch_fails():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_ready(M, ready_from(signer), frm=signer)
    cert = node.completed
    assert verify_cert(cert, node.params, CertKind.COMPLETE)
    assert not verify_cert(cert, node.params, CertKind.ADOPT)


def test_cert_tamper_detected():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_echo(M, echo_from(signer), frm=signer)
    cert = node.probe()
    swapped = Cert(cert.kind, cert.sender, cert.view, cert.block_digest,
                   cert.sigs[:-1] + (echo_from(3, b"other"),))
    assert not verify_cert(swapped, node.params, CertKind.ADOPT)


# -- handle_message --------------------------------------------------------------

def test_handle_message_dispatches_each_kind():
    node = fresh()
    outs, cert = node.handle_message(0, BbcaMsg(MsgKind.INIT, BID, M))
    assert [out.kind for out in outs] == [MsgKind.ECHO] and cert is None
    for signer in (0, 2):
        assert node.handle_message(
            signer, BbcaMsg(MsgKind.ECHO, BID, M, echo_from(signer))) == ([], None)
    outs, cert = node.handle_message(3, BbcaMsg(MsgKind.ECHO, BID, M,
                                                echo_from(3)))
    assert [out.kind for out in outs] == [MsgKind.READY]
    assert cert == node.available_adopt() is not None
    for signer in (0, 2):
        node.handle_message(signer, BbcaMsg(MsgKind.READY, BID, M,
                                            ready_from(signer)))
    outs, cert = node.handle_message(3, BbcaMsg(MsgKind.READY, BID, M,
                                                ready_from(3)))
    assert outs == [] and cert is node.completed is not None


@pytest.mark.parametrize("kind", [MsgKind.ECHO, MsgKind.READY])
def test_signature_less_echo_or_ready_is_dropped(kind):
    node = fresh()
    assert node.handle_message(0, BbcaMsg(kind, BID, M)) == ([], None)
    assert not node.received_echo and not node.received_ready
    assert not node.pending


@pytest.mark.parametrize("kind", [MsgKind.ECHO, MsgKind.READY])
def test_votes_signed_by_unknown_ids_are_dropped(kind):
    # Signatures are checked against the claimed signer only; without a
    # range check, three votes signed as ids 100-102 made a READY and a
    # COMPLETE certificate that ``verify_cert`` rejects.
    node = fresh()
    vote = VOTE[kind]
    for signer in (-1, 4, 100, 101, 102):
        msg = BbcaMsg(kind, BID, M, vote(signer))
        assert node.handle_message(3, msg) == ([], None)
    assert not node.received_echo and not node.received_ready
    assert not node.echo_sigs and not node.ready_sigs and not node.pending
    assert node.completed is None and not node.ready


@pytest.mark.parametrize("kind", [MsgKind.ECHO, MsgKind.READY])
def test_invalid_proposal_is_rejected_on_every_delivery(kind):
    # A byzantine signer relays a proposal the predicate rejects; each copy
    # is checked again and none counts its signer.
    bad = b"invalid proposal"
    checked = []

    def predicate(message):
        checked.append(message)
        return message != bad

    node = fresh(predicate=predicate)
    sign_for = echo_from if kind == MsgKind.ECHO else ready_from
    for frm in (3, 3, 2, 3):
        assert node.handle_message(
            frm, BbcaMsg(kind, BID, bad, sign_for(3, bad))) == ([], None)
    assert checked == [bad] * 4
    assert not node.received_echo and not node.received_ready
    assert not node.pending
    # The signer was never counted, so its valid vote still is.
    node.handle_message(3, BbcaMsg(kind, BID, M, sign_for(3)))
    assert node.received_echo | node.received_ready == {3}
    assert checked == [bad] * 4 + [M]


# -- the vote table ---------------------------------------------------------

_STATEMENT = {MsgKind.ECHO: echo_statement, MsgKind.READY: ready_statement}
_VOTE_KINDS = st.sampled_from([MsgKind.ECHO, MsgKind.READY])
_INSTANCES = st.builds(InstanceId, st.integers(0, 6), st.integers(1, 2**40))
_MESSAGES = st.sampled_from([M, b"other"]) | st.binary(max_size=8)


@st.composite
def _votes(draw, n, kind, bid, message):
    """Signatures by ids in and out of [0, n) over one statement: the
    vote's, one with another kind, instance or message, or a forged one."""
    other = (draw(_VOTE_KINDS), draw(_INSTANCES), draw(_MESSAGES))
    signed_kind, signed_bid, signed_message = draw(st.sampled_from(
        [(kind, bid, message), other, (kind, bid, other[2]),
         (kind, other[1], message), (other[0], bid, message)]))
    statement = _STATEMENT[signed_kind](signed_bid.sender, signed_bid.view,
                                        digest32(signed_message))
    forged = draw(st.none() | st.binary(min_size=8, max_size=8))
    signers = {-1, 0, n - 1, n, 2**31, draw(st.integers(-2, n + 1))}
    return [sign(signer, statement) if forged is None
            else Signature(signer, forged) for signer in sorted(signers)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kind=_VOTE_KINDS, bid=_INSTANCES, message=_MESSAGES,
       n=st.sampled_from([4, 7]), node=st.integers(0, 6))
def test_a_vote_counts_exactly_when_identity_verify_accepts_it(
        data, kind, bid, message, n, node):
    statement = _STATEMENT[kind](bid.sender, bid.view, digest32(message))
    for sig in data.draw(_votes(n, kind, bid, message)):
        inst = BbcaInstance(params_for(n), bid, node)
        if kind == MsgKind.ECHO:
            inst.on_echo(message, sig, 0)
            counted = inst.received_echo
        else:
            inst.on_ready(message, sig, 0)
            counted = inst.received_ready
        expected = (0 <= sig.signer < n
                    and verify(sig, statement, sig.signer))
        assert counted == ({sig.signer} if expected else set())
        assert bool(inst.pending) == expected
    # A node's own vote is ``identity.sign`` over the same statement.
    assert inst._signed(kind, message) == BbcaMsg(kind, bid, message,
                                                  sign(node, statement))
    row = vote_row(kind, bid, message)
    assert row == (digest32(message), statement_digest(statement))
    assert inst.memo[bid.view][(vote_row, kind, bid, message)] == row


# -- whole-network pump --------------------------------------------------------

def pump(nodes, outbox):
    """FIFO-deliver (frm, msg, targets) entries until quiescence."""
    while outbox:
        frm, msg, targets = outbox.pop(0)
        for node_id in sorted(targets):
            outs, _ = nodes[node_id].handle_message(frm, msg)
            everyone = tuple(nodes)
            outbox.extend((node_id, out, everyone) for out in outs)


def test_failure_free_network_completes_everywhere():
    params = params_for(4)
    nodes = {i: BbcaInstance(params, BID, i) for i in range(4)}
    outbox = [(0, msg, tuple(nodes)) for msg in nodes[0].broadcast(M)]
    pump(nodes, outbox)
    for node in nodes.values():
        assert node.completed is not None
        assert node.completed.block_digest == digest32(M)


def test_equivocating_sender_cannot_split_completions():
    # The sender signs echoes for two messages, one per network half, but
    # each correct node echoes at most once, so no two quorums can form.
    params = params_for(4)
    nodes = {i: BbcaInstance(params, BID, i) for i in (1, 2, 3)}
    outbox = [
        (0, BbcaMsg(MsgKind.INIT, BID, b"m1"), (1,)),
        (0, BbcaMsg(MsgKind.INIT, BID, b"m2"), (2, 3)),
        (0, BbcaMsg(MsgKind.ECHO, BID, b"m1", echo_from(0, b"m1")), (1,)),
        (0, BbcaMsg(MsgKind.ECHO, BID, b"m2", echo_from(0, b"m2")), (2, 3)),
    ]
    pump(nodes, outbox)
    completed = {n.completed.block_digest
                 for n in nodes.values() if n.completed}
    assert len(completed) <= 1
    adopted = {cert.block_digest for n in nodes.values()
               if (cert := n.probe()) is not None}
    assert len(adopted | completed) <= 1


# -- final instances --------------------------------------------------------------
# Once a node sent its own ECHO and holds the ECHO and the READY of all n
# nodes, the instance is ``final``: no later input changes its answers.

M2 = b"other proposal"


def answers(node):
    return node.completed, node.adoptable_digest(), node.available_adopt()


def driven(steps):
    """Node 1 after ``steps``: (frm, msg) deliveries, ``None`` a probe."""
    node = fresh()
    for step in steps:
        if step is None:
            node.probe()
        else:
            node.handle_message(*step)
    return node


def votes(kind, messages):
    return [(signer, BbcaMsg(kind, BID, message, VOTE[kind](signer, message)))
            for signer, message in enumerate(messages)]


@st.composite
def _every_vote(draw):
    """The sender's INIT, then an ECHO and a READY from each of the n nodes,
    each for one of two messages, in any order, with up to two probes."""
    messages = st.lists(st.sampled_from([M, M2]), min_size=4, max_size=4)
    steps = [(0, BbcaMsg(MsgKind.INIT, BID, M)),
             *votes(MsgKind.ECHO, draw(messages)),
             *votes(MsgKind.READY, draw(messages)),
             *[None] * draw(st.integers(0, 2))]
    return draw(st.permutations(steps))


_SIGNERS = st.integers(-1, 5) | st.sampled_from([100, 101, 102])


@st.composite
def _any_input(draw):
    """A probe (``None``) or a delivery: INIT from anyone, or an ECHO or
    READY that is valid, forged or unsigned, by any id, replayed or not."""
    kind = draw(st.sampled_from([None, *MsgKind]))
    if kind is None:
        return None
    message = draw(st.sampled_from([M, M2, b"junk"]))
    frm = draw(st.integers(0, 5))
    if kind == MsgKind.INIT:
        return frm, BbcaMsg(kind, BID, message)
    signer = draw(_SIGNERS)
    sig = draw(st.sampled_from([VOTE[kind](signer, message),
                                Signature(signer, bytes(8)), None]))
    return frm, BbcaMsg(kind, BID, message, sig)


@st.composite
def _stranger_vote(draw):
    """A validly signed ECHO or READY from an id outside [0, n)."""
    kind = draw(st.sampled_from([MsgKind.ECHO, MsgKind.READY]))
    signer = draw(st.sampled_from([-1, 4, 5, 100]))
    message = draw(st.sampled_from([M, M2]))
    return signer, BbcaMsg(kind, BID, message, VOTE[kind](signer, message))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(steps=_every_vote(), later=st.lists(_any_input(), max_size=20))
def test_a_final_instance_and_its_clone_ignore_every_input(steps, later):
    node = driven(steps)
    assert node.final()
    before = answers(node)
    completed, adoptable, _ = before
    row = (None if completed is None else completed.block_digest, adoptable)
    twin = node.clone()
    assert twin.final() and answers(twin) == before
    for inst in (node, twin):
        for step in later:
            if step is None:
                assert inst.probe() == before[2]
            else:
                assert inst.handle_message(*step) == ([], None)
            assert answers(inst) == before
            assert inst.outcome() == row
        assert inst.final()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(steps=_every_vote(), missing=st.integers(0, 8),
       strangers=st.lists(_stranger_vote(), max_size=4))
def test_an_instance_missing_any_vote_is_not_final(steps, missing,
                                                     strangers):
    # Missing the INIT means the node never sent its own ECHO.  Votes from
    # ids outside [0, n) must not stand in for the missing one.
    dropped = [step for step in steps if step is not None][missing]
    kept = [step for step in steps if step is not dropped]
    node = driven([*kept, *strangers, *kept])
    assert not node.final()


# -- the adopt certificate ---------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(steps=_every_vote(), later=st.lists(_any_input(), max_size=20))
def test_only_the_echo_quorum_vote_hands_back_the_adopt_cert(steps, later):
    # Probes (``None`` steps) may abort the instance before the quorum.
    node = fresh()
    handed = []
    for step in [*steps, *later]:
        if step is None:
            node.probe()
            continue
        before = node.adoptable_digest()
        _, cert = node.handle_message(*step)
        if cert is not None and cert.kind == CertKind.ADOPT:
            assert before is None and step[1].kind == MsgKind.ECHO
            assert cert == node.available_adopt()
            handed.append(cert)
    assert len(handed) == (node.adoptable_digest() is not None)
