import pytest

from bbca_chain.bbca import (
    BbcaInstance,
    BbcaMsg,
    InstanceId,
    MsgKind,
)
from bbca_chain.blocks import Cert, CertKind, verify_cert
from bbca_chain.encoding import digest32, echo_statement, ready_statement
from bbca_chain.identity import SystemParams, sign

BID = InstanceId(sender=0, view=1)
M = b"proposal"


def fresh(node=1, params=None, predicate=None):
    params = params or SystemParams(4)
    if predicate is None:
        return BbcaInstance(params, BID, node)
    return BbcaInstance(params, BID, node, predicate)


def echo_from(node, message=M):
    stmt = echo_statement(BID.sender, BID.view, digest32(message))
    return sign(node, stmt)


def ready_from(node, message=M):
    stmt = ready_statement(BID.sender, BID.view, digest32(message))
    return sign(node, stmt)


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
    assert node.on_echo(M, echo_from(0), frm=0) == []
    assert node.on_echo(M, echo_from(2), frm=2) == []
    outs = node.on_echo(M, echo_from(3), frm=3)
    assert len(outs) == 1 and outs[0].kind == MsgKind.READY
    assert node.ready


def test_duplicate_echo_sender_ignored():
    node = fresh()
    node.on_echo(M, echo_from(0), frm=0)
    assert node.on_echo(M, echo_from(0), frm=0) == []
    # A second echo by the same signer for a different message is also dead.
    assert node.on_echo(b"other", echo_from(0, b"other"), frm=0) == []


def test_invalid_echo_signature_ignored():
    node = fresh()
    wrong = sign(2, b"unrelated statement")
    assert node.on_echo(M, wrong, frm=2) == []
    assert 2 not in node.received_echo


def test_abort_suppresses_ready_but_not_recording():
    node = fresh()
    node.on_echo(M, echo_from(0), frm=0)
    assert not node.probe().adopted
    assert node.abort
    assert node.on_echo(M, echo_from(2), frm=2) == []
    assert node.on_echo(M, echo_from(3), frm=3) == []  # quorum, no READY
    assert not node.ready
    # Recording continued, so a later probe upgrades to adopt.
    result = node.probe()
    assert result.adopted and result.message == M
    assert verify_cert(result.cert, node.params, CertKind.ADOPT)


# -- probe -------------------------------------------------------------------

def test_probe_fresh_instance_noadopt_and_abort():
    node = fresh()
    result = node.probe()
    assert not result.adopted
    assert node.abort


def test_probe_after_quorum_adopts_with_cert():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_echo(M, echo_from(signer), frm=signer)
    result = node.probe()
    assert result.adopted and result.message == M
    assert len(result.cert.sigs) == 3
    assert verify_cert(result.cert, node.params, CertKind.ADOPT)
    assert not node.abort  # adopting probes do not abort


def test_ready_node_always_adopts():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_echo(M, echo_from(signer), frm=signer)
    assert node.ready
    assert node.probe().adopted


# -- READY -------------------------------------------------------------------

def test_quorum_of_readies_completes():
    node = fresh()
    assert node.on_ready(M, ready_from(0), frm=0) is None
    assert node.on_ready(M, ready_from(2), frm=2) is None
    event = node.on_ready(M, ready_from(3), frm=3)
    assert event is not None and event.message == M
    assert verify_cert(event.cert, node.params, CertKind.COMPLETE)
    assert node.completed is event


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
    assert not node.probe().adopted
    for signer in (0, 2, 3):
        event = node.on_ready(M, ready_from(signer), frm=signer)
    assert event is not None


def test_relayed_ready_counts_for_its_signer_once():
    node = fresh()
    node.on_ready(M, ready_from(0), frm=3)  # relayed by node 3
    assert node.on_ready(M, ready_from(0), frm=0) is None
    assert len(node.pending[digest32(M)].ready_sigs) == 1


# -- certificates -------------------------------------------------------------

def test_cert_kind_mismatch_fails():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_ready(M, ready_from(signer), frm=signer)
    cert = node.completed.cert
    assert verify_cert(cert, node.params, CertKind.COMPLETE)
    assert not verify_cert(cert, node.params, CertKind.ADOPT)


def test_cert_tamper_detected():
    node = fresh()
    for signer in (0, 2, 3):
        node.on_echo(M, echo_from(signer), frm=signer)
    cert = node.probe().cert
    swapped = Cert(cert.kind, cert.sender, cert.view, cert.block_digest,
                   cert.sigs[:-1] + (echo_from(3, b"other"),))
    assert not verify_cert(swapped, node.params, CertKind.ADOPT)


# -- whole-network pump --------------------------------------------------------

def pump(nodes, outbox):
    """FIFO-deliver (frm, msg, targets) entries until quiescence."""
    while outbox:
        frm, msg, targets = outbox.pop(0)
        for node_id in sorted(targets):
            node = nodes[node_id]
            if msg.kind == MsgKind.INIT:
                outs = node.on_init(msg.message, frm)
            elif msg.kind == MsgKind.ECHO:
                outs = node.on_echo(msg.message, msg.sig, frm)
            else:
                node.on_ready(msg.message, msg.sig, frm)
                outs = []
            everyone = tuple(nodes)
            outbox.extend((node_id, out, everyone) for out in outs)


def test_failure_free_network_completes_everywhere():
    params = SystemParams(4)
    nodes = {i: BbcaInstance(params, BID, i) for i in range(4)}
    outbox = [(0, msg, tuple(nodes)) for msg in nodes[0].broadcast(M)]
    pump(nodes, outbox)
    for node in nodes.values():
        assert node.completed is not None
        assert node.completed.message == M


def test_equivocating_sender_cannot_split_completions():
    # The sender signs echoes for two messages, one per network half, but
    # each correct node echoes at most once, so no two quorums can form.
    params = SystemParams(4)
    nodes = {i: BbcaInstance(params, BID, i) for i in (1, 2, 3)}
    outbox = [
        (0, BbcaMsg(MsgKind.INIT, BID, b"m1"), (1,)),
        (0, BbcaMsg(MsgKind.INIT, BID, b"m2"), (2, 3)),
        (0, BbcaMsg(MsgKind.ECHO, BID, b"m1", echo_from(0, b"m1")), (1,)),
        (0, BbcaMsg(MsgKind.ECHO, BID, b"m2", echo_from(0, b"m2")), (2, 3)),
    ]
    pump(nodes, outbox)
    completed = {digest32(n.completed.message)
                 for n in nodes.values() if n.completed}
    assert len(completed) <= 1
    adopted = {digest32(n.probe().message)
               for n in nodes.values() if n.probe().adopted}
    assert len(adopted | completed) <= 1
