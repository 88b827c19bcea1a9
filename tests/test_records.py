"""The per-message records, node outputs and explorer steps are named
tuples with the contract of frozen dataclasses: a fixed field order,
defaults, repr, hash and ``InstanceId`` ordering, and no assignable fields.
Trace digests, set and dict orders and witness texts depend on all of these.

One difference remains: a named tuple compares equal to any tuple of equal
values, where a dataclass compared equal only to its own class.  No set, dict
or comparison in the program mixes two record types, so nothing observes
it.  The containers audited for this are:

- ``Adversary._replayed``: ``BbcaMsg`` and ``BlockMsg`` values, whose field
  counts differ (pinned below);
- ``BbcaWorld._replayed``: ``BbcaMsg`` values only;
- the ``SendCounts`` keys: ``(node, MsgKind, InstanceId)`` tuples only;
- ``ChainNode.held_certs``: ``Cert`` values only, and
  ``ChainNode.awaiting``: ``Cert`` values or ``None``;
- ``BbcaInstance.echo_sigs`` and ``BbcaInstance.ready_sigs``: tuples of
  ``Signature`` values only, sorted into certificates; a signer appears at
  most once per instance, so the sort is by signer;
- ``ChainNode.outcomes``: plain pairs of a digest or ``None``, compared only
  with each other;
- the run memo's keys: ``(fn, *args)`` tuples whose first item is the
  memoized function, so keys of two functions never meet; ``vote_row``
  keys hold a ``MsgKind`` and an ``InstanceId``, the validators' a
  ``Block`` and a ``SystemParams``;
- ``ChainNode.outbox``: wire messages, ``ViewEntered``, ``Committed`` and
  ``Probed``, routed by type and never compared;
- the explorer's ``pool`` and ``executed``: ``Deliver`` with ``Probe`` in a
  ``BbcaWorld``, ``Deliver`` with ``Timer`` in a ``ChainWorld``, whose field
  counts differ (pinned below); ``Probe(1) == Timer(1)`` is never asked.
"""

import pytest

from bbca_chain.bbca import BbcaMsg, InstanceId, MsgKind
from bbca_chain.blocks import GENESIS_BLOCK, Cert, CertKind
from bbca_chain.chain import BlockMsg, Committed, Probed, ViewEntered
from bbca_chain.explore import Probe, Timer
from bbca_chain.identity import Signature
from bbca_chain.simnet import Deliver

SIG = Signature(2, b"\x01" * 8)
SIG_REPR = r"Signature(signer=2, digest=b'\x01\x01\x01\x01\x01\x01\x01\x01')"
IID = InstanceId(0, 1)
IID_REPR = "InstanceId(sender=0, view=1)"
CERT = Cert(CertKind.ADOPT, 1, 1, b"\xab" * 4, (SIG,))
CERT_REPR = (r"Cert(kind=<CertKind.ADOPT: 1>, sender=1, view=1, "
             r"block_digest=b'\xab\xab\xab\xab', sigs=(" + SIG_REPR + ",))")

# (record, its field order, its repr)
RECORDS = [
    (SIG, ("signer", "digest"), SIG_REPR),
    (CERT, ("kind", "sender", "view", "block_digest", "sigs"), CERT_REPR),
    (IID, ("sender", "view"), IID_REPR),
    (BbcaMsg(MsgKind.ECHO, IID, b"m", SIG),
     ("kind", "instance", "message", "sig"),
     f"BbcaMsg(kind=<MsgKind.ECHO: 2>, instance={IID_REPR}, message=b'm', "
     f"sig={SIG_REPR})"),
    (BlockMsg(GENESIS_BLOCK), ("block",),
     "BlockMsg(block=Block(BACKBONE v=0 a=0 dc2dd5fe7e60))"),
    (ViewEntered(2, "init"), ("view", "cause"),
     "ViewEntered(view=2, cause='init')"),
    (Committed(1, (GENESIS_BLOCK,)), ("view", "blocks"),
     "Committed(view=1, blocks=(Block(BACKBONE v=0 a=0 dc2dd5fe7e60),))"),
    (Probed(1, False, None), ("view", "adopted", "ref"),
     "Probed(view=1, adopted=False, ref=None)"),
    (Probe(1), ("node",), "Probe(node=1)"),
    (Timer(3), ("node",), "Timer(node=3)"),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_record_keeps_the_dataclass_contract(record, fields, text):
    assert type(record)._fields == fields
    assert repr(record) == text
    assert hash(record) == hash(tuple(record))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


def test_instance_ids_sort_by_sender_then_view():
    ids = [InstanceId(1, 0), InstanceId(0, 2), InstanceId(0, 1),
           InstanceId(2, 1)]
    assert sorted(ids) == [InstanceId(0, 1), InstanceId(0, 2),
                           InstanceId(1, 0), InstanceId(2, 1)]


def test_defaults_are_the_dataclass_defaults():
    assert BbcaMsg(MsgKind.INIT, IID, b"m").sig is None


def test_replayed_wire_messages_never_compare_equal():
    # ``Adversary._replayed`` holds both wire-message types in one set.
    assert len(BbcaMsg._fields) != len(BlockMsg._fields)


def test_explorer_steps_in_one_pool_never_compare_equal():
    # A pool mixes ``Deliver`` with one kind of one-field token.
    assert len(Deliver._fields) not in (len(Probe._fields),
                                        len(Timer._fields))
