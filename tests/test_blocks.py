import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from bbca_chain.blocks import (
    Block,
    BlockKind,
    Cert,
    CertKind,
    EvidenceKind,
    GENESIS_BLOCK,
    GENESIS_CERT,
    GENESIS_NEW_VIEW,
    GENESIS_REF,
    Justification,
    NewViewData,
    decode_block,
    encode_block,
    make_backbone,
    make_data,
    verify_cert,
)
from bbca_chain.chain import BlockMsg
from bbca_chain.encoding import EncodingError, digest32
from bbca_chain.identity import Signature, params_for

from conftest import make_cert, make_complete_nvb, make_noadopt_nvb


def _random_ref(rng):
    return bytes(rng.randrange(256) for _ in range(32))


def test_blocks_are_equal_by_digest(params4):
    backbone = make_backbone(
        1, 1, Justification(EvidenceKind.COMPLETE, (GENESIS_NEW_VIEW,)))
    nvb = make_complete_nvb(params4, 3, 1, backbone)
    blocks = [make_data(2, 5, [GENESIS_REF], b"hello"), backbone, nvb,
              make_backbone(2, 2, Justification(EvidenceKind.COMPLETE,
                                                (nvb,)))]
    for block in blocks:
        rebuilt = Block(block.kind, block.author, block.view, block.refs,
                        block.payload, block.justification, block.new_view)
        decoded = decode_block(block.encoded)
        for same in (rebuilt, decoded):
            assert same is not block
            assert same == block and block == same
            assert hash(same) == hash(block)
        twin = dataclasses.replace(block, payload=block.payload + b"/twin")
        assert twin != block and not twin == block
        for other in (block.digest, block.encoded, None, 0, BlockMsg(block)):
            assert (block == other) is False
            assert block != other


def test_data_block_roundtrip():
    block = make_data(2, 5, [GENESIS_REF], b"hello")
    assert decode_block(encode_block(block)) == block


def test_new_view_roundtrips():
    params = params_for(4)
    backbone = make_backbone(
        1, 1, Justification(EvidenceKind.COMPLETE, (GENESIS_NEW_VIEW,)))
    complete = make_complete_nvb(params, 3, 1, backbone)
    noadopt = make_noadopt_nvb(params, 2, 1, GENESIS_CERT)
    for block in (backbone, complete, noadopt):
        assert decode_block(encode_block(block)) == block
        assert decode_block(encode_block(block)).digest == block.digest


def test_decoded_block_keeps_its_wire_bytes(params4):
    backbone = make_backbone(
        1, 1, Justification(EvidenceKind.COMPLETE, (GENESIS_NEW_VIEW,)),
        payload=b"keeps its wire bytes")
    nvb = make_complete_nvb(params4, 3, 1, backbone)
    outer = make_backbone(2, 2, Justification(EvidenceKind.COMPLETE, (nvb,)))
    for block in (backbone, nvb, outer):
        b = encode_block(block)
        decoded = decode_block(b)
        assert decoded.encoded is b
        assert decoded.digest == block.digest
    # An embedded new-view block holds its slice of the bytes from the start.
    embedded, = decoded.justification.new_view_blocks
    assert vars(embedded)["encoded"] == nvb.encoded


def test_roundtrip_random_blocks():
    # Seeded sweep over payload sizes and ref counts.
    rng = random.Random(20240811)
    for _ in range(100):
        refs = [_random_ref(rng) for _ in range(rng.randrange(0, 5))]
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        block = make_data(rng.randrange(7), rng.randrange(50), refs, payload)
        assert decode_block(encode_block(block)) == block


def test_refs_are_sorted_and_unique():
    a, b = digest32(b"a"), digest32(b"b")
    block = make_data(0, 1, [b, a, b], b"")
    assert block.refs == tuple(sorted({a, b}))


def test_decode_rejects_truncation_and_trailing_bytes():
    encoded = encode_block(make_data(0, 1, [GENESIS_REF], b"payload"))
    with pytest.raises(EncodingError):
        decode_block(encoded[:-1])
    with pytest.raises(EncodingError):
        decode_block(encoded + b"\x00")
    with pytest.raises(EncodingError):
        decode_block(b"\xff" + encoded[1:])


@pytest.mark.parametrize("evidence", [EvidenceKind.GENESIS, 4])
def test_decode_rejects_a_bad_evidence_byte(evidence):
    # GENESIS justifies only the genesis block; no new-view block carries it.
    backbone = make_backbone(
        1, 1, Justification(EvidenceKind.COMPLETE, (GENESIS_NEW_VIEW,)))
    block = make_complete_nvb(params_for(4), 3, 1, backbone)
    encoded = block.encoded
    at = 1 + 4 + 8 + 4 + 32 * len(block.refs)  # kind, author, view, refs
    assert encoded[at] == EvidenceKind.COMPLETE
    with pytest.raises(EncodingError):
        decode_block(encoded[:at] + bytes([evidence]) + encoded[at + 1:])


def test_genesis_constants_are_consistent():
    assert GENESIS_REF == digest32(GENESIS_BLOCK.encoded)
    assert GENESIS_NEW_VIEW.new_view.cert == GENESIS_CERT
    assert GENESIS_REF in GENESIS_NEW_VIEW.refs
    assert verify_cert(GENESIS_CERT, params_for(4))


def test_cert_verification(params4):
    blocks = make_data(0, 1, [GENESIS_REF], b"x")
    cert = make_cert(params4, CertKind.ADOPT, 1, blocks)
    assert verify_cert(cert, params4, CertKind.ADOPT)
    assert not verify_cert(cert, params4, CertKind.COMPLETE)

    short = Cert(cert.kind, cert.sender, cert.view, cert.block_digest,
                 cert.sigs[:-1])
    assert not verify_cert(short, params4)

    # One signature computed over a different block digest.
    other = make_cert(params4, CertKind.ADOPT, 1,
                      make_data(0, 1, [GENESIS_REF], b"y"))
    mixed = Cert(cert.kind, cert.sender, cert.view, cert.block_digest,
                 cert.sigs[:-1] + (other.sigs[-1],))
    assert not verify_cert(mixed, params4)

    duplicated = Cert(cert.kind, cert.sender, cert.view, cert.block_digest,
                      cert.sigs[:-1] + (cert.sigs[0],))
    assert not verify_cert(duplicated, params4)


def test_fake_genesis_cert_rejected(params4):
    fake = Cert(CertKind.COMPLETE, 0, 0, digest32(b"not genesis"), ())
    assert not verify_cert(fake, params4)


def test_backbone_requires_justification():
    bare = Block(BlockKind.BACKBONE, 1, 1, (), b"")
    with pytest.raises(EncodingError):
        encode_block(bare)


# -- codec property ----------------------------------------------------------

_refs = st.lists(st.binary(min_size=32, max_size=32), max_size=3).map(tuple)
_payloads = st.binary(max_size=12)
_sigs = st.builds(Signature, st.integers(0, 9),
                  st.binary(min_size=8, max_size=8))
_certs = st.builds(Cert, st.sampled_from(CertKind), st.integers(0, 9),
                   st.integers(0, 2**64 - 1),
                   st.binary(min_size=32, max_size=32),
                   st.lists(_sigs, max_size=3).map(tuple))


@st.composite
def _new_view_blocks(draw):
    evidence = draw(st.sampled_from([EvidenceKind.COMPLETE, EvidenceKind.ADOPT,
                                     EvidenceKind.NOADOPT]))
    sig = draw(_sigs) if evidence == EvidenceKind.NOADOPT else None
    return Block(BlockKind.NEW_VIEW, draw(st.integers(0, 9)),
                 draw(st.integers(0, 2**64 - 1)), draw(_refs),
                 draw(_payloads),
                 new_view=NewViewData(evidence, draw(_certs), sig))


@st.composite
def _blocks(draw):
    kind = draw(st.sampled_from(BlockKind))
    if kind == BlockKind.NEW_VIEW:
        return draw(_new_view_blocks())
    justification = None
    if kind == BlockKind.BACKBONE:
        justification = Justification(
            draw(st.sampled_from(EvidenceKind)),
            tuple(draw(st.lists(_new_view_blocks(), max_size=3))))
    return Block(kind, draw(st.integers(0, 9)),
                 draw(st.integers(0, 2**64 - 1)), draw(_refs),
                 draw(_payloads), justification=justification)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(block=_blocks(), mutation=st.none() | st.tuples(
    st.integers(min_value=0), st.integers(1, 255)))
def test_codec_round_trips_valid_and_mutated_bytes(block, mutation):
    # A valid encoding, or one byte of it flipped, either fails to decode
    # with ``EncodingError`` or decodes to a block that re-encodes to
    # exactly those bytes: decoding normalizes no field.
    data = encode_block(block)
    if mutation is not None:
        at, flip = mutation[0] % len(data), mutation[1]
        data = data[:at] + bytes([data[at] ^ flip]) + data[at + 1:]
    try:
        decoded = decode_block(data)
    except EncodingError:
        assert mutation is not None
        return
    assert encode_block(decoded) == data
    for embedded in (decoded.justification.new_view_blocks
                     if decoded.justification else ()):
        assert encode_block(embedded) == embedded.encoded
