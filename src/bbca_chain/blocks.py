"""DAG block types, certificates and their canonical encodings.

Three block kinds share one class: backbone blocks (leader proposals carrying
a justification for what happened in the previous view), new-view blocks
(one per node per concluded view, carrying a complete certificate, an adopt
certificate, or a signed noadopt plus the author's highest certified block),
and data blocks (payload only).

A backbone block carries its justifying new-view blocks *by value* in
addition to referencing them by digest, so its validity predicate can be
evaluated from the block bytes alone, before the local DAG catches up.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import NamedTuple

from .encoding import (
    EncodingError,
    Reader,
    digest32,
    echo_statement,
    lp,
    ready_statement,
    u8,
    u32,
)
from .identity import NodeId, Signature, SystemParams, statement_digest

BlockRef = bytes  # 32-byte digest of the canonical block encoding

_MAX_ITEMS = 4096  # decode guard; scenarios stay far below this


class BlockKind(enum.IntEnum):
    BACKBONE = 1
    NEW_VIEW = 2
    DATA = 3


class CertKind(enum.IntEnum):
    ADOPT = 1     # 2f+1 echo-statement signatures
    COMPLETE = 2  # 2f+1 ready-statement signatures


class EvidenceKind(enum.IntEnum):
    """How a view ended; a backbone block's justification names the evidence
    for the previous view.  GENESIS justifies only the genesis block."""

    GENESIS = 0
    COMPLETE = 1
    ADOPT = 2
    NOADOPT = 3


class Cert(NamedTuple):
    """Quorum of signatures binding a broadcast instance to a block digest."""

    kind: CertKind
    sender: NodeId
    view: int
    block_digest: BlockRef
    sigs: tuple[Signature, ...]

    def statement(self) -> bytes:
        if self.kind == CertKind.ADOPT:
            return echo_statement(self.sender, self.view, self.block_digest)
        return ready_statement(self.sender, self.view, self.block_digest)


class NewViewData(NamedTuple):
    """Evidence part of a new-view block.

    For COMPLETE/ADOPT the cert certifies the backbone block of the concluded
    view.  For NOADOPT, ``noadopt_sig`` signs the noadopt statement and the
    cert is the *anchor*: the highest backbone block for which the author
    holds a complete or adopt certificate (genesis at worst).
    """

    evidence: EvidenceKind
    cert: Cert
    noadopt_sig: Signature | None = None


class Justification(NamedTuple):
    """What a backbone block claims about the previous view."""

    kind: EvidenceKind
    new_view_blocks: tuple["Block", ...] = ()


class _cached:
    """``functools.cached_property`` without its per-access lock (3.11)."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Block:
    """One DAG block of any kind, identified by its canonical encoding.

    A dataclass, not a named tuple: the adversary and the tests derive
    variants with ``dataclasses.replace``, and ``_cached`` keeps the
    encoding and digest in the instance ``__dict__``.
    """

    kind: BlockKind
    author: NodeId
    view: int
    refs: tuple[BlockRef, ...]
    payload: bytes = b""
    justification: Justification | None = None  # BACKBONE only
    new_view: NewViewData | None = None         # NEW_VIEW only

    @_cached
    def encoded(self) -> bytes:
        return encode_block(self)

    @_cached
    def digest(self) -> BlockRef:
        return digest32(self.encoded)

    # A block is identified by its canonical encoding: equality and hashing
    # compare digests, never walking the nested justification or evidence.
    def __eq__(self, other) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self is other or self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:  # compact, digest-first, for traces and asserts
        return block_repr(self.kind, self.view, self.author, self.digest)


def block_repr(kind: BlockKind, view: int, author: NodeId,
               digest: BlockRef) -> str:
    """A block's repr, from what a node keeps of it once committed."""
    return f"Block({kind.name} v={view} a={author} {digest.hex()[:12]})"


# -- construction -----------------------------------------------------------

def _canonical_refs(refs) -> tuple[BlockRef, ...]:
    return tuple(sorted(set(refs)))


def make_backbone(author: NodeId, view: int, justification: Justification,
                  extra_refs=(), payload: bytes = b"") -> Block:
    refs = set(extra_refs)
    refs.update(b.digest for b in justification.new_view_blocks)
    return Block(BlockKind.BACKBONE, author, view, _canonical_refs(refs),
                 payload, justification=justification)


def make_new_view(author: NodeId, view: int, data: NewViewData,
                  extra_refs=(), payload: bytes = b"") -> Block:
    refs = set(extra_refs)
    refs.add(data.cert.block_digest)
    return Block(BlockKind.NEW_VIEW, author, view, _canonical_refs(refs),
                 payload, new_view=data)


def make_data(author: NodeId, view: int, refs, payload: bytes) -> Block:
    return Block(BlockKind.DATA, author, view, _canonical_refs(refs), payload)


# -- certificate verification ------------------------------------------------

def verify_cert(cert: Cert, params: SystemParams,
                kind: CertKind | None = None) -> bool:
    """Signature-math check: quorum of distinct-signer valid signatures.

    View 0 is the genesis special case: only the exact synthetic certificate
    passes.  Whether ``cert.sender`` is the right proposer for ``cert.view``
    is a protocol-level check layered on top.
    """
    if kind is not None and cert.kind != kind:
        return False
    if cert.view == 0:
        return (cert.sender == 0 and cert.block_digest == GENESIS_REF
                and cert.sigs == ())
    if len(cert.sigs) != params.quorum:
        return False
    signers = {sig.signer for sig in cert.sigs}
    if len(signers) != params.quorum:
        return False
    if not all(0 <= s < params.n for s in signers):
        return False
    # ``identity.verify`` of each signature, the statement digested once.
    digest = statement_digest(cert.statement())
    return all(sig.digest == digest for sig in cert.sigs)


# -- canonical encoding ------------------------------------------------------

def _encode_sig(sig: Signature) -> bytes:
    return u32(sig.signer) + sig.digest


# Fixed-width heads: a certificate's (kind, sender, view) and a block's
# (kind, author, view, ref count).
_CERT_HEAD = struct.Struct(">BIQ")
_BLOCK_HEAD = struct.Struct(">BIQI")


def _encode_cert(cert: Cert) -> bytes:
    out = [_CERT_HEAD.pack(cert.kind, cert.sender, cert.view),
           cert.block_digest, u32(len(cert.sigs))]
    out.extend(map(_encode_sig, cert.sigs))
    return b"".join(out)


def encode_block(block: Block) -> bytes:
    out = [_BLOCK_HEAD.pack(block.kind, block.author, block.view,
                            len(block.refs))]
    out.extend(block.refs)
    if block.kind == BlockKind.BACKBONE:
        just = block.justification
        if just is None:
            raise EncodingError("backbone block without justification")
        out.append(u8(just.kind))
        out.append(u32(len(just.new_view_blocks)))
        out.extend(lp(b.encoded) for b in just.new_view_blocks)
    elif block.kind == BlockKind.NEW_VIEW:
        data = block.new_view
        if data is None:
            raise EncodingError("new-view block without evidence")
        out.append(u8(data.evidence))
        out.append(_encode_cert(data.cert))
        if data.evidence == EvidenceKind.NOADOPT:
            if data.noadopt_sig is None:
                raise EncodingError("noadopt evidence without signature")
            out.append(_encode_sig(data.noadopt_sig))
    out.append(lp(block.payload))
    return b"".join(out)


def _decode_sig(r: Reader) -> Signature:
    return Signature(r.u32(), r.take(8))


def _decode_cert(r: Reader) -> Cert:
    try:
        kind = CertKind(r.u8())
    except ValueError as exc:
        raise EncodingError("bad cert kind") from exc
    sender, view, digest = r.u32(), r.u64(), r.take(32)
    nsigs = r.u32()
    if nsigs > _MAX_ITEMS:
        raise EncodingError("too many signatures")
    sigs = tuple(_decode_sig(r) for _ in range(nsigs))
    return Cert(kind, sender, view, digest, sigs)


def _decode_body(r: Reader) -> Block:
    try:
        kind = BlockKind(r.u8())
    except ValueError as exc:
        raise EncodingError("bad block kind") from exc
    author, view = r.u32(), r.u64()
    nrefs = r.u32()
    if nrefs > _MAX_ITEMS:
        raise EncodingError("too many refs")
    refs = tuple(r.take(32) for _ in range(nrefs))
    justification = None
    new_view = None
    if kind == BlockKind.BACKBONE:
        try:
            jkind = EvidenceKind(r.u8())
        except ValueError as exc:
            raise EncodingError("bad justification kind") from exc
        count = r.u32()
        if count > _MAX_ITEMS:
            raise EncodingError("too many justification blocks")
        nvbs = []
        for _ in range(count):
            raw = r.lp()
            inner = Reader(raw)
            nvb = _decode_body(inner)
            inner.done()
            nvb.__dict__["encoded"] = raw
            if nvb.kind != BlockKind.NEW_VIEW:
                raise EncodingError("justification holds a non new-view block")
            nvbs.append(nvb)
        justification = Justification(jkind, tuple(nvbs))
    elif kind == BlockKind.NEW_VIEW:
        evidence = r.u8()
        if not EvidenceKind.COMPLETE <= evidence <= EvidenceKind.NOADOPT:
            raise EncodingError("bad evidence kind")  # GENESIS included
        evidence = EvidenceKind(evidence)
        cert = _decode_cert(r)
        sig = _decode_sig(r) if evidence == EvidenceKind.NOADOPT else None
        new_view = NewViewData(evidence, cert, sig)
    payload = r.lp()
    return Block(kind, author, view, refs, payload,
                 justification=justification, new_view=new_view)


def decode_block(data: bytes) -> Block:
    # Callers decode through the run's memo: identical proposal bytes arrive
    # once per broadcast leg.  Blocks are immutable, so sharing is safe.
    r = Reader(data)
    block = _decode_body(r)
    r.done()
    # Decoding normalizes no field, so the input is the block's encoding;
    # keeping it spares ``digest`` a re-encode.
    block.__dict__["encoded"] = data
    return block


# -- genesis ----------------------------------------------------------------

GENESIS_BLOCK = Block(BlockKind.BACKBONE, 0, 0, (), b"",
                      justification=Justification(EvidenceKind.GENESIS))
GENESIS_REF = GENESIS_BLOCK.digest
# Synthetic zero-signature certificate; accepted as a well-known constant.
GENESIS_CERT = Cert(CertKind.COMPLETE, 0, 0, GENESIS_REF, ())
GENESIS_NEW_VIEW = Block(
    BlockKind.NEW_VIEW, 0, 0, (GENESIS_REF,), b"",
    new_view=NewViewData(EvidenceKind.COMPLETE, GENESIS_CERT))
