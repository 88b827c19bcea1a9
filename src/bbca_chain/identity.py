"""Node identities, quorum arithmetic and a deterministic mock signature scheme.

Nodes are plain integers in ``[0, n)``.  Signatures are (signer, statement
digest) pairs: good enough against a schedule-level adversary that may replay
messages but never runs code that signs on behalf of a correct node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

NodeId = int


class ConfigError(ValueError):
    """Raised for invalid system parameters or scenario configuration."""


@dataclass(frozen=True)
class SystemParams:
    """System size ``n`` with the derived fault budget ``f``."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigError(f"need at least 4 nodes, got n={self.n}")

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        # n - f, not 2f + 1: identical when n = 3f + 1, but still safe
        # (two quorums intersect in >= f + 1 nodes) when 3 does not divide n - 1.
        return self.n - self.f


def statement_digest(statement: bytes) -> bytes:
    """64-bit digest that stands in for the signed content of a statement."""
    return hashlib.blake2b(statement, digest_size=8).digest()


@dataclass(frozen=True)
class Signature:
    signer: NodeId
    digest: bytes


def sign(node: NodeId, statement: bytes) -> Signature:
    return Signature(node, statement_digest(statement))


def verify(sig: Signature, statement: bytes, signer: NodeId) -> bool:
    return sig.signer == signer and sig.digest == statement_digest(statement)
