"""Node identities, quorum arithmetic and a deterministic mock signature scheme.

Nodes are plain integers in ``[0, n)``.  Signatures are (signer, statement
digest) pairs: good enough against a schedule-level adversary that may replay
messages but never runs code that signs on behalf of a correct node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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

    # Cached outside the dataclass fields, so equality, hashing and repr
    # still see only ``n``.
    @cached_property
    def f(self) -> int:
        return (self.n - 1) // 3

    @cached_property
    def quorum(self) -> int:
        # n - f, not 2f + 1: identical when n = 3f + 1, but still safe
        # (two quorums intersect in >= f + 1 nodes) when 3 does not divide n - 1.
        return self.n - self.f


@lru_cache(maxsize=64)
def params_for(n: int) -> SystemParams:
    """The one shared ``SystemParams`` of size ``n``.

    Every node of a run holds this instance, so the validation caches keyed
    on ``(block, params)`` match it by identity instead of comparing fields.
    """
    return SystemParams(n)


@lru_cache(maxsize=4096)
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
