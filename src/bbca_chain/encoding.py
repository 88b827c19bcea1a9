"""Canonical byte encodings.

Everything that gets digested or signed goes through this module so that
digests and signature statements are bit-exact across nodes and runs:
fixed-width big-endian integers, length-prefixed byte strings, 32-byte
block digests.
"""

from __future__ import annotations

import hashlib
import struct


class EncodingError(ValueError):
    """Raised when decoding malformed bytes."""


# Fixed-width big-endian integers, packed in C.
u8 = struct.Struct(">B").pack
u32 = struct.Struct(">I").pack
u64 = struct.Struct(">Q").pack


def lp(data: bytes) -> bytes:
    """Length-prefixed bytes: u32 length followed by the raw bytes."""
    return u32(len(data)) + data


def digest32(data: bytes) -> bytes:
    """Block reference digest: 32-byte BLAKE2b over a canonical encoding."""
    return hashlib.blake2b(data, digest_size=32).digest()


class Reader:
    """Strict sequential reader; any overrun or trailing garbage is an error."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise EncodingError("truncated input")
        out = self._data[self._pos:self._pos + count]
        self._pos += count
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def lp(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self._pos != len(self._data):
            raise EncodingError("trailing bytes after decode")


# Signed statements.  ECHO and READY statements bind a broadcast instance
# (sender, view) to the digest of the message; NOADOPT binds only the view.

def echo_statement(sender: int, view: int, message_digest: bytes) -> bytes:
    return lp(b"ECHO") + u32(sender) + u64(view) + lp(message_digest)


def ready_statement(sender: int, view: int, message_digest: bytes) -> bytes:
    return lp(b"READY") + u32(sender) + u64(view) + lp(message_digest)


def noadopt_statement(view: int) -> bytes:
    return lp(b"NOADOPT") + u64(view)
