"""Reference work that does not use the program: it gauges how fast the
machine runs Python at the moment a repetition ran.

    python3 perfbench/reference.py

A small discrete-event simulation over plain Python objects — a heap of
timed messages, sha256 digests, sets, tuples and lists, the operations the
simulator and the explorer spend their time on.  It prints one JSON line:
its time in seconds and a checksum of what it computed.  It imports nothing
from ``bbca_chain``, and runs in a process of its own, so that no change to
the program can change its time.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time

NODES = 8
FANOUT = 3
EVENTS = 100_000


class Node:
    __slots__ = ("ident", "seen", "log")

    def __init__(self, ident: int):
        self.ident = ident
        self.seen: set[bytes] = set()
        self.log: list[tuple[int, bytes]] = []

    def handle(self, tick: int, msg: bytes) -> list[tuple[int, int, bytes]]:
        key = hashlib.sha256(msg).digest()
        if key in self.seen:
            return []
        self.seen.add(key)
        self.log.append((tick, key[:4]))
        sends = []
        for peer in range(NODES):
            if peer != self.ident and len(sends) < FANOUT:
                delay = 1 + (key[0] + peer) % 7
                sends.append((tick + delay, peer,
                              key[:16] + bytes((peer, self.ident))))
        return sends


def reference() -> str:
    nodes = [Node(i) for i in range(NODES)]
    heap = [(0, i, i, bytes((i,))) for i in range(NODES)]
    seq = NODES
    for done in range(EVENTS):
        if not heap:
            heap = [(tick + 1, seq + i, i, bytes((i, done % 251)))
                    for i in range(NODES)]
            seq += NODES
        tick, _, dst, msg = heapq.heappop(heap)
        for when, peer, out in nodes[dst].handle(tick, msg):
            seq += 1
            heapq.heappush(heap, (when, seq, peer, out))
    digest = hashlib.sha256()
    for node in nodes:
        digest.update(b"".join(key for _, key in node.log))
    return digest.hexdigest()


def main() -> None:
    started = time.perf_counter()
    checksum = reference()
    seconds = time.perf_counter() - started
    print(json.dumps({"seconds": seconds, "checksum": checksum}))


if __name__ == "__main__":
    main()
