"""Causal block store.

Blocks are delivered only once their full referenced ancestry is delivered;
anything early is buffered and cascades out when the missing pieces arrive.
On top of the store sits the deterministic traversal that linearizes
everything a committed backbone block causally covers.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .blocks import Block, BlockRef


class UnknownBlockError(KeyError):
    pass


@dataclass
class _Pending:
    block: Block
    missing: set[BlockRef]


class DagStore:
    def __init__(self) -> None:
        self.delivered: dict[BlockRef, Block] = {}
        self.pending: dict[BlockRef, _Pending] = {}
        # missing ref -> digests of pending blocks waiting on it
        self._waiters: dict[BlockRef, set[BlockRef]] = {}
        # Delivered blocks no delivered block references yet.
        self._tips: set[BlockRef] = set()

    def clone(self) -> "DagStore":
        """Snapshot for state-space exploration; shares the immutable blocks."""
        twin = object.__new__(DagStore)
        twin.delivered = dict(self.delivered)
        twin.pending = {digest: _Pending(entry.block, set(entry.missing))
                        for digest, entry in self.pending.items()}
        twin._waiters = {ref: set(waiting)
                         for ref, waiting in self._waiters.items()}
        twin._tips = set(self._tips)
        return twin

    def __contains__(self, ref: BlockRef) -> bool:
        return ref in self.delivered

    def holds(self, ref: BlockRef) -> bool:
        """Delivered or pending: ``insert`` would ignore this block."""
        return ref in self.delivered or ref in self.pending

    def get(self, ref: BlockRef) -> Block:
        try:
            return self.delivered[ref]
        except KeyError:
            raise UnknownBlockError(ref.hex()) from None

    def tips(self) -> list[BlockRef]:
        """Delivered blocks not referenced by any delivered block, sorted."""
        return sorted(self._tips)

    def insert(self, block: Block) -> list[Block]:
        """Store a block; return whatever became deliverable, in causal order."""
        digest = block.digest
        if self.holds(digest):
            return []
        if digest in block.refs:
            raise ValueError("block references its own digest")
        missing = {r for r in block.refs if r not in self.delivered}
        if missing:
            self.pending[digest] = _Pending(block, missing)
            for ref in missing:
                self._waiters.setdefault(ref, set()).add(digest)
            return []
        newly = [block]
        self._deliver(block)
        queue = deque([digest])
        while queue:
            arrived = queue.popleft()
            for waiter in sorted(self._waiters.pop(arrived, ())):
                entry = self.pending[waiter]
                entry.missing.discard(arrived)
                if not entry.missing:
                    del self.pending[waiter]
                    self._deliver(entry.block)
                    newly.append(entry.block)
                    queue.append(waiter)
        return newly

    def _deliver(self, block: Block) -> None:
        # Causal delivery makes this exact: the block's refs are already
        # delivered, and no block delivered before it can reference it.
        self.delivered[block.digest] = block
        self._tips.difference_update(block.refs)
        self._tips.add(block.digest)

    def order_under(self, backbone: BlockRef,
                    already_committed: set[BlockRef]) -> list[BlockRef]:
        """Total order of the backbone's uncommitted ancestry.

        Topological over causal references, ties broken by ascending
        (view, author, digest); the backbone block itself comes last.
        Identical stores, backbone and committed set give identical output
        on every node.

        ``already_committed`` must be downward-closed: every ancestor of a
        member is a member.  A node's committed set, genesis plus a union of
        full ancestry closures, is; so the walk stops at committed refs and
        costs only the uncommitted part of the history.
        """
        members = {backbone: self.get(backbone)}
        if backbone in already_committed:
            return []
        stack = [backbone]
        while stack:
            for ref in members[stack.pop()].refs:
                if ref not in members and ref not in already_committed:
                    members[ref] = self.delivered[ref]
                    stack.append(ref)
        indegree = {ref: 0 for ref in members}
        children: dict[BlockRef, list[BlockRef]] = {ref: [] for ref in members}
        for ref, block in members.items():
            for parent in block.refs:
                if parent in members:
                    indegree[ref] += 1
                    children[parent].append(ref)
        heap = [(block.view, block.author, ref)
                for ref, block in members.items() if indegree[ref] == 0]
        heapq.heapify(heap)
        out: list[BlockRef] = []
        while heap:
            ref = heapq.heappop(heap)[2]
            out.append(ref)
            for child in children[ref]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    block = members[child]
                    heapq.heappush(heap, (block.view, block.author, child))
        assert len(out) == len(members) and out[-1] == backbone
        return out
