"""Causal block store.

Blocks are delivered only once their full referenced ancestry is delivered;
anything early is buffered and cascades out when the missing pieces arrive.
On top of the store sits the deterministic traversal that linearizes
everything a committed backbone block causally covers.

``commit`` hands the committed blocks back and drops their bodies; their
digests stay in ``committed``, which counts as delivered.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import filterfalse

from .blocks import Block, BlockRef


class UnknownBlockError(KeyError):
    pass


class DagStore:
    def __init__(self) -> None:
        self.delivered: dict[BlockRef, Block] = {}
        # Every committed digest: downward-closed, as ``order_under`` needs.
        self.committed: set[BlockRef] = set()
        # Blocks waiting for their ancestry.  These values are immutable and
        # a write replaces them, so ``clone`` copies each dict flat.
        self.pending: dict[BlockRef, Block] = {}
        # pending digest -> how many of its distinct refs are not delivered
        self._missing: dict[BlockRef, int] = {}
        # missing ref -> digests of pending blocks waiting on it
        self._waiters: dict[BlockRef, tuple[BlockRef, ...]] = {}
        # Uncommitted delivered blocks no delivered block references yet.
        self._tips: set[BlockRef] = set()

    def clone(self) -> "DagStore":
        """Snapshot for state-space exploration; shares the immutable blocks."""
        twin = object.__new__(DagStore)
        twin.delivered = dict(self.delivered)
        twin.committed = set(self.committed)
        twin.pending = dict(self.pending)
        twin._missing = dict(self._missing)
        twin._waiters = dict(self._waiters)
        twin._tips = set(self._tips)
        return twin

    def __contains__(self, ref: BlockRef) -> bool:
        """Delivered, committed included."""
        return ref in self.delivered or ref in self.committed

    def holds(self, ref: BlockRef) -> bool:
        """Delivered or pending: ``insert`` would ignore this block."""
        return (ref in self.delivered or ref in self.pending
                or ref in self.committed)

    def get(self, ref: BlockRef) -> Block:
        """A delivered block not yet committed: ``commit`` drops bodies."""
        try:
            return self.delivered[ref]
        except KeyError:
            raise UnknownBlockError(ref.hex()) from None

    def tips(self) -> list[BlockRef]:
        """Uncommitted delivered blocks no delivered block names, sorted."""
        return sorted(self._tips)

    def insert(self, block: Block) -> list[Block]:
        """Store a block; return whatever became deliverable, in causal order."""
        digest = block.digest
        if self.holds(digest):
            return []
        if digest in block.refs:
            raise ValueError("block references its own digest")
        missing = set(filterfalse(self.delivered.__contains__, block.refs))
        if missing:
            # A ref not yet delivered, or a committed one.
            missing = missing.difference(self.committed)
        if missing:
            self.pending[digest] = block
            self._missing[digest] = len(missing)
            for ref in missing:
                self._waiters[ref] = (*self._waiters.get(ref, ()), digest)
            return []
        newly = [block]
        self._deliver(block)
        queue = deque([digest])
        while queue:
            arrived = queue.popleft()
            for waiter in sorted(self._waiters.pop(arrived, ())):
                # Count down: re-checking ``refs`` against ``delivered`` would
                # deliver a waiter twice if its other ref came in this cascade.
                left = self._missing.pop(waiter) - 1
                if left:
                    self._missing[waiter] = left
                else:
                    held = self.pending.pop(waiter)
                    self._deliver(held)
                    newly.append(held)
                    queue.append(waiter)
        return newly

    def _deliver(self, block: Block) -> None:
        # Causal delivery makes this exact: the block's refs are already
        # delivered, and no block delivered before it can reference it.
        self.delivered[block.digest] = block
        self._tips.difference_update(block.refs)
        self._tips.add(block.digest)

    def commit(self, backbone: BlockRef) -> list[Block]:
        """Commit the backbone's uncommitted ancestry, drop its bodies and
        tips, and return its blocks, in ``order_under`` order.  ``committed``
        keeps each block's own digest, the one the caller's log holds."""
        added = self.order_under(backbone, self.committed)
        blocks = list(map(self.delivered.pop, added))
        self.committed.update([block.digest for block in blocks])
        self._tips.difference_update(added)
        return blocks

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
        if backbone in already_committed:
            return []
        members = {backbone: self.get(backbone)}
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
