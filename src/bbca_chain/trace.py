"""What one simulator run records: the hashed trace lines and the packed
tables that the post-run checks and the latency figures read.

The trace lines are hashed as the run records them (``Trace``).  Beside
them the run keeps two tables whose size grows with the run, each packed
so that a block or a view costs a few bytes and no Python container:

- ``BlockTicks``: per block, the tick it entered the net and each node's
  commit tick, one packed row per block, reached through one dict;
- ``ViewLog``: per node, each view it entered with the tick and the cause,
  in view order.

Only this module packs or unpacks a row.  The simulator reports what
happened through four ``Trace`` methods, which write the rows and the
matching records: ``entered`` (a view entry), ``sent`` (blocks entering
the net), ``committed`` and ``probed``.  ``Trace.commit_ticks``,
``Trace.send_ticks`` and each ``ViewLog`` read the rows, building one
small value per lookup and never a whole table.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import compress
from operator import attrgetter, itemgetter
from struct import Struct
from typing import Iterator

from .bbca import ECHO, BbcaMsg, InstanceId, MsgKind
from .blocks import Block, BlockRef
from .chain import CERT_DRIVEN_CAUSES, NOADOPT_CAUSE, WireMsg
from .encoding import digest32
from .identity import NodeId

# The simulator hashes the waiting trace records once this many have
# gathered, so ``Trace.records`` never holds much more than one chunk.
_DIGEST_CHUNK_LINES = 128

TICK = Struct("=i")  # one packed tick or view
NOT_YET = -1  # the tick of something that has not happened
NOT_YET_BYTES = TICK.pack(NOT_YET)
_HAPPENED = NOT_YET.__ne__

# A view entry packs its cause as an index into CAUSES.
CAUSES = CERT_DRIVEN_CAUSES + (NOADOPT_CAUSE,)
CAUSE_CODES = {cause: code for code, cause in enumerate(CAUSES)}
ENTRY = Struct("=iB")  # (tick, cause code)

_FIRST = itemgetter(0)
_SECOND = itemgetter(1)
_DIGEST = attrgetter("digest")
_PREFIX = itemgetter(slice(6))  # the 12 hex digits a record shows


class Deliveries:
    """How many deliveries the run scheduled, which ``len()`` reads."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __len__(self) -> int:
        return self.count


class BbcaSends:
    """How often each node sent ECHO and READY per BBCA instance, for
    ``echo_once``, which reports only counts above 1.

    ``first`` maps each instance to a bit mask: bit ``2 * node + kind -
    ECHO`` is set once that node sent that kind.  ``repeats`` maps (sending
    node, ``MsgKind``, ``InstanceId``) to the total sends, for each key sent
    more than once.  An instance costs one entry whatever view it names.
    """

    __slots__ = ("first", "repeats")

    def __init__(self):
        self.first: dict[InstanceId, int] = {}
        self.repeats: dict[tuple[NodeId, MsgKind, InstanceId], int] = {}

    def add(self, frm: NodeId, kind: MsgKind, instance: InstanceId) -> None:
        bit = 1 << (2 * frm + kind - ECHO)
        mask = self.first.get(instance, 0)
        if mask & bit:
            key = (frm, kind, instance)
            self.repeats[key] = self.repeats.get(key, 1) + 1
        else:
            self.first[instance] = mask | bit

    def clear(self) -> None:
        self.first.clear()
        self.repeats.clear()


# -- packed tables --------------------------------------------------------------

class BlockTicks:
    """When each block entered the net and when each node committed it.

    ``refs`` maps a block's digest to the byte offset of its row in
    ``rows``.  A row packs ``1 + n`` ``TICK``s: the tick the block first
    entered the net, then node 0's to node ``n - 1``'s commit tick, each
    ``NOT_YET`` until it happens; a new row is ``blank``.  Rows are
    appended in the order their blocks first appear, so ``refs`` lists the
    blocks in row order.  ``Trace.sent`` and ``Trace.committed`` write
    them.
    """

    __slots__ = ("refs", "rows", "blank", "commits")

    def __init__(self, n: int):
        self.refs: dict[BlockRef, int] = {}
        self.rows = bytearray()
        self.blank = NOT_YET_BYTES * (1 + n)
        self.commits = Struct(f"={TICK.size}x{n}i")  # a row's commit ticks

    def clear(self) -> None:
        self.refs.clear()
        self.rows.clear()


class CommitTicks:
    """``BlockTicks`` read as block digest -> {node: commit tick}, for each
    block at least one node committed."""

    __slots__ = ("table",)

    def __init__(self, table: BlockTicks):
        self.table = table

    def get(self, ref: BlockRef, default=None):
        table = self.table
        at = table.refs.get(ref)
        if at is None:
            return default
        ticks = table.commits.unpack_from(table.rows, at)
        return dict(compress(enumerate(ticks), map(_HAPPENED, ticks))) \
            or default

    def items(self) -> Iterator[tuple[BlockRef, dict[NodeId, int]]]:
        table = self.table
        rows = table.commits.iter_unpack(table.rows)
        for ref, ticks in zip(table.refs, rows):
            if ticks.count(NOT_YET) < len(ticks):
                yield ref, dict(compress(enumerate(ticks),
                                         map(_HAPPENED, ticks)))


class SendTicks:
    """``BlockTicks`` read as block digest -> the tick it first entered the
    net.  A latency figure asks ``in`` and ``[]`` of each committed block."""

    __slots__ = ("table",)

    def __init__(self, table: BlockTicks):
        self.table = table

    def __contains__(self, ref) -> bool:
        at = self.table.refs.get(ref)
        return at is not None \
            and not self.table.rows.startswith(NOT_YET_BYTES, at)

    def __getitem__(self, ref: BlockRef) -> int:
        table = self.table
        at = table.refs.get(ref)
        if at is None or table.rows.startswith(NOT_YET_BYTES, at):
            raise KeyError(ref)
        return TICK.unpack_from(table.rows, at)[0]

    def items(self) -> Iterator[tuple[BlockRef, int]]:
        rows = self.table.rows
        for ref, at in self.table.refs.items():
            if not rows.startswith(NOT_YET_BYTES, at):
                yield ref, TICK.unpack_from(rows, at)[0]


class ViewLog:
    """One node's view entries as view -> (tick, cause), in view order.

    ``views`` packs each view the node entered as a ``TICK``, ascending (a
    node only moves forward); ``entries`` packs the ``ENTRY`` (tick, cause
    code) of each, in the same order.  ``Trace.entered`` appends to both.
    """

    __slots__ = ("views", "entries")

    def __init__(self):
        self.views = bytearray()
        self.entries = bytearray()

    def __getitem__(self, view: int) -> tuple[int, str]:
        entry = self.get(view)
        if entry is None:
            raise KeyError(view)
        return entry

    def get(self, view: int, default=None):
        # The native "i" is TICK's 4-byte int; the view is released before
        # the log can grow again.
        with memoryview(self.views).cast("i") as views:
            at = bisect_left(views, view)
            found = at < len(views) and views[at] == view
        if not found:
            return default
        tick, code = ENTRY.unpack_from(self.entries, at * ENTRY.size)
        return tick, CAUSES[code]

    def view_ticks(self) -> Iterator[tuple[int, int]]:
        """(view, tick) per entry, in view order."""
        return zip(map(_FIRST, TICK.iter_unpack(self.views)),
                   map(_FIRST, ENTRY.iter_unpack(self.entries)))

    def items(self) -> Iterator[tuple[int, tuple[int, str]]]:
        causes = map(CAUSES.__getitem__,
                     map(_SECOND, ENTRY.iter_unpack(self.entries)))
        return zip(map(_FIRST, TICK.iter_unpack(self.views)),
                   zip(map(_FIRST, ENTRY.iter_unpack(self.entries)), causes))


# -- the trace ------------------------------------------------------------------

class Trace:
    """Everything one simulator run recorded, in event order.

    The trace lines are hashed as the run goes: ``flush()`` formats the
    waiting ``records`` one line each into a running sha256 and empties
    the list.  ``digest()`` flushes, then adds the final ``stop`` line to a
    copy of that sha256: in hex, ``sha256("\n".join(export_lines()))``
    byte for byte, and the same however often it is called.  Only a trace
    whose ``kept`` is a list from the start can ``export_lines()``: each
    flush appends its records there.

    ``view_entries`` maps each node that entered a view to its
    ``ViewLog``; ``commit_ticks`` and ``send_ticks`` read ``block_ticks``,
    whose rows are ``n`` nodes wide.
    """

    def __init__(self, n: int = 0, kept: list[tuple] | None = None,
                 stop_reason: str = ""):
        self.n = n
        # Not yet hashed; send/deliver records end with the message object.
        self.records: list[tuple] = []
        self.kept = kept  # every flushed record, when a list
        self.view_entries: dict[NodeId, ViewLog] = {}
        self.block_ticks = BlockTicks(n)
        self.deliveries = Deliveries()
        self.bbca_sends = BbcaSends()
        # What the two online checks found as they ran: ``commit_ancestry``
        # at correct nodes, and ``delay_soundness``
        self.ancestry: list[str] = []
        self.delays: list[str] = []
        # node -> [(tick, view, adopted, ref)]
        self.probes: dict[NodeId, list[tuple]] = {}
        self.injected: list[tuple[int, NodeId, BlockRef]] = []
        self.failure: tuple[int, str] | None = None  # (event index, text)
        self.stop_reason = stop_reason
        self.events_processed = 0
        self._sha = hashlib.sha256()
        self.commit_ticks = CommitTicks(self.block_ticks)
        self.send_ticks = SendTicks(self.block_ticks)

    def record(self, *fields) -> None:
        self.records.append(fields)

    def entered(self, node: NodeId, tick: int, view: int, cause: str) -> None:
        """``node`` entered ``view`` at ``tick`` for ``cause``."""
        log = self.view_entries.get(node)
        if log is None:
            log = self.view_entries[node] = ViewLog()
        log.views += TICK.pack(view)
        log.entries += ENTRY.pack(tick, CAUSE_CODES[cause])
        self.records.append(("view", tick, node, view, cause))

    def sent(self, blocks: list[Block], tick: int) -> None:
        """``blocks`` entered the net at ``tick``; a block keeps its first
        such tick."""
        table = self.block_ticks
        refs, rows = table.refs, table.rows
        for block in blocks:
            at = refs.get(block.digest)
            if at is None:
                at = refs[block.digest] = len(rows)
                rows += table.blank
            if rows.startswith(NOT_YET_BYTES, at):
                TICK.pack_into(rows, at, tick)

    def committed(self, node: NodeId, tick: int, view: int,
                  blocks: tuple[Block, ...]) -> None:
        """``node`` committed ``blocks`` at ``tick``, finalizing ``view``."""
        table = self.block_ticks
        refs, rows = table.refs, table.rows
        column = TICK.size * (1 + node)
        for block in blocks:
            at = refs.get(block.digest)
            if at is None:
                at = refs[block.digest] = len(rows)
                rows += table.blank
            TICK.pack_into(rows, at + column, tick)
        self.records.append((
            "commit", tick, node, view,
            ",".join(map(bytes.hex, map(_PREFIX, map(_DIGEST, blocks))))))

    def probed(self, node: NodeId, tick: int, view: int, adopted: bool,
               ref: BlockRef | None) -> None:
        """``node`` probed ``view``'s broadcast at ``tick``."""
        self.probes.setdefault(node, []).append((tick, view, adopted, ref))
        self.records.append(("probe", tick, node, view, adopted))

    def flush(self) -> None:
        """Hash the waiting records, one line each, and empty ``records``."""
        records = self.records
        if records:
            if self.kept is not None:
                self.kept.extend(records)
            self._sha.update("\n".join(_lines(records)).encode())
            self._sha.update(b"\n")
            records.clear()

    def export_lines(self) -> list[str]:
        if self.kept is None:
            raise ValueError("export_lines() needs a trace whose kept is a "
                             "list before the first record")
        self.flush()
        return [*_lines(self.kept), f"stop {self.stop_reason}"]

    def digest(self) -> str:
        self.flush()
        sha = self._sha.copy()
        sha.update(f"stop {self.stop_reason}".encode())
        return sha.hexdigest()


def _lines(records: list[tuple]) -> Iterator[str]:
    # id(msg) -> text and id(msg.message) -> digest text, for this pass
    # only: the records hold their messages, so no id is reused while the
    # memo lives.  A message is sent once and delivered n times within a few
    # ticks, so most repeats fall in one pass.
    described: dict[int, str] = {}
    for record in records:
        kind = record[0]
        if kind == "send" or kind == "deliver":
            msg = record[-1]
            text = described.get(id(msg))
            if text is None:
                text = described[id(msg)] = _describe(msg, described)
            # Byte-identical to the generic join below with the text in
            # place of msg; kept for +15% campaign_byz runs/s (seed 5).
            if kind == "send":
                yield f"send {record[1]} {record[2]} {text}"
            else:
                yield f"deliver {record[1]} {record[2]} {record[3]} {text}"
        else:
            yield " ".join(map(str, record))


def _describe(msg: WireMsg, described: dict[int, str]) -> str:
    if isinstance(msg, BbcaMsg):
        # A proposal's messages share its bytes object: digested once a pass.
        message = msg.message
        digest = described.get(id(message))
        if digest is None:
            digest = described[id(message)] = digest32(message).hex()[:12]
        return (f"{msg.kind.name} s{msg.instance.sender} v{msg.instance.view} "
                f"{digest}")
    return (f"BLOCK {msg.block.kind.name} v{msg.block.view} "
            f"a{msg.block.author} {msg.block.digest.hex()[:12]}")
