"""Columnar ground-truth recording: the :class:`TraceBuffer` family.

The engine used to record one :class:`~repro.simulator.events.Segment`
dataclass per timeline event plus four dict-of-tuple per-vertex aggregates,
all updated inside the simulation hot loop.  At 256+ ranks that Python
object churn dominated simulation time.  The TraceBuffer replaces it with a
struct-of-arrays layout, and — since the communication ground truth pays
the same object tax — the buffer also owns two sibling record tables:

* :class:`P2PTable` — one row per matched point-to-point message
  (``TraceBuffer.p2p``), int64 identity columns + float64 timestamp
  columns, with in-place completion updates for the irecv/wait protocol,
* :class:`CollectiveTable` — one row per completed collective instance
  (``TraceBuffer.collectives``), fixed int64 columns plus ragged per-rank
  participant data stored as offset-indexed flat arrays.

Both tables append via C-level flat-list extends in the engine hot path,
seal into ndarray chunks at :data:`CHUNK_EVENTS` boundaries, and serialize
alongside the event columns in :meth:`TraceBuffer.to_doc`.  Consumers read
them as named column arrays (:meth:`P2PTable.columns`) or as lazy
:class:`~repro.simulator.events.P2PRecord` /
:class:`~repro.simulator.events.CollectiveRecord` row views
(:meth:`P2PTable.records`), mirroring how ``SimulationResult.segments``
wraps the event table.

**Layout.**  One logical *event table* with seven float64 columns::

    column  meaning
    ------  --------------------------------------------------------------
    rank    rank the span executed on
    vid     PSG vertex id the span is attributed to
    kind    SegmentKind (0 = COMPUTE, 1 = MPI)
    start   span start, simulated seconds
    end     span end, simulated seconds
    wait    portion of the span spent waiting on other ranks (MPI only)
    op      MpiOp code (index into MPI_OP_CODES; -1 = no MPI op)

and one *counter table* with six columns (``rank, vid, tot_ins, tot_cyc,
tot_lst_ins, l2_dcm``), appended only for spans that carry simulated PMU
counters (compute spans).  Integral columns are stored as float64 too —
ranks, vids and op codes are far below 2**53, so the round trip is exact
and appends stay a single flat-list extend.

**Write path.**  ``append()`` extends a flat pending list (one C-level
``list.__iadd__`` per event — no per-event objects, no dict updates).  When
the pending list reaches one chunk (:data:`CHUNK_EVENTS` events) it is
sealed into a ``(n, 7)`` float64 ndarray.  With ``keep_events=False`` the
buffer behaves as a bounded ring: each sealed chunk is folded into the
running per-vertex aggregates in event order and then dropped, so memory
stays O(chunk + vertices) no matter how long the run is.

**Read path.**  Everything downstream is a lazy view over the columns:

* :meth:`segments` — a sequence view materializing ``Segment`` objects on
  demand (keeps every pre-TraceBuffer caller working unchanged),
* :meth:`vertex_time` / :meth:`vertex_wait` / :meth:`vertex_visits` /
  :meth:`vertex_counters` — per-``(rank, vid)`` aggregate dicts computed in
  one vectorized pass (``np.bincount`` accumulates weights in occurrence
  order, so the sums are bit-identical to the old streaming dict updates),
* :meth:`columns` — the raw column arrays for vectorized consumers
  (sampling, timelines, serialization).

``to_doc()`` / ``from_doc()`` round-trip the columns through base64-packed
little-endian float64 — the compact form profiles use when ground truth is
persisted through the Session artifact cache.
"""

from __future__ import annotations

import base64
from collections.abc import Iterator

import numpy as np

from repro.minilang.ast_nodes import MpiOp
from repro.simulator.costmodel import PerfCounters
from repro.simulator.events import CollectiveRecord, P2PRecord, Segment, SegmentKind

__all__ = [
    "CHUNK_EVENTS",
    "MPI_OP_CODES",
    "MPI_CODE_TO_OP",
    "WILDCARD_CODE",
    "mpi_op_code",
    "TraceBuffer",
    "SegmentsView",
    "P2PTable",
    "P2PRecordsView",
    "CollectiveTable",
    "CollectiveRecordsView",
]

#: Events per sealed chunk (the ring granularity with ``keep_events=False``).
CHUNK_EVENTS = 1 << 15

#: Stable op <-> code mapping (declaration order of :class:`MpiOp`).
MPI_OP_CODES: dict[MpiOp, int] = {op: i for i, op in enumerate(MpiOp)}
#: The inverse mapping, indexable by op code (for column consumers).
MPI_CODE_TO_OP: tuple[MpiOp, ...] = tuple(MpiOp)
_CODE_TO_OP: tuple[MpiOp, ...] = MPI_CODE_TO_OP

#: Sentinel stored in the ``declared_src`` / ``declared_tag`` columns of the
#: :class:`P2PTable` for a wildcard (``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG``)
#: receive — i.e. the column encoding of ``P2PRecord.declared_src is None``.
#: Far outside any realistic rank or tag space.
WILDCARD_CODE = -(1 << 62)

_EVENT_STRIDE = 7
_COUNTER_STRIDE = 6


def mpi_op_code(op: MpiOp | None) -> int:
    """The integer code stored in the ``op`` column (-1 for None)."""
    return -1 if op is None else MPI_OP_CODES[op]


def _op_from_code(code: int) -> MpiOp | None:
    return None if code < 0 else _CODE_TO_OP[code]


class SegmentsView:
    """Lazy sequence of :class:`Segment` objects over a TraceBuffer.

    Materializes one ``Segment`` per access/iteration step; supports
    ``len``, indexing, slicing, iteration and equality against any other
    sequence of segments (``result.segments == []`` keeps working).
    """

    __slots__ = ("_buf",)

    def __init__(self, buf: "TraceBuffer") -> None:
        self._buf = buf

    def __len__(self) -> int:
        return self._buf.event_count if self._buf.keep_events else 0

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not (0 <= index < n):
            raise IndexError("segment index out of range")
        return self._buf.segment(index)

    def __iter__(self) -> Iterator[Segment]:
        if not self._buf.keep_events:
            return
        cols = self._buf.columns()
        for rank, vid, kind, start, end, wait, op in zip(
            cols["rank"], cols["vid"], cols["kind"],
            cols["start"], cols["end"], cols["wait"], cols["op"],
        ):
            yield Segment(
                rank=int(rank),
                vid=int(vid),
                kind=SegmentKind(int(kind)),
                start=float(start),
                end=float(end),
                wait=float(wait),
                mpi_op=_op_from_code(int(op)),
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SegmentsView) and other._buf is self._buf:
            return True
        try:
            if len(other) != len(self):  # type: ignore[arg-type]
                return False
            return all(a == b for a, b in zip(self, other))  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SegmentsView({len(self)} segments)"


def _pack_matrix(matrix: np.ndarray, dtype: str) -> str:
    return base64.b64encode(
        np.ascontiguousarray(matrix, dtype=dtype).tobytes()
    ).decode("ascii")


def _unpack_matrix(data: str, dtype: str, stride: int) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(data), dtype=dtype)
    if stride > 1:
        raw = raw.reshape(-1, stride)
    return raw.astype(dtype.lstrip("<"))


class _RecordsView:
    """Lazy sequence base: materializes one record per access/iteration.

    Shared by :class:`P2PRecordsView` and :class:`CollectiveRecordsView`;
    supports ``len``, indexing, slicing, iteration and equality against any
    other sequence of records, like :class:`SegmentsView` does for
    segments.
    """

    __slots__ = ("_table",)

    def __init__(self, table) -> None:
        self._table = table

    def __len__(self) -> int:
        return self._table.row_count

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not (0 <= index < n):
            raise IndexError("record index out of range")
        return self._table.row(index)

    def __iter__(self):
        for i in range(len(self)):
            yield self._table.row(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RecordsView) and other._table is self._table:
            return True
        try:
            if len(other) != len(self):  # type: ignore[arg-type]
                return False
            return all(a == b for a, b in zip(self, other))  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} records)"


class P2PRecordsView(_RecordsView):
    """Lazy sequence of :class:`P2PRecord` objects over a :class:`P2PTable`."""

    __slots__ = ()


class CollectiveRecordsView(_RecordsView):
    """Lazy :class:`CollectiveRecord` sequence over a :class:`CollectiveTable`."""

    __slots__ = ()


class P2PTable:
    """Struct-of-arrays storage of one run's matched point-to-point messages.

    Nine int64 columns (``send_rank, send_vid, recv_rank, recv_vid,
    wait_vid, tag, nbytes, declared_src, declared_tag`` — the last two use
    :data:`WILDCARD_CODE` for wildcard receives) and five float64 columns
    (``send_time, arrival, recv_post, completion, wait_time``).  Appends
    are O(1) flat-list extends; rows seal into ndarray chunks at
    :data:`CHUNK_EVENTS` rows.  :meth:`set_wait` updates a previously
    appended row in place — the irecv protocol appends the row at match
    time with ``completion = NaN`` and fills completion/wait at the
    MPI_Wait/MPI_Waitall that observes it, exactly as the historical
    mutable ``P2PRecord`` objects did.
    """

    INT_COLUMNS = (
        "send_rank", "send_vid", "recv_rank", "recv_vid", "wait_vid",
        "tag", "nbytes", "declared_src", "declared_tag",
    )
    FLOAT_COLUMNS = ("send_time", "arrival", "recv_post", "completion", "wait_time")

    _ISTRIDE = len(INT_COLUMNS)
    _FSTRIDE = len(FLOAT_COLUMNS)

    __slots__ = (
        "_ipending", "_fpending", "_ichunks", "_fchunks", "_chunk_rows",
        "_sealed_rows", "_count", "_cols", "_cols_count",
    )

    def __init__(self) -> None:
        self._ipending: list[int] = []
        self._fpending: list[float] = []
        self._ichunks: list[np.ndarray] = []
        self._fchunks: list[np.ndarray] = []
        #: first row index of each sealed chunk (parallel to the chunk lists)
        self._chunk_rows: list[int] = []
        self._sealed_rows = 0
        self._count = 0
        self._cols: dict[str, np.ndarray] | None = None
        self._cols_count = -1

    # -- write path (engine hot loop) -----------------------------------

    def append(
        self,
        send_rank: int,
        send_vid: int,
        recv_rank: int,
        recv_vid: int,
        wait_vid: int,
        tag: int,
        nbytes: int,
        declared_src: int,
        declared_tag: int,
        send_time: float,
        arrival: float,
        recv_post: float,
        completion: float,
        wait_time: float,
    ) -> int:
        """Record one matched message; returns the row index (for
        :meth:`set_wait` updates)."""
        row = self._count
        self._ipending += (
            send_rank, send_vid, recv_rank, recv_vid, wait_vid,
            tag, nbytes, declared_src, declared_tag,
        )
        self._fpending += (send_time, arrival, recv_post, completion, wait_time)
        self._count = row + 1
        if len(self._ipending) >= CHUNK_EVENTS * self._ISTRIDE:
            self.seal()
        return row

    def set_wait(
        self, row: int, completion: float, wait_vid: int, wait_time: float
    ) -> None:
        """Fill the completion data of an irecv row at wait time."""
        off = row - self._sealed_rows
        if off >= 0:
            self._fpending[off * self._FSTRIDE + 3] = completion
            self._fpending[off * self._FSTRIDE + 4] = wait_time
            self._ipending[off * self._ISTRIDE + 4] = wait_vid
            return
        # Sealed row: walk the chunks from the newest (updates target
        # recent rows — an outstanding request rarely spans a chunk seal).
        for ci in range(len(self._chunk_rows) - 1, -1, -1):
            start = self._chunk_rows[ci]
            if row >= start:
                self._fchunks[ci][row - start, 3] = completion
                self._fchunks[ci][row - start, 4] = wait_time
                self._ichunks[ci][row - start, 4] = wait_vid
                return
        raise IndexError(f"p2p row {row} out of range")

    def seal(self) -> None:
        """Seal pending rows into ndarray chunks (no-op when empty)."""
        if not self._ipending:
            return
        self._chunk_rows.append(self._sealed_rows)
        self._ichunks.append(
            np.asarray(self._ipending, dtype=np.int64).reshape(-1, self._ISTRIDE)
        )
        self._fchunks.append(
            np.asarray(self._fpending, dtype=np.float64).reshape(-1, self._FSTRIDE)
        )
        self._sealed_rows = self._count
        self._ipending = []
        self._fpending = []

    # -- read path -------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        self.seal()
        if not self._ichunks:
            return (
                np.empty((0, self._ISTRIDE), dtype=np.int64),
                np.empty((0, self._FSTRIDE), dtype=np.float64),
            )
        if len(self._ichunks) > 1:
            self._ichunks = [np.concatenate(self._ichunks, axis=0)]
            self._fchunks = [np.concatenate(self._fchunks, axis=0)]
            self._chunk_rows = [0]
        return self._ichunks[0], self._fchunks[0]

    def columns(self) -> dict[str, np.ndarray]:
        """The table as named column arrays (int64 and float64)."""
        if self._cols is None or self._cols_count != self._count:
            imat, fmat = self._matrices()
            cols = {name: imat[:, i] for i, name in enumerate(self.INT_COLUMNS)}
            cols.update(
                {name: fmat[:, i] for i, name in enumerate(self.FLOAT_COLUMNS)}
            )
            self._cols = cols
            self._cols_count = self._count
        return self._cols

    def row(self, index: int) -> P2PRecord:
        """Materialize one row as a :class:`P2PRecord` object."""
        cols = self.columns()
        declared_src = int(cols["declared_src"][index])
        declared_tag = int(cols["declared_tag"][index])
        return P2PRecord(
            send_rank=int(cols["send_rank"][index]),
            send_vid=int(cols["send_vid"][index]),
            recv_rank=int(cols["recv_rank"][index]),
            recv_vid=int(cols["recv_vid"][index]),
            tag=int(cols["tag"][index]),
            nbytes=int(cols["nbytes"][index]),
            send_time=float(cols["send_time"][index]),
            arrival=float(cols["arrival"][index]),
            recv_post=float(cols["recv_post"][index]),
            completion=float(cols["completion"][index]),
            wait_vid=int(cols["wait_vid"][index]),
            wait_time=float(cols["wait_time"][index]),
            declared_src=None if declared_src == WILDCARD_CODE else declared_src,
            declared_tag=None if declared_tag == WILDCARD_CODE else declared_tag,
        )

    def records(self) -> P2PRecordsView:
        return P2PRecordsView(self)

    # -- serialization ----------------------------------------------------

    def to_doc(self) -> dict:
        imat, fmat = self._matrices()
        return {
            "ints": _pack_matrix(imat, "<i8"),
            "floats": _pack_matrix(fmat, "<f8"),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "P2PTable":
        table = cls()
        imat = _unpack_matrix(doc["ints"], "<i8", cls._ISTRIDE)
        fmat = _unpack_matrix(doc["floats"], "<f8", cls._FSTRIDE)
        if len(imat):
            table._chunk_rows.append(0)
            table._ichunks.append(imat)
            table._fchunks.append(fmat)
            table._sealed_rows = table._count = len(imat)
        return table


class CollectiveTable:
    """Struct-of-arrays storage of one run's completed collective instances.

    Fixed int64 columns (``index, op, root, nbytes``) plus ragged per-rank
    participant data in offset-indexed flat arrays: row ``i``'s
    participants live at ``offsets[i]:offsets[i+1]`` of the ``part_rank /
    part_vid`` (int64) and ``part_arrival / part_completion`` (float64)
    arrays, in the instance's arrival-insertion order — the order
    :meth:`row` rebuilds the ``vids/arrivals/completions`` dicts in, which
    is what keeps collective trace replay bit-identical.
    """

    __slots__ = (
        "_pending", "_ppending", "_offsets",
        "_chunks", "_pchunks", "_sealed_rows", "_sealed_parts", "_count",
        "_cols", "_cols_count",
    )

    _STRIDE = 4  # index, op, root, nbytes
    _PSTRIDE = 4  # rank, vid, arrival, completion (mixed; split on seal)

    def __init__(self) -> None:
        self._pending: list[int] = []
        self._ppending: list[float] = []
        #: cumulative participant counts; len == row_count + 1
        self._offsets: list[int] = [0]
        self._chunks: list[np.ndarray] = []
        self._pchunks: list[np.ndarray] = []
        self._sealed_rows = 0
        self._sealed_parts = 0
        self._count = 0
        self._cols: dict[str, np.ndarray] | None = None
        self._cols_count = -1

    # -- write path ------------------------------------------------------

    def append_record(self, record: CollectiveRecord) -> int:
        """Record one completed collective instance; returns its row."""
        row = self._count
        self._pending += (
            record.index, MPI_OP_CODES[record.mpi_op], record.root,
            record.nbytes,
        )
        ppending = self._ppending
        completions = record.completions
        vids = record.vids
        for rank, arrival in record.arrivals.items():
            ppending += (rank, vids[rank], arrival, completions[rank])
        self._offsets.append(self._offsets[-1] + len(record.arrivals))
        self._count = row + 1
        if len(ppending) >= CHUNK_EVENTS * self._PSTRIDE:
            self.seal()
        return row

    def seal(self) -> None:
        """Seal pending rows and participants into ndarray chunks."""
        if not self._pending:
            return
        self._chunks.append(
            np.asarray(self._pending, dtype=np.int64).reshape(-1, self._STRIDE)
        )
        self._pchunks.append(
            np.asarray(self._ppending, dtype=np.float64).reshape(
                -1, self._PSTRIDE
            )
        )
        self._sealed_rows = self._count
        self._sealed_parts = self._offsets[-1]
        self._pending = []
        self._ppending = []

    # -- read path -------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._count

    def __len__(self) -> int:
        return self._count

    def _matrices(self) -> tuple[np.ndarray, np.ndarray]:
        self.seal()
        if not self._chunks:
            return (
                np.empty((0, self._STRIDE), dtype=np.int64),
                np.empty((0, self._PSTRIDE), dtype=np.float64),
            )
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks, axis=0)]
            self._pchunks = [np.concatenate(self._pchunks, axis=0)]
        return self._chunks[0], self._pchunks[0]

    def columns(self) -> dict[str, np.ndarray]:
        """Fixed columns + ``offsets`` + flat participant columns.

        ``part_rank`` / ``part_vid`` are int64 views of the participant
        matrix's first two columns; ``part_arrival`` / ``part_completion``
        are its float64 columns.  ``offsets`` has ``row_count + 1`` entries.
        """
        if self._cols is None or self._cols_count != self._count:
            mat, pmat = self._matrices()
            self._cols = {
                "index": mat[:, 0],
                "op": mat[:, 1],
                "root": mat[:, 2],
                "nbytes": mat[:, 3],
                "offsets": np.asarray(self._offsets, dtype=np.int64),
                "part_rank": pmat[:, 0].astype(np.int64),
                "part_vid": pmat[:, 1].astype(np.int64),
                "part_arrival": pmat[:, 2],
                "part_completion": pmat[:, 3],
            }
            self._cols_count = self._count
        return self._cols

    def wait_columns(self) -> dict[str, np.ndarray]:
        """Vectorized per-participant waiting data over the ragged columns.

        Elementwise identical to walking :meth:`records` and calling
        ``CollectiveRecord.wait_of`` / ``.last_arrival_rank`` (which the
        baseline laggard loops used to do per rank, O(P²) per collective):

        * ``op_cost``      — per row: min participant ``completion - arrival``,
        * ``laggard``      — per row: last-arrival rank (max-rank tie-break),
        * ``laggard_arrival`` — per row: that arrival time (the row max),
        * ``row``          — per participant: owning row index,
        * ``wait``         — per participant: time beyond ``op_cost``, >= 0.

        Every engine-built row has at least one participant (reduceat needs
        non-empty segments).
        """
        cols = self.columns()
        arr = cols["part_arrival"]
        n = self._count
        if n == 0:
            ef = np.empty(0, dtype=np.float64)
            ei = np.empty(0, dtype=np.int64)
            return {
                "op_cost": ef, "laggard": ei, "laggard_arrival": ef,
                "row": ei, "wait": ef,
            }
        offsets = cols["offsets"]
        starts = offsets[:-1]
        counts = np.diff(offsets)
        comp = cols["part_completion"]
        ranks = cols["part_rank"]
        span = comp - arr
        op_cost = np.minimum.reduceat(span, starts)
        row = np.repeat(np.arange(n, dtype=np.int64), counts)
        laggard_arrival = np.maximum.reduceat(arr, starts)
        laggard = np.maximum.reduceat(
            np.where(arr == laggard_arrival[row], ranks, -1), starts
        )
        wait = np.maximum(0.0, span - op_cost[row])
        return {
            "op_cost": op_cost,
            "laggard": laggard,
            "laggard_arrival": laggard_arrival,
            "row": row,
            "wait": wait,
        }

    def row(self, index: int) -> CollectiveRecord:
        """Materialize one row as a :class:`CollectiveRecord` object."""
        cols = self.columns()
        start = int(cols["offsets"][index])
        end = int(cols["offsets"][index + 1])
        ranks = cols["part_rank"][start:end].tolist()
        vids = cols["part_vid"][start:end].tolist()
        arrivals = cols["part_arrival"][start:end].tolist()
        completions = cols["part_completion"][start:end].tolist()
        return CollectiveRecord(
            index=int(cols["index"][index]),
            mpi_op=_CODE_TO_OP[int(cols["op"][index])],
            root=int(cols["root"][index]),
            nbytes=int(cols["nbytes"][index]),
            vids=dict(zip(ranks, vids)),
            arrivals=dict(zip(ranks, arrivals)),
            completions=dict(zip(ranks, completions)),
        )

    def records(self) -> CollectiveRecordsView:
        return CollectiveRecordsView(self)

    # -- serialization ----------------------------------------------------

    def to_doc(self) -> dict:
        mat, pmat = self._matrices()
        return {
            "rows": _pack_matrix(mat, "<i8"),
            "offsets": _pack_matrix(
                np.asarray(self._offsets, dtype=np.int64), "<i8"
            ),
            "participants": _pack_matrix(pmat, "<f8"),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CollectiveTable":
        table = cls()
        mat = _unpack_matrix(doc["rows"], "<i8", cls._STRIDE)
        pmat = _unpack_matrix(doc["participants"], "<f8", cls._PSTRIDE)
        offsets = _unpack_matrix(doc["offsets"], "<i8", 1)
        table._offsets = offsets.tolist()
        if len(mat):
            table._chunks.append(mat)
            table._pchunks.append(pmat)
            table._sealed_rows = table._count = len(mat)
            table._sealed_parts = table._offsets[-1]
        else:
            table._offsets = [0]
        return table


class TraceBuffer:
    """Struct-of-arrays recording of one simulation's timeline events.

    Only per-rank row order is contract: every rank's events (and its P2P
    and collective rows) appear in that rank's execution order, but the
    global interleaving of different ranks' rows depends on the drain
    (see ``Engine.drain``).  The per-(rank, vid) ``np.bincount`` sums
    accumulate per key in per-rank order, and
    :func:`repro.runtime.sampling.sample_result` re-sorts rank-major
    before accumulating, so aggregates and profiles do not depend on the
    interleaving.  Any consumer that reads the global row order of the
    event, P2P or collective tables (or a collective's participant order)
    must re-sort it first.
    """

    __slots__ = (
        "keep_events",
        "p2p", "collectives",
        "_pending", "_chunks", "_event_count",
        "_cpending", "_cchunks", "_counter_count",
        "_fold_time", "_fold_wait", "_fold_waited", "_fold_visits",
        "_fold_counters",
        "_columns", "_columns_count", "_ccolumns", "_ccolumns_count",
        "_aggregates", "_agg_count", "_counter_agg", "_cagg_count",
    )

    def __init__(self, *, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        #: Communication ground truth: matched messages and collective
        #: instances, recorded even in ring mode (their memory is bounded
        #: by message count, not timeline length).
        self.p2p = P2PTable()
        self.collectives = CollectiveTable()
        self._pending: list[float] = []
        self._chunks: list[np.ndarray] = []
        self._event_count = 0
        self._cpending: list[float] = []
        self._cchunks: list[np.ndarray] = []
        self._counter_count = 0
        # streaming aggregates, used when chunks are folded (ring mode)
        self._fold_time: dict[tuple[int, int], float] = {}
        self._fold_wait: dict[tuple[int, int], float] = {}
        self._fold_waited: set[tuple[int, int]] = set()
        self._fold_visits: dict[tuple[int, int], int] = {}
        self._fold_counters: dict[tuple[int, int], PerfCounters] = {}
        # lazy caches (invalidated by event count when appends continue)
        self._columns: dict[str, np.ndarray] | None = None
        self._columns_count = -1
        self._ccolumns: dict[str, np.ndarray] | None = None
        self._ccolumns_count = -1
        self._aggregates: tuple[dict, dict, dict] | None = None
        self._agg_count = -1
        self._counter_agg: dict[tuple[int, int], PerfCounters] | None = None
        self._cagg_count = -1

    # ------------------------------------------------------------------
    # write path (simulation hot loop)
    # ------------------------------------------------------------------

    def append(
        self,
        rank: int,
        vid: int,
        kind: int,
        start: float,
        end: float,
        wait: float,
        op_code: int,
    ) -> None:
        """Record one timeline event (O(1) amortized, no object churn)."""
        pending = self._pending
        pending += (rank, vid, kind, start, end, wait, op_code)
        self._event_count += 1
        if len(pending) >= CHUNK_EVENTS * _EVENT_STRIDE:
            self._seal_events()

    def append_counters(
        self,
        rank: int,
        vid: int,
        tot_ins: float,
        tot_cyc: float,
        tot_lst_ins: float,
        l2_dcm: float,
    ) -> None:
        """Record the PMU counter deltas of one (compute) span."""
        pending = self._cpending
        pending += (rank, vid, tot_ins, tot_cyc, tot_lst_ins, l2_dcm)
        self._counter_count += 1
        if len(pending) >= CHUNK_EVENTS * _COUNTER_STRIDE:
            self._seal_counters()

    def _seal_events(self) -> None:
        if not self._pending:
            return
        chunk = np.asarray(self._pending, dtype=np.float64).reshape(
            -1, _EVENT_STRIDE
        )
        self._pending = []
        if self.keep_events:
            self._chunks.append(chunk)
        else:
            self._fold_event_chunk(chunk)

    def _seal_counters(self) -> None:
        if not self._cpending:
            return
        chunk = np.asarray(self._cpending, dtype=np.float64).reshape(
            -1, _COUNTER_STRIDE
        )
        self._cpending = []
        if self.keep_events:
            self._cchunks.append(chunk)
        else:
            self._fold_counter_chunk(chunk)

    def _fold_event_chunk(self, chunk: np.ndarray) -> None:
        # Ring mode: fold the sealed chunk into the running aggregates
        # with the same bincount kernel the one-shot path uses (a left
        # fold in occurrence order within the chunk — identical float
        # association to the one-shot path for runs that fit one chunk;
        # across chunks each key joins via one add of the chunk partial)
        # and let the chunk go.
        rank_col, vid_col = chunk[:, 0], chunk[:, 1]
        inv, order, keys = self._grouped(rank_col, vid_col)
        n = len(keys)
        wait_col = chunk[:, 5]
        time_sums = np.bincount(
            inv, weights=chunk[:, 4] - chunk[:, 3], minlength=n
        )
        wait_sums = np.bincount(inv, weights=wait_col, minlength=n)
        waited_counts = np.bincount(
            inv, weights=(wait_col != 0.0), minlength=n
        )
        visit_counts = np.bincount(inv, minlength=n)
        time = self._fold_time
        wait_d = self._fold_wait
        waited = self._fold_waited
        visits = self._fold_visits
        for g in order:
            key = keys[g]
            time[key] = time.get(key, 0.0) + float(time_sums[g])
            if waited_counts[g]:
                waited.add(key)
            wait_d[key] = wait_d.get(key, 0.0) + float(wait_sums[g])
            visits[key] = visits.get(key, 0) + int(visit_counts[g])

    def _fold_counter_chunk(self, chunk: np.ndarray) -> None:
        # Same bincount fold as _fold_event_chunk, over the four PMU
        # counter columns.
        rank_col, vid_col = chunk[:, 0], chunk[:, 1]
        inv, order, keys = self._grouped(rank_col, vid_col)
        n = len(keys)
        sums = [
            np.bincount(inv, weights=chunk[:, c], minlength=n)
            for c in (2, 3, 4, 5)
        ]
        counters = self._fold_counters
        for g in order:
            key = keys[g]
            agg = counters.get(key)
            if agg is None:
                counters[key] = PerfCounters(
                    tot_ins=float(sums[0][g]),
                    tot_cyc=float(sums[1][g]),
                    tot_lst_ins=float(sums[2][g]),
                    l2_dcm=float(sums[3][g]),
                )
            else:
                agg.tot_ins += float(sums[0][g])
                agg.tot_cyc += float(sums[1][g])
                agg.tot_lst_ins += float(sums[2][g])
                agg.l2_dcm += float(sums[3][g])

    # ------------------------------------------------------------------
    # read path (post-run views)
    # ------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        return self._event_count

    @property
    def counter_count(self) -> int:
        return self._counter_count

    def nbytes(self) -> int:
        """Approximate resident bytes of the columnar storage."""
        sealed = sum(c.nbytes for c in self._chunks)
        sealed += sum(c.nbytes for c in self._cchunks)
        return sealed + 8 * (len(self._pending) + len(self._cpending))

    def _event_matrix(self) -> np.ndarray:
        self._seal_events()
        if not self._chunks:
            return np.empty((0, _EVENT_STRIDE), dtype=np.float64)
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks, axis=0)]
        return self._chunks[0]

    def _counter_matrix(self) -> np.ndarray:
        self._seal_counters()
        if not self._cchunks:
            return np.empty((0, _COUNTER_STRIDE), dtype=np.float64)
        if len(self._cchunks) > 1:
            self._cchunks = [np.concatenate(self._cchunks, axis=0)]
        return self._cchunks[0]

    def columns(self) -> dict[str, np.ndarray]:
        """The event table as named column arrays (empty in ring mode)."""
        if self._columns is None or self._columns_count != self._event_count:
            m = self._event_matrix()
            self._columns = {
                "rank": m[:, 0],
                "vid": m[:, 1],
                "kind": m[:, 2],
                "start": m[:, 3],
                "end": m[:, 4],
                "wait": m[:, 5],
                "op": m[:, 6],
            }
            self._columns_count = self._event_count
        return self._columns

    def counter_columns(self) -> dict[str, np.ndarray]:
        """The counter table as named column arrays (empty in ring mode)."""
        if self._ccolumns is None or self._ccolumns_count != self._counter_count:
            m = self._counter_matrix()
            self._ccolumns = {
                "rank": m[:, 0],
                "vid": m[:, 1],
                "tot_ins": m[:, 2],
                "tot_cyc": m[:, 3],
                "tot_lst_ins": m[:, 4],
                "l2_dcm": m[:, 5],
            }
            self._ccolumns_count = self._counter_count
        return self._ccolumns

    def segment(self, index: int) -> Segment:
        """Materialize the ``index``-th event as a Segment object."""
        cols = self.columns()
        return Segment(
            rank=int(cols["rank"][index]),
            vid=int(cols["vid"][index]),
            kind=SegmentKind(int(cols["kind"][index])),
            start=float(cols["start"][index]),
            end=float(cols["end"][index]),
            wait=float(cols["wait"][index]),
            mpi_op=_op_from_code(int(cols["op"][index])),
        )

    def segments(self) -> SegmentsView:
        return SegmentsView(self)

    # -- per-vertex aggregation ------------------------------------------

    @staticmethod
    def _grouped(
        rank: np.ndarray, vid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """Group rows by (rank, vid): returns (inverse, order, keys).

        ``keys[order]`` enumerates groups in first-occurrence order, which
        matches the insertion order the old streaming dicts had.
        """
        composite = rank.astype(np.int64) * (int(vid.max()) + 1 if len(vid) else 1)
        composite = composite + vid.astype(np.int64)
        uniq, first, inv = np.unique(
            composite, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        keys = [
            (int(rank[first[g]]), int(vid[first[g]])) for g in range(len(uniq))
        ]
        return inv, order, keys

    def _aggregate_events(self) -> tuple[dict, dict, dict]:
        """(vertex_time, vertex_wait, vertex_visits) from the event table.

        ``np.bincount`` adds weights in occurrence order, so every per-key
        sum reproduces the old ``dict[key] += x`` streaming accumulation
        bit-for-bit.
        """
        if self._aggregates is not None and self._agg_count == self._event_count:
            return self._aggregates
        self._agg_count = self._event_count
        if not self.keep_events:
            # ring mode: sealed chunks were folded as they went; fold the tail
            self._seal_events()
            self._aggregates = (
                self._fold_time,
                {k: v for k, v in self._fold_wait.items() if k in self._fold_waited},
                self._fold_visits,
            )
            return self._aggregates
        cols = self.columns()
        rank, vid = cols["rank"], cols["vid"]
        vertex_time: dict[tuple[int, int], float] = {}
        vertex_wait: dict[tuple[int, int], float] = {}
        vertex_visits: dict[tuple[int, int], int] = {}
        if len(rank):
            inv, order, keys = self._grouped(rank, vid)
            n = len(keys)
            durations = cols["end"] - cols["start"]
            time_sums = np.bincount(inv, weights=durations, minlength=n)
            wait_sums = np.bincount(inv, weights=cols["wait"], minlength=n)
            waited = np.bincount(
                inv, weights=(cols["wait"] != 0.0), minlength=n
            )
            visit_counts = np.bincount(inv, minlength=n)
            for g in order:
                key = keys[g]
                vertex_time[key] = float(time_sums[g])
                vertex_visits[key] = int(visit_counts[g])
                if waited[g]:
                    vertex_wait[key] = float(wait_sums[g])
        self._aggregates = (vertex_time, vertex_wait, vertex_visits)
        return self._aggregates

    def vertex_time(self) -> dict[tuple[int, int], float]:
        return self._aggregate_events()[0]

    def vertex_wait(self) -> dict[tuple[int, int], float]:
        return self._aggregate_events()[1]

    def vertex_visits(self) -> dict[tuple[int, int], int]:
        return self._aggregate_events()[2]

    def vertex_counters(self) -> dict[tuple[int, int], PerfCounters]:
        if (
            self._counter_agg is not None
            and self._cagg_count == self._counter_count
        ):
            return self._counter_agg
        self._cagg_count = self._counter_count
        if not self.keep_events:
            self._seal_counters()
            self._counter_agg = self._fold_counters
            return self._counter_agg
        cols = self.counter_columns()
        rank, vid = cols["rank"], cols["vid"]
        out: dict[tuple[int, int], PerfCounters] = {}
        if len(rank):
            inv, order, keys = self._grouped(rank, vid)
            n = len(keys)
            sums = {
                field: np.bincount(inv, weights=cols[field], minlength=n)
                for field in ("tot_ins", "tot_cyc", "tot_lst_ins", "l2_dcm")
            }
            for g in order:
                out[keys[g]] = PerfCounters(
                    tot_ins=float(sums["tot_ins"][g]),
                    tot_cyc=float(sums["tot_cyc"][g]),
                    tot_lst_ins=float(sums["tot_lst_ins"][g]),
                    l2_dcm=float(sums["l2_dcm"][g]),
                )
        self._counter_agg = out
        return self._counter_agg

    # ------------------------------------------------------------------
    # serialization (Session artifact cache)
    # ------------------------------------------------------------------

    def to_doc(self) -> dict:
        """Compact JSON-safe form (base64-packed little-endian columns).

        Includes the communication record tables since the columnar
        refactor; ``from_doc`` still accepts pre-table documents (their
        ``p2p``/``collectives`` load empty).
        """
        if not self.keep_events:
            raise ValueError("a ring-mode TraceBuffer has no events to serialize")
        return {
            "format": "scalana-trace-v1",
            "events": _pack_matrix(self._event_matrix(), "<f8"),
            "counters": _pack_matrix(self._counter_matrix(), "<f8"),
            "p2p": self.p2p.to_doc(),
            "collectives": self.collectives.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TraceBuffer":
        if doc.get("format") != "scalana-trace-v1":
            raise ValueError("not a serialized TraceBuffer")
        buf = cls(keep_events=True)
        events = _unpack_matrix(doc["events"], "<f8", _EVENT_STRIDE)
        counters = _unpack_matrix(doc["counters"], "<f8", _COUNTER_STRIDE)
        if len(events):
            buf._chunks.append(events)
            buf._event_count = len(events)
        if len(counters):
            buf._cchunks.append(counters)
            buf._counter_count = len(counters)
        if "p2p" in doc:
            buf.p2p = P2PTable.from_doc(doc["p2p"])
        if "collectives" in doc:
            buf.collectives = CollectiveTable.from_doc(doc["collectives"])
        return buf
