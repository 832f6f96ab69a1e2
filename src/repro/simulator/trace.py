"""Columnar ground-truth recording: the :class:`TraceBuffer` family.

One run's ground truth is four tables, all kept by one :class:`RowStore`
each (the collective table keeps three):

* the *event table* (``TraceBuffer``), seven float64 columns::

      column  meaning
      ------  --------------------------------------------------------------
      rank    rank the span executed on
      vid     PSG vertex id the span is attributed to
      kind    SegmentKind (0 = COMPUTE, 1 = MPI)
      start   span start, simulated seconds
      end     span end, simulated seconds
      wait    portion of the span spent waiting on other ranks (MPI only)
      op      MpiOp code (index into MPI_OP_CODES; -1 = no MPI op)

* the *counter table* (``TraceBuffer``), six float64 columns (``rank, vid,
  tot_ins, tot_cyc, tot_lst_ins, l2_dcm``), appended only for spans that
  carry simulated PMU counters (compute spans),
* :class:`P2PTable` — one row per matched point-to-point message, int64
  identity columns + float64 timestamp columns, with in-place completion
  updates for the irecv/wait protocol,
* :class:`CollectiveTable` — one row per completed collective instance,
  fixed int64 columns plus ragged per-rank participant data stored as
  offset-indexed flat arrays.

Integral columns of the event and counter tables are stored as float64 —
ranks, vids and op codes are far below 2**53, so the round trip is exact
and appends stay a single flat-list extend.

**Write path.**  An append extends the store's flat pending list (one
C-level ``list.__iadd__`` per row — no per-row objects, no dict updates).
At :data:`CHUNK_EVENTS` pending rows the list seals into ndarray chunks.
With ``keep_events=False`` the event and counter stores are bounded rings:
each sealed chunk is folded into running per-vertex sums and dropped, so
memory stays O(chunk + vertices) no matter how long the run is.

**Read path.**  Everything downstream is a lazy view over the columns:

* :meth:`TraceBuffer.segments`, :meth:`P2PTable.records`,
  :meth:`CollectiveTable.records` — :class:`RowView` sequences that
  materialize one record object per access,
* :meth:`TraceBuffer.vertex_time` / ``vertex_wait`` / ``vertex_visits`` /
  ``vertex_counters`` — per-``(rank, vid)`` sums from :func:`fold_rows`,
  over the whole table in one pass, or chunk by chunk in ring mode,
* ``columns()`` — the raw column arrays for vectorized consumers
  (sampling, timelines, communication collection, baselines).

``to_doc()`` / ``from_doc()`` round-trip the tables through base64-packed
little-endian columns — the compact form profiles use when ground truth is
persisted through the Session artifact cache.
"""

from __future__ import annotations

import base64
from collections.abc import Callable, Iterator
from functools import partial
from itertools import compress

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
    "group_rows",
    "fold_rows",
    "KeySums",
    "RowStore",
    "RowView",
    "TraceBuffer",
    "P2PTable",
    "CollectiveTable",
]

#: Rows per sealed chunk (the ring granularity with ``keep_events=False``).
CHUNK_EVENTS = 1 << 15

#: Stable op <-> code mapping (declaration order of :class:`MpiOp`).
MPI_OP_CODES: dict[MpiOp, int] = {op: i for i, op in enumerate(MpiOp)}
#: The inverse mapping, indexable by op code (for column consumers).
MPI_CODE_TO_OP: tuple[MpiOp, ...] = tuple(MpiOp)

#: Sentinel stored in the ``declared_src`` / ``declared_tag`` columns of the
#: :class:`P2PTable` for a wildcard (``MPI_ANY_SOURCE`` / ``MPI_ANY_TAG``)
#: receive — i.e. the column encoding of ``P2PRecord.declared_src is None``.
#: Far outside any realistic rank or tag space.
WILDCARD_CODE = -(1 << 62)

_EVENT_COLUMNS = ("rank", "vid", "kind", "start", "end", "wait", "op")
_COUNTER_COLUMNS = ("rank", "vid", "tot_ins", "tot_cyc", "tot_lst_ins", "l2_dcm")


def mpi_op_code(op: MpiOp | None) -> int:
    """The integer code stored in the ``op`` column (-1 for None)."""
    return -1 if op is None else MPI_OP_CODES[op]


def _op_from_code(code: int) -> MpiOp | None:
    return None if code < 0 else MPI_CODE_TO_OP[code]


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------


class RowStore:
    """Chunked row storage: the one place that knows the seal policy,
    concatenation and document packing of the trace tables.

    A store's columns come in *parts* — ``(doc key, dtype, column names)``
    — each a run of columns sharing one dtype and one document entry.  A
    row is appended as one flat run of values across all parts.  When
    :data:`CHUNK_EVENTS` rows are pending they seal into one ndarray per
    part; the chunk is kept, or, when the store has a ``fold``, handed to
    it (one matrix per part) and dropped.  Reads concatenate the kept
    chunks once and cache the named columns until the row count changes.
    Columns named in ``as_int`` are stored as float64 but read as int64.
    """

    __slots__ = (
        "parts", "stride", "fold", "count", "_as_int", "_where",
        "_pending", "_chunks", "_starts", "_sealed", "_cols", "_cols_count",
    )

    def __init__(
        self,
        *parts: tuple[str, str, tuple[str, ...]],
        fold: Callable[..., None] | None = None,
        as_int: tuple[str, ...] = (),
    ) -> None:
        self.parts = parts
        self.fold = fold
        self._as_int = as_int
        #: column name -> (flat offset within a row, part, column in part)
        self._where: dict[str, tuple[int, int, int]] = {}
        for p, (_key, _dtype, names) in enumerate(parts):
            for j, name in enumerate(names):
                self._where[name] = (len(self._where), p, j)
        self.stride = len(self._where)
        self.count = 0
        self._pending: list = []
        self._chunks: list[tuple[np.ndarray, ...]] = []
        #: first row index of each kept chunk (parallel to ``_chunks``)
        self._starts: list[int] = []
        self._sealed = 0
        self._cols: dict[str, np.ndarray] = {}
        self._cols_count = -1

    # -- write path -------------------------------------------------------

    def append(self, *row) -> int:
        """Append one row (O(1) amortized); returns its index."""
        index = self.count
        self._pending += row
        self.count = index + 1
        if index + 1 - self._sealed >= CHUNK_EVENTS:
            self.seal()
        return index

    def extend(self, values: list) -> None:
        """Append whole rows given as one flat list of values."""
        self._pending += values
        self.count += len(values) // self.stride
        if self.count - self._sealed >= CHUNK_EVENTS:
            self.seal()

    def append_block(self, *mats: np.ndarray) -> None:
        """Append whole rows given as one matrix per part (a chunk of its
        own, or one fold in ring mode)."""
        self.seal()
        rows = len(mats[0])
        if not rows:
            return
        if self.fold is None:
            self._starts.append(self.count)
            self._chunks.append(mats)
        else:
            self.fold(*mats)
        self.count = self._sealed = self.count + rows

    def update(self, index: int, **values) -> None:
        """Overwrite named columns of one kept row in place."""
        off = index - self._sealed
        if off >= 0:
            base = off * self.stride
            for name, value in values.items():
                self._pending[base + self._where[name][0]] = value
            return
        # Sealed row: walk the chunks from the newest (updates target
        # recent rows — an outstanding request rarely spans a chunk seal).
        for ci in range(len(self._starts) - 1, -1, -1):
            start = self._starts[ci]
            if index >= start:
                chunk = self._chunks[ci]
                for name, value in values.items():
                    _flat, p, j = self._where[name]
                    chunk[p][index - start, j] = value
                return
        raise IndexError(f"row {index} out of range")

    def seal(self) -> None:
        """Seal the pending rows into one chunk (no-op when none pend)."""
        if self.count == self._sealed:
            return
        pending, self._pending = self._pending, []
        if len(self.parts) == 1:
            dtype = self.parts[0][1]
            chunk = [np.asarray(pending, dtype=dtype).reshape(-1, self.stride)]
        else:
            # mixed dtypes: fill one column at a time from a strided slice
            rows = self.count - self._sealed
            chunk = [
                np.empty((rows, len(names)), dtype=dtype)
                for _key, dtype, names in self.parts
            ]
            for flat, p, j in self._where.values():
                chunk[p][:, j] = pending[flat::self.stride]
        if self.fold is None:
            self._starts.append(self._sealed)
            self._chunks.append(tuple(chunk))
        else:
            self.fold(*chunk)
        self._sealed = self.count

    # -- read path ----------------------------------------------------------

    def matrices(self) -> tuple[np.ndarray, ...]:
        """Every kept row, one matrix per part (seals the pending rows)."""
        self.seal()
        if not self._chunks:
            return tuple(
                np.empty((0, len(names)), dtype=dtype)
                for _key, dtype, names in self.parts
            )
        if len(self._chunks) > 1:
            self._chunks = [
                tuple(np.concatenate(mats, axis=0) for mats in zip(*self._chunks))
            ]
            self._starts = [0]
        return self._chunks[0]

    def columns(self) -> dict[str, np.ndarray]:
        """The kept rows as named column arrays."""
        if self._cols_count != self.count:
            mats = self.matrices()
            self._cols = {
                name: (
                    mats[p][:, j].astype(np.int64)
                    if name in self._as_int
                    else mats[p][:, j]
                )
                for name, (_flat, p, j) in self._where.items()
            }
            self._cols_count = self.count
        return self._cols

    def nbytes(self) -> int:
        """Approximate resident bytes of the kept and pending rows."""
        sealed = sum(m.nbytes for chunk in self._chunks for m in chunk)
        return sealed + 8 * len(self._pending)

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict[str, str]:
        """Each part as base64-packed little-endian bytes, by doc key."""
        return {
            key: base64.b64encode(
                np.ascontiguousarray(mat, dtype="<" + dtype).tobytes()
            ).decode("ascii")
            for (key, dtype, _names), mat in zip(self.parts, self.matrices())
        }

    def load(self, doc: dict) -> None:
        """Replace the rows with the parts packed in ``doc``."""
        mats = tuple(
            np.frombuffer(base64.b64decode(doc[key]), dtype="<" + dtype)
            .reshape(-1, len(names))
            .astype(dtype)
            for key, dtype, names in self.parts
        )
        n = len(mats[0])
        self._pending = []
        self._chunks = [mats] if n else []
        self._starts = [0] if n else []
        self.count = self._sealed = n


# ----------------------------------------------------------------------
# per-(rank, vid) aggregation
# ----------------------------------------------------------------------


#: Dense grouping allots one table slot per possible (rank, vid) key; it is
#: used while there are at most this many slots per row, else rows are
#: grouped by sorting (the table stays O(rows) either way).
_DENSE_SLOTS_PER_ROW = 4


def group_rows(
    rank: np.ndarray, vid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by (rank, vid): returns ``(inverse, ranks, vids)``.

    Groups are numbered in first-occurrence order: row ``i`` belongs to
    group ``inverse[i]``, whose key is ``(ranks[g], vids[g])`` (int64),
    and group ``g`` first appears before group ``g + 1``.  Ranks and vids
    must be non-negative.

    Each key gets the code ``rank * V + vid`` (``V`` = max vid + 1).  When
    the code space is at most :data:`_DENSE_SLOTS_PER_ROW` slots per row, a
    dense table indexed by code takes each key's first row
    (``np.minimum.at``), so no row is sorted; only the first rows of the
    keys are.  Otherwise ``np.unique`` sorts the codes.  Both give the
    same groups in the same order.
    """
    n = len(rank)
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    r = rank.astype(np.int64)
    v = vid.astype(np.int64)
    if r.min() < 0 or v.min() < 0:
        raise ValueError("ranks and vids must be non-negative")
    width = int(v.max()) + 1
    code = r * width + v
    slots = (int(r.max()) + 1) * width
    if slots <= _DENSE_SLOTS_PER_ROW * n:
        first_of = np.full(slots, n, dtype=np.int64)
        np.minimum.at(first_of, code, np.arange(n, dtype=np.int64))
        first = np.sort(first_of[first_of < n])
        number = np.empty(slots, dtype=np.int64)  # only used codes are read
        number[code[first]] = np.arange(len(first), dtype=np.int64)
        inv = number[code]
    else:
        _uniq, first, inv = np.unique(code, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        first = first[order]
        inv = renumber[inv]
    return inv, r[first], v[first]


class KeySums:
    """Running per-``(rank, vid)`` sums of a fixed number of weight columns:
    ``keys`` in first-occurrence order and one list per column, aligned
    with ``keys``."""

    __slots__ = ("keys", "columns", "_index")

    def __init__(self, width: int) -> None:
        self.keys: list[tuple[int, int]] = []
        self.columns: list[list] = [[] for _ in range(width)]
        #: key -> position, built on the first fold into a non-empty acc
        self._index: dict[tuple[int, int], int] | None = None

    def clear(self) -> None:
        self.keys = []
        self.columns = [[] for _ in self.columns]
        self._index = None


def fold_rows(acc: KeySums, rank: np.ndarray, vid: np.ndarray, *weights) -> None:
    """Fold weight columns into running per-``(rank, vid)`` sums in ``acc``.

    Rows are grouped once by :func:`group_rows` (no sort of the rows), and
    ``np.bincount`` adds each group's weights in occurrence order, so a
    key's partial is a left fold of its rows in row order.  All rows of a
    key come from one rank, so that is the rank's execution order: one
    fold over a whole table does not depend on how ranks interleave.  A
    key new to ``acc`` stores its partial as is (so one fold over a whole
    table equals a one-shot sum, and a fold into an empty ``acc`` takes
    the partials' lists whole); a known key adds the partial once per
    column.  New keys join ``acc`` in first-occurrence order.  A weight of
    ``None`` counts rows (int sums).
    """
    if not len(rank):
        return
    inv, ranks, vids = group_rows(rank, vid)
    n = len(ranks)
    keys = list(zip(ranks.tolist(), vids.tolist()))
    parts = [np.bincount(inv, weights=w, minlength=n).tolist() for w in weights]
    if not acc.keys:
        acc.keys, acc.columns, acc._index = keys, parts, None
        return
    index = acc._index
    if index is None:
        index = acc._index = {key: i for i, key in enumerate(acc.keys)}
    columns = acc.columns
    for g, key in enumerate(keys):
        i = index.get(key)
        if i is None:
            index[key] = len(acc.keys)
            acc.keys.append(key)
            for column, part in zip(columns, parts):
                column.append(part[g])
        else:
            for column, part in zip(columns, parts):
                column[i] += part[g]


def _fold_events(acc: KeySums, m: np.ndarray) -> None:
    """Event rows -> per-key (time, wait, waited rows, visits)."""
    wait = m[:, 5]
    fold_rows(acc, m[:, 0], m[:, 1], m[:, 4] - m[:, 3], wait, wait != 0.0, None)


def _fold_counters(acc: KeySums, m: np.ndarray) -> None:
    """Counter rows -> per-key (tot_ins, tot_cyc, tot_lst_ins, l2_dcm)."""
    fold_rows(acc, m[:, 0], m[:, 1], m[:, 2], m[:, 3], m[:, 4], m[:, 5])


# ----------------------------------------------------------------------
# row views
# ----------------------------------------------------------------------


class RowView:
    """Lazy sequence over ``n`` table rows, materialized by ``row(i)``.

    Serves segments, P2P records and collective records alike; supports
    ``len``, indexing, slicing, iteration and equality against any other
    sequence of rows (``result.segments == []`` keeps working).
    """

    __slots__ = ("_n", "_row")

    def __init__(self, n: int, row: Callable[[int], object]) -> None:
        self._n = n
        self._row = row

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        n = self._n
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not (0 <= index < n):
            raise IndexError("row index out of range")
        return self._row(index)

    def __iter__(self) -> Iterator:
        return map(self._row, range(self._n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowView) and (other._n, other._row) == (
            self._n, self._row
        ):
            return True
        try:
            if len(other) != len(self):  # type: ignore[arg-type]
                return False
            return all(a == b for a, b in zip(self, other))  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RowView({self._n} rows)"


# ----------------------------------------------------------------------
# the tables
# ----------------------------------------------------------------------


class P2PTable:
    """Struct-of-arrays storage of one run's matched point-to-point messages.

    Nine int64 columns (``send_rank, send_vid, recv_rank, recv_vid,
    wait_vid, tag, nbytes, declared_src, declared_tag`` — the last two use
    :data:`WILDCARD_CODE` for wildcard receives) and five float64 columns
    (``send_time, arrival, recv_post, completion, wait_time``).
    ``append(*row)`` takes the fourteen values in that order and returns
    the row index; it is the store's own bound method, so an append is one
    Python call.  :meth:`set_wait` updates a previously appended row in
    place — the irecv protocol appends the row at match time with
    ``completion = NaN`` and fills completion/wait at the
    MPI_Wait/MPI_Waitall that observes it.
    """

    INT_COLUMNS = (
        "send_rank", "send_vid", "recv_rank", "recv_vid", "wait_vid",
        "tag", "nbytes", "declared_src", "declared_tag",
    )
    FLOAT_COLUMNS = ("send_time", "arrival", "recv_post", "completion", "wait_time")

    __slots__ = ("_store", "append")

    def __init__(self) -> None:
        self._store = RowStore(
            ("ints", "i8", self.INT_COLUMNS), ("floats", "f8", self.FLOAT_COLUMNS)
        )
        self.append = self._store.append

    def append_block(self, ints: np.ndarray, floats: np.ndarray) -> None:
        """Append whole rows: an ``(n, 9)`` int64 and an ``(n, 5)`` float64
        matrix, columns in table order."""
        self._store.append_block(ints, floats)

    def set_wait(
        self, row: int, completion: float, wait_vid: int, wait_time: float
    ) -> None:
        """Fill the completion data of an irecv row at wait time."""
        self._store.update(
            row, completion=completion, wait_time=wait_time, wait_vid=wait_vid
        )

    def seal(self) -> None:
        """Seal pending rows into ndarray chunks (no-op when empty)."""
        self._store.seal()

    @property
    def row_count(self) -> int:
        return self._store.count

    def __len__(self) -> int:
        return self._store.count

    def columns(self) -> dict[str, np.ndarray]:
        """The table as named column arrays (int64 and float64)."""
        return self._store.columns()

    def row(self, index: int) -> P2PRecord:
        """Materialize one row as a :class:`P2PRecord` object."""
        ints, floats = self._store.matrices()
        (send_rank, send_vid, recv_rank, recv_vid, wait_vid, tag, nbytes,
         declared_src, declared_tag) = ints[index].tolist()
        send_time, arrival, recv_post, completion, wait_time = floats[index].tolist()
        return P2PRecord(
            send_rank=send_rank,
            send_vid=send_vid,
            recv_rank=recv_rank,
            recv_vid=recv_vid,
            tag=tag,
            nbytes=nbytes,
            send_time=send_time,
            arrival=arrival,
            recv_post=recv_post,
            completion=completion,
            wait_vid=wait_vid,
            wait_time=wait_time,
            declared_src=None if declared_src == WILDCARD_CODE else declared_src,
            declared_tag=None if declared_tag == WILDCARD_CODE else declared_tag,
        )

    def records(self) -> RowView:
        """The rows as lazy :class:`P2PRecord` objects."""
        return RowView(self._store.count, self.row)

    def to_doc(self) -> dict:
        return self._store.to_doc()

    @classmethod
    def from_doc(cls, doc: dict) -> "P2PTable":
        table = cls()
        table._store.load(doc)
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

    __slots__ = ("_rows", "_offsets", "_parts")

    def __init__(self) -> None:
        self._rows = RowStore(("rows", "i8", ("index", "op", "root", "nbytes")))
        #: cumulative participant counts; one more entry than rows
        self._offsets = RowStore(("offsets", "i8", ("offsets",)))
        self._offsets.append(0)
        # participant ranks and vids are stored as float64 (the document
        # form) and read as int64
        self._parts = RowStore(
            ("participants", "f8",
             ("part_rank", "part_vid", "part_arrival", "part_completion")),
            as_int=("part_rank", "part_vid"),
        )

    def append_record(self, record: CollectiveRecord) -> int:
        """Record one completed collective instance; returns its row."""
        flat: list = []
        completions = record.completions
        vids = record.vids
        for rank, arrival in record.arrivals.items():
            flat += (rank, vids[rank], arrival, completions[rank])
        self._parts.extend(flat)
        self._offsets.append(self._parts.count)
        return self._rows.append(
            record.index, MPI_OP_CODES[record.mpi_op], record.root, record.nbytes
        )

    def append_block(
        self, rows: np.ndarray, sizes: np.ndarray, parts: np.ndarray
    ) -> None:
        """Append whole instances: ``rows`` (``(n, 4)`` int64: index, op
        code, root, nbytes), each row's participant count in ``sizes``, and
        the participants as one ``(sizes.sum(), 4)`` float64 matrix (rank,
        vid, arrival, completion), row after row."""
        offsets = self._parts.count + np.cumsum(sizes, dtype=np.int64)
        self._parts.append_block(parts)
        self._offsets.append_block(offsets.reshape(-1, 1))
        self._rows.append_block(rows)

    def seal(self) -> None:
        """Seal pending rows and participants into ndarray chunks."""
        for store in (self._rows, self._offsets, self._parts):
            store.seal()

    @property
    def row_count(self) -> int:
        return self._rows.count

    def __len__(self) -> int:
        return self._rows.count

    def columns(self) -> dict[str, np.ndarray]:
        """Fixed columns + ``offsets`` + flat participant columns.

        ``part_rank`` / ``part_vid`` are int64 copies of the participant
        matrix's first two columns; ``part_arrival`` / ``part_completion``
        are its float64 columns.  ``offsets`` has ``row_count + 1`` entries.
        """
        return {
            **self._rows.columns(),
            **self._offsets.columns(),
            **self._parts.columns(),
        }

    def wait_columns(self) -> dict[str, np.ndarray]:
        """Vectorized per-participant waiting data over the ragged columns.

        Elementwise identical to walking :meth:`records` and calling
        ``CollectiveRecord.wait_of`` / ``.last_arrival_rank`` per rank
        (O(P²) per collective):

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
        n = self.row_count
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
        (rows,) = self._rows.matrices()
        offsets = self._offsets.columns()["offsets"]
        parts = self._parts.columns()
        start, end = offsets[index], offsets[index + 1]
        ranks = parts["part_rank"][start:end].tolist()
        vids = parts["part_vid"][start:end].tolist()
        arrivals = parts["part_arrival"][start:end].tolist()
        completions = parts["part_completion"][start:end].tolist()
        number, op, root, nbytes = rows[index].tolist()
        return CollectiveRecord(
            index=number,
            mpi_op=MPI_CODE_TO_OP[op],
            root=root,
            nbytes=nbytes,
            vids=dict(zip(ranks, vids)),
            arrivals=dict(zip(ranks, arrivals)),
            completions=dict(zip(ranks, completions)),
        )

    def records(self) -> RowView:
        """The rows as lazy :class:`CollectiveRecord` objects."""
        return RowView(self._rows.count, self.row)

    def to_doc(self) -> dict:
        return {
            **self._rows.to_doc(),
            **self._offsets.to_doc(),
            **self._parts.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CollectiveTable":
        table = cls()
        for store in (table._rows, table._offsets, table._parts):
            store.load(doc)
        return table


class TraceBuffer:
    """Struct-of-arrays recording of one simulation's timeline events.

    ``append(rank, vid, kind, start, end, wait, op_code)`` records one
    timeline event and ``append_counters(rank, vid, tot_ins, tot_cyc,
    tot_lst_ins, l2_dcm)`` the PMU counter deltas of one compute span.
    Both are their store's own bound ``append``, so the engine makes one
    Python call per row; the lockstep drain appends whole matrices with
    :meth:`append_block` instead.

    Only per-rank row order is contract: every rank's events (and its P2P
    and collective rows) appear in that rank's execution order, but the
    global interleaving of different ranks' rows depends on the drain
    (see ``Engine.drain``).  Aggregates and profiles do not depend on the
    interleaving, and neither re-sorts the rows to get there: all rows of
    a ``(rank, vid)`` key come from one rank, so the per-key sums of
    :func:`fold_rows` accumulate in that rank's order, and
    :func:`repro.runtime.sampling.sample_result` orders its keys by
    (rank, first row) after checking that each rank's rows already come
    in ``(start, end)`` order (it sorts only a run that fails the check).
    Any other consumer that reads the global row order of the event, P2P
    or collective tables (or a collective's participant order) must
    re-sort it first; communication collection groups edges by a sort of
    their keys and collective participants by rank.  In ring mode a chunk
    seals at a global row count, so each key's partials join at
    interleaving-dependent boundaries.
    """

    __slots__ = (
        "keep_events", "p2p", "collectives", "append", "append_counters",
        "_events", "_counters", "_event_acc", "_counter_acc",
        "_aggregates", "_agg_count", "_counter_agg", "_cagg_count",
    )

    def __init__(self, *, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        #: Communication ground truth: matched messages and collective
        #: instances, recorded even in ring mode (their memory is bounded
        #: by message count, not timeline length).
        self.p2p = P2PTable()
        self.collectives = CollectiveTable()
        # Running per-(rank, vid) sums: ring mode folds every sealed chunk
        # into them; recorded mode refolds the whole table on read.
        self._event_acc = KeySums(4)
        self._counter_acc = KeySums(4)
        ring = not keep_events
        self._events = RowStore(
            ("events", "f8", _EVENT_COLUMNS),
            fold=partial(_fold_events, self._event_acc) if ring else None,
        )
        self._counters = RowStore(
            ("counters", "f8", _COUNTER_COLUMNS),
            fold=partial(_fold_counters, self._counter_acc) if ring else None,
        )
        self.append = self._events.append
        self.append_counters = self._counters.append
        self._aggregates: tuple[dict, dict, dict] = ({}, {}, {})
        self._agg_count = -1
        self._counter_agg: dict[tuple[int, int], PerfCounters] = {}
        self._cagg_count = -1

    def append_block(self, events: np.ndarray, counters: np.ndarray) -> None:
        """Append whole event and counter rows, one matrix each (columns
        in table order)."""
        self._events.append_block(events)
        self._counters.append_block(counters)

    def _sums(self, store: RowStore, acc: KeySums, fold) -> KeySums:
        """``acc`` folded over every row of ``store``: the whole table in
        one pass when events are kept, else just the ring's pending tail."""
        if self.keep_events:
            acc.clear()
            fold(acc, *store.matrices())
        else:
            store.seal()
        return acc

    # -- read path --------------------------------------------------------

    @property
    def event_count(self) -> int:
        return self._events.count

    @property
    def counter_count(self) -> int:
        return self._counters.count

    def nbytes(self) -> int:
        """Approximate resident bytes of the columnar storage."""
        return self._events.nbytes() + self._counters.nbytes()

    def columns(self) -> dict[str, np.ndarray]:
        """The event table as named column arrays (empty in ring mode)."""
        return self._events.columns()

    def counter_columns(self) -> dict[str, np.ndarray]:
        """The counter table as named column arrays (empty in ring mode)."""
        return self._counters.columns()

    def segment(self, index: int) -> Segment:
        """Materialize the ``index``-th event as a Segment object."""
        (matrix,) = self._events.matrices()
        rank, vid, kind, start, end, wait, op = matrix[index].tolist()
        return Segment(
            rank=int(rank),
            vid=int(vid),
            kind=SegmentKind(int(kind)),
            start=start,
            end=end,
            wait=wait,
            mpi_op=_op_from_code(int(op)),
        )

    def segments(self) -> RowView:
        """The events as lazy :class:`Segment` objects (none in ring mode)."""
        return RowView(self._events.count if self.keep_events else 0, self.segment)

    # -- per-vertex aggregation --------------------------------------------

    def _aggregate_events(self) -> tuple[dict, dict, dict]:
        """(vertex_time, vertex_wait, vertex_visits) from the event table."""
        if self._agg_count != self._events.count:
            self._agg_count = self._events.count
            acc = self._sums(self._events, self._event_acc, _fold_events)
            keys = acc.keys
            time, wait, waited, visits = acc.columns
            self._aggregates = (
                dict(zip(keys, time)),
                dict(compress(zip(keys, wait), waited)),
                dict(zip(keys, visits)),
            )
        return self._aggregates

    def vertex_time(self) -> dict[tuple[int, int], float]:
        return self._aggregate_events()[0]

    def vertex_wait(self) -> dict[tuple[int, int], float]:
        return self._aggregate_events()[1]

    def vertex_visits(self) -> dict[tuple[int, int], int]:
        return self._aggregate_events()[2]

    def vertex_counters(self) -> dict[tuple[int, int], PerfCounters]:
        if self._cagg_count != self._counters.count:
            self._cagg_count = self._counters.count
            acc = self._sums(self._counters, self._counter_acc, _fold_counters)
            self._counter_agg = dict(zip(acc.keys, map(PerfCounters, *acc.columns)))
        return self._counter_agg

    # -- serialization (Session artifact cache) ----------------------------

    def to_doc(self) -> dict:
        """Compact JSON-safe form (base64-packed little-endian columns).

        Includes the communication record tables; ``from_doc`` also accepts
        documents without them (their ``p2p``/``collectives`` load empty).
        """
        if not self.keep_events:
            raise ValueError("a ring-mode TraceBuffer has no events to serialize")
        return {
            "format": "scalana-trace-v1",
            **self._events.to_doc(),
            **self._counters.to_doc(),
            "p2p": self.p2p.to_doc(),
            "collectives": self.collectives.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TraceBuffer":
        if doc.get("format") != "scalana-trace-v1":
            raise ValueError("not a serialized TraceBuffer")
        buf = cls(keep_events=True)
        buf._events.load(doc)
        buf._counters.load(doc)
        if "p2p" in doc:
            buf.p2p = P2PTable.from_doc(doc["p2p"])
        if "collectives" in doc:
            buf.collectives = CollectiveTable.from_doc(doc["collectives"])
        return buf
