"""PMPI-style communication-dependence collection (paper §III-B2).

ScalAna interposes on MPI calls (via PMPI) and applies two techniques this
module reproduces faithfully:

* **Sampling-based instrumentation** — a random number is drawn at each
  interposed call; parameters are recorded only when it falls below the
  sampling threshold, so regular patterns are still captured without paying
  full-trace cost (Vetter's random sampling [28]).
* **Graph-guided communication compression** — the PSG already encodes the
  program's communication structure, so a (vertex, peer, tag, size) tuple is
  stored only once no matter how many loop iterations repeat it.

The request-converter of the paper's Fig. 5 is implemented explicitly:
``irecv`` stores ``(source, tag)`` keyed by request; at ``wait`` time, if
either was a wildcard, the actual values are taken from the matched message
(the simulated ``status.MPI_SOURCE`` / ``status.MPI_TAG``).  The converter
mirrors the mechanism only — its equivalence with the direct values is
proven by a dedicated test over wildcard-heavy workloads
(``tests/test_comm_tables.py``), not re-checked inside the collection hot
path.

**Vectorized collection.**  :func:`collect_comm_dependence` reads the
struct-of-arrays record tables (:class:`~repro.simulator.trace.P2PTable` /
:class:`~repro.simulator.trace.CollectiveTable`) directly instead of
walking per-message record objects.  Unique edges come from one stable
lexsort over the seven key columns, with counts and max waits reduced per
group (``np.maximum.reduceat``); each edge is built once, from the
``tolist()`` key columns of its first row.  Collective instances take
their worst waits and laggards from
:meth:`~repro.simulator.trace.CollectiveTable.wait_columns`, sort their
participants by rank once per table, and group by signature, so one
:class:`CollectiveGroup` is built per signature, not per instance.  The
content-derived sampling draws batch a shared BLAKE2b prefix over the key
columns.  The output — every dict, every value, every insertion order —
is bit-identical to the historical object-walking loop (property-tested
against it over randomized workloads and hand-built collective tables).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.minilang.ast_nodes import MpiOp
from repro.simulator.engine import SimulationResult
from repro.simulator.trace import MPI_CODE_TO_OP
from repro.util.rng import derive_seed_prefix, derive_seeds

__all__ = ["CommEdge", "CollectiveGroup", "CommDependence", "collect_comm_dependence"]


@dataclass(frozen=True)
class CommEdge:
    """One *unique* point-to-point dependence (after compression)."""

    send_rank: int
    send_vid: int
    recv_rank: int
    recv_vid: int
    wait_vid: int
    tag: int
    nbytes: int

    def key(self) -> tuple:
        return (
            self.send_rank,
            self.send_vid,
            self.recv_rank,
            self.recv_vid,
            self.wait_vid,
            self.tag,
            self.nbytes,
        )


@dataclass(frozen=True)
class CollectiveGroup:
    """One unique collective signature: op + per-rank vertex + size."""

    mpi_op: MpiOp
    root: int
    nbytes: int
    vids: tuple[tuple[int, int], ...]  # sorted (rank, vid) pairs

    def key(self) -> tuple:
        return (self.mpi_op, self.root, self.nbytes, self.vids)


@dataclass
class CommDependence:
    """Compressed communication-dependence data of one run."""

    edges: dict[tuple, CommEdge] = field(default_factory=dict)
    #: per edge key: (observation count, max waiting time seen)
    edge_stats: dict[tuple, tuple[int, float]] = field(default_factory=dict)
    groups: dict[tuple, CollectiveGroup] = field(default_factory=dict)
    #: per group key: (count, max wait seen, laggard rank everyone waited for)
    group_stats: dict[tuple, tuple[int, float, int]] = field(default_factory=dict)
    observed_events: int = 0
    recorded_events: int = 0
    #: (inline_path, stmt_id) -> set of observed indirect-call targets
    indirect_targets: dict[tuple, set[str]] = field(default_factory=dict)

    def edge_list(self) -> list[CommEdge]:
        return list(self.edges.values())

    def max_wait(self, edge: CommEdge) -> float:
        return self.edge_stats.get(edge.key(), (0, 0.0))[1]

    @property
    def compression_ratio(self) -> float:
        """Observed / stored — the win of graph-guided compression."""
        stored = len(self.edges) + len(self.groups)
        if stored == 0:
            return 1.0
        return self.observed_events / stored


class _RequestConverter:
    """Fig. 5's ``requestConverter``: resolves wildcard source/tag at wait.

    In the simulator the matched message always knows its true source and
    tag, so this class only mirrors the mechanism (store declared values at
    irecv, override from "status" at wait when uncertain).  The vectorized
    collection path reads the true values from the record table directly;
    the converter's equivalence with them is proven by
    ``tests/test_comm_tables.py`` over wildcard-heavy workloads instead of
    an assert in the collection hot loop (which ``python -O`` would have
    silently dropped anyway).
    """

    def __init__(self) -> None:
        self._declared: dict[int, tuple[object, object]] = {}

    def on_irecv(self, record_id: int, src: object, tag: object) -> None:
        self._declared[record_id] = (src, tag)

    def on_wait(self, record_id: int, status_src: int, status_tag: int) -> tuple[int, int]:
        declared_src, declared_tag = self._declared.pop(record_id, (None, None))
        src = declared_src if isinstance(declared_src, int) else status_src
        tag = declared_tag if isinstance(declared_tag, int) else status_tag
        return src, tag


#: Edge identity, in CommEdge.key() order (what the lexsort groups by).
_EDGE_KEY_COLUMNS = (
    "send_rank", "send_vid", "recv_rank", "recv_vid", "wait_vid",
    "tag", "nbytes",
)


def _sampling_prefix(seed: int):
    """The shared BLAKE2b prefix of every keep/drop draw of one run."""
    return derive_seed_prefix(seed, "comm_sampling")


def _p2p_keep_mask(seed: int, threshold: float, cols: dict) -> np.ndarray:
    """Keep/drop mask over the P2P table, batched over the key columns.

    Bit-identical to per-record ``derive_seed(seed, "comm_sampling",
    "p2p", send_rank, ..., recv_post)`` draws: each row's key-path suffix
    is byte-built from the columns (ints and floats ``repr`` exactly as
    the record attributes would) and hashed onto a copied shared prefix.
    """
    prefix = _sampling_prefix(seed)
    suffixes = (
        f"/'p2p'/{sr}/{sv}/{rr}/{rv}/{tag}/{nb}/{st!r}/{rp!r}".encode()
        for sr, sv, rr, rv, tag, nb, st, rp in zip(
            cols["send_rank"].tolist(), cols["send_vid"].tolist(),
            cols["recv_rank"].tolist(), cols["recv_vid"].tolist(),
            cols["tag"].tolist(), cols["nbytes"].tolist(),
            cols["send_time"].tolist(), cols["recv_post"].tolist(),
        )
    )
    # Exact int-vs-float comparison per draw (float64-converting the 63-bit
    # draws could flip decisions within one ulp of the threshold).
    draws = derive_seeds(prefix, suffixes)
    return np.fromiter(
        (d < threshold for d in draws), dtype=bool, count=len(draws)
    )


def _collective_keep_mask(
    seed: int, threshold: float, indices: np.ndarray
) -> np.ndarray:
    """Keep/drop mask over the collective table (key = instance index)."""
    prefix = _sampling_prefix(seed)
    suffixes = (
        f"/'collective'/{idx}".encode() for idx in indices.tolist()
    )
    draws = derive_seeds(prefix, suffixes)
    return np.fromiter(
        (d < threshold for d in draws), dtype=bool, count=len(draws)
    )


def _collect_p2p(dep: CommDependence, result: SimulationResult,
                 sample_probability: float, threshold: float, seed: int) -> None:
    """Fold the P2P table into ``dep`` (edges + stats), vectorized."""
    table = result.trace.p2p
    n = table.row_count
    dep.observed_events += n
    if not n:
        return
    cols = table.columns()
    if sample_probability < 1.0:
        keep = _p2p_keep_mask(seed, threshold, cols)
        cols = {name: arr[keep] for name, arr in cols.items()}
        m = len(cols["send_rank"])
    else:
        m = n
    dep.recorded_events += m
    if not m:
        return
    key_cols = [cols[name] for name in _EDGE_KEY_COLUMNS]
    # Stable lexsort (last key primary) so equal-key runs keep their
    # original record order: the first row of each run is the edge's first
    # occurrence, which fixes the dicts' insertion order to match the
    # historical record-walking loop exactly.
    order = np.lexsort(tuple(reversed(key_cols)))
    boundary = np.zeros(m, dtype=bool)
    boundary[0] = True
    for c in key_cols:
        c = c[order]
        boundary[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, m))
    max_waits = np.maximum.reduceat(cols["wait_time"][order], starts)
    first_rows = order[starts]  # original row of each group's first record
    by_first = np.argsort(first_rows, kind="stable")
    firsts = first_rows[by_first]
    keys = list(zip(*(c[firsts].tolist() for c in key_cols)))
    dep.edges.update(zip(keys, itertools.starmap(CommEdge, keys)))
    dep.edge_stats.update(zip(keys, zip(
        counts[by_first].tolist(),
        [max(0.0, w) for w in max_waits[by_first].tolist()],
    )))


def _collect_collectives(dep: CommDependence, result: SimulationResult,
                         sample_probability: float, threshold: float,
                         seed: int) -> None:
    """Fold the collective table into ``dep`` (groups + stats), vectorized.

    Each instance's worst wait and laggard come from
    :meth:`~repro.simulator.trace.CollectiveTable.wait_columns`.  Kept
    instances are grouped by signature (op, root, size and the
    participants' ``(rank, vid)`` pairs by rank), and one
    :class:`CollectiveGroup` is built per signature.  A signature's
    laggard is the laggard of its last instance whose worst wait equals
    the signature's maximum: the instance where a running
    ``worst >= max_wait`` test over the instances last holds.
    """
    table = result.trace.collectives
    n = table.row_count
    dep.observed_events += n
    if not n:
        return
    cols = table.columns()
    if sample_probability < 1.0:
        kept = np.flatnonzero(_collective_keep_mask(seed, threshold, cols["index"]))
    else:
        kept = np.arange(n)
    dep.recorded_events += len(kept)
    if not len(kept):
        return
    waits = table.wait_columns()
    offsets = cols["offsets"]
    worsts = np.maximum.reduceat(waits["wait"], offsets[:-1])[kept]
    laggards = waits["laggard"][kept]
    # each instance's participants as (rank, vid) rows sorted by rank
    by_rank = np.lexsort((cols["part_rank"], waits["row"]))
    pairs = np.stack((cols["part_rank"][by_rank], cols["part_vid"][by_rank]), axis=1)
    number: dict[tuple, int] = {}
    group_of = np.fromiter(
        (
            number.setdefault((op, root, nbytes, pairs[lo:hi].tobytes()), len(number))
            for op, root, nbytes, lo, hi in zip(
                cols["op"][kept].tolist(), cols["root"][kept].tolist(),
                cols["nbytes"][kept].tolist(), offsets[kept].tolist(),
                offsets[kept + 1].tolist(),
            )
        ),
        dtype=np.int64, count=len(kept),
    )
    k = len(number)
    top = np.full(k, -np.inf)
    np.maximum.at(top, group_of, worsts)
    last = np.full(k, -1, dtype=np.int64)
    at_top = np.flatnonzero(worsts == top[group_of])
    np.maximum.at(last, group_of[at_top], at_top)
    for (op, root, nbytes, blob), count, worst, laggard in zip(
        number, np.bincount(group_of, minlength=k).tolist(), top.tolist(),
        laggards[last].tolist(),
    ):
        vids = np.frombuffer(blob, dtype=np.int64).reshape(-1, 2).tolist()
        group = CollectiveGroup(
            mpi_op=MPI_CODE_TO_OP[op], root=root, nbytes=nbytes,
            vids=tuple(map(tuple, vids)),
        )
        key = group.key()
        dep.groups[key] = group
        dep.group_stats[key] = (count, max(0.0, worst), laggard)


def collect_comm_dependence(
    result: SimulationResult,
    *,
    sample_probability: float = 1.0,
    seed: int = 0,
) -> CommDependence:
    """Run the interposition layer over a simulation's recorded tables.

    ``sample_probability`` is the random-instrumentation threshold: 1.0
    records every call (the compression still deduplicates); lower values
    trade completeness for overhead, as the paper's technique does.

    Each event's keep/drop draw is derived from the seed plus the event's
    *content* (peers, vertices, timestamps), not from a sequential stream:
    the decision is then a pure function of the event, independent of
    record order, so the two engine drains — whose global record orders
    differ (see ``Engine.drain``) — sample the identical subset.
    (Events with fully identical content draw identically; for the
    Vetter-style overhead model that correlation is irrelevant.)
    """
    if not (0.0 < sample_probability <= 1.0):
        raise ValueError("sample_probability must be in (0, 1]")
    threshold = sample_probability * float(2**63)

    dep = CommDependence()
    _collect_p2p(dep, result, sample_probability, threshold, seed)
    _collect_collectives(dep, result, sample_probability, threshold, seed)
    for note in result.indirect_notes:
        key = (note.inline_path, note.stmt_id)
        dep.indirect_targets.setdefault(key, set()).add(note.target)
    return dep
