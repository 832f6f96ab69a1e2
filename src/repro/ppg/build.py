"""Program Performance Graph assembly (paper §III-C).

"As each process shares the same source code, we can duplicate the PSG for
all processes.  Then we add inter-process edges based on communication
dependence collected at the runtime analysis."

A PPG node is the pair ``(rank, vid)``.  The per-process structure (data and
control dependence) comes from the shared PSG; the inter-process edges come
from the compressed :class:`~repro.runtime.interposition.CommDependence`;
the per-node performance vectors come from the sampling profile.

The PPG exposes exactly the backward-traversal steps Algorithm 1 needs:

* ``data_dep_pred``  — previous vertex in execution order on the same rank,
* ``control_dep_pred`` — from a Loop/Branch vertex to the end of its body,
* ``comm_pred``      — from a vertex where waiting occurred to the matched
  sender's vertex on the sending rank (pruned to edges with waiting events).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.minilang.ast_nodes import COLLECTIVE_OPS
from repro.psg.graph import PSG, VertexType
from repro.runtime.interposition import CommDependence
from repro.runtime.perfdata import PerformanceVector
from repro.runtime.sampling import SamplingProfile

__all__ = ["PPGNode", "PPG", "build_ppg"]

#: A PPG node: (rank, PSG vertex id).
PPGNode = tuple[int, int]


@dataclass
class _InEdge:
    send_rank: int
    send_vid: int
    max_wait: float
    nbytes: int
    tag: int
    count: int


class PPG:
    """The per-execution performance graph of one (program, nprocs) run."""

    def __init__(
        self,
        psg: PSG,
        nprocs: int,
        profile: SamplingProfile,
        comm: CommDependence,
        *,
        prune_no_wait: bool = True,
        wait_threshold: float = 0.0,
    ) -> None:
        self.psg = psg
        self.nprocs = nprocs
        self.profile = profile
        self.comm = comm
        self.prune_no_wait = prune_no_wait
        self.wait_threshold = wait_threshold
        self._collective_vids = {
            v.vid for v in psg.vertices.values()
            if v.vtype is VertexType.MPI and v.mpi_op in COLLECTIVE_OPS
        }
        self._index_edges()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _index_edges(self) -> None:
        """Sort the kept comm edges by receiving node, strongest first.

        One stable lexsort over the edge columns: by ``(recv_rank,
        wait_vid)``, then ``-max_wait, send_rank, send_vid, tag, nbytes,
        count``, a total order over every field, so the ranking is a pure
        function of the edge set, independent of the (drain-dependent)
        discovery order of the edge rows.  ``comm_in_edges`` builds a
        node's :class:`_InEdge` list from its slice on first request.
        """
        comm = self.comm
        keys, counts, waits = comm.edge_keys, comm.edge_counts, comm.edge_max_waits
        if self.prune_no_wait:
            # Paper §IV-B: "we only preserve the communication
            # dependence edge if a waiting event exists".
            kept = np.flatnonzero(~(waits <= self.wait_threshold))
            keys, counts, waits = keys[kept], counts[kept], waits[kept]
        send_rank, send_vid, recv_rank, _recv_vid, wait_vid, tag, nbytes = keys.T
        order = np.lexsort(
            (counts, nbytes, tag, send_vid, send_rank, -waits, wait_vid, recv_rank)
        )
        n = len(order)
        #: the kept edges' _InEdge fields, in sorted order
        self._rows = tuple(
            c[order] for c in (send_rank, send_vid, waits, nbytes, tag, counts)
        )
        #: (recv_rank, wait_vid) -> (lo, hi) slice of the sorted rows
        self._in_slices: dict[PPGNode, tuple[int, int]] = {}
        #: per node in ``_in_slices`` order: the first kept row it receives
        self._first_rows = np.zeros(0, dtype=np.int64)
        self._in_edges: dict[PPGNode, list[_InEdge]] = {}
        if n:
            r, v = recv_rank[order], wait_vid[order]
            boundary = np.ones(n, dtype=bool)
            boundary[1:] = (r[1:] != r[:-1]) | (v[1:] != v[:-1])
            starts = np.flatnonzero(boundary)
            self._in_slices = dict(zip(
                zip(r[starts].tolist(), v[starts].tolist()),
                zip(starts.tolist(), starts[1:].tolist() + [n]),
            ))
            self._first_rows = np.minimum.reduceat(order, starts)

    # ------------------------------------------------------------------
    # node data
    # ------------------------------------------------------------------

    def nodes(self) -> list[PPGNode]:
        return [(r, vid) for r in range(self.nprocs) for vid in self.psg.vertices]

    def perf(self, node: PPGNode) -> PerformanceVector:
        return self.profile.vector(node[0], node[1])

    def time(self, node: PPGNode) -> float:
        return self.perf(node).time

    def wait(self, node: PPGNode) -> float:
        return self.perf(node).wait

    def vertex_times(self, vid: int) -> list[float]:
        """Per-rank times of one PSG vertex — the location-aware comparison
        axis of the abnormal-vertex detector.  Shared with the profile:
        callers must not mutate the returned list."""
        return self.profile.vertex_times(vid)

    def vertex_means(self, vids: Iterable[int]) -> list[float]:
        """Mean time across ranks of each of ``vids`` (see
        :meth:`SamplingProfile.vertex_means`)."""
        return self.profile.vertex_means(vids)

    # ------------------------------------------------------------------
    # backward-traversal steps (Algorithm 1)
    # ------------------------------------------------------------------

    def is_root(self, node: PPGNode) -> bool:
        return node[1] == self.psg.root_id

    def is_collective(self, node: PPGNode) -> bool:
        return node[1] in self._collective_vids

    def is_mpi(self, node: PPGNode) -> bool:
        return self.psg.vertices[node[1]].vtype is VertexType.MPI

    def is_structure(self, node: PPGNode) -> bool:
        return self.psg.vertices[node[1]].vtype in (
            VertexType.LOOP,
            VertexType.BRANCH,
        )

    def data_dep_pred(self, node: PPGNode) -> PPGNode | None:
        prev = self.psg.prev_in_order(node[1])
        if prev is None:
            return None
        return (node[0], prev)

    def control_dep_pred(self, node: PPGNode) -> PPGNode | None:
        last = self.psg.last_body_vertex(node[1])
        if last is None:
            return None
        return (node[0], last)

    def comm_in_edges(self, node: PPGNode) -> list[_InEdge]:
        """Incoming comm edges of ``node``, strongest first.  Shared:
        callers must not mutate the returned list."""
        edges = self._in_edges.get(node)
        if edges is None:
            span = self._in_slices.get(node)
            if span is None:
                return []
            lo, hi = span
            edges = self._in_edges[node] = list(map(
                _InEdge, *(c[lo:hi].tolist() for c in self._rows)
            ))
        return edges

    def comm_in_edge_items(self) -> Iterator[tuple[PPGNode, list[_InEdge]]]:
        """``(node, comm_in_edges(node))`` for every node with kept
        incoming edges, in the order the edge rows first reach them."""
        nodes = list(self._in_slices)
        for i in np.argsort(self._first_rows, kind="stable").tolist():
            yield nodes[i], self.comm_in_edges(nodes[i])

    def comm_pred(self, node: PPGNode) -> PPGNode | None:
        """Strongest (longest-waiting) incoming communication dependence."""
        edges = self.comm_in_edges(node)
        if not edges:
            return None
        best = edges[0]
        return (best.send_rank, best.send_vid)

    def collective_laggard(self, vid: int) -> int | None:
        """The rank the other ranks waited for in the worst instance of the
        collective at PSG vertex ``vid`` (None if never waited / unknown)."""
        best: tuple[float, int] | None = None
        for key, group in self.comm.groups.items():
            if not any(v == vid for _r, v in group.vids):
                continue
            _count, max_wait, laggard = self.comm.group_stats[key]
            if laggard < 0:
                continue
            if best is None or max_wait > best[0]:
                best = (max_wait, laggard)
        return best[1] if best is not None else None

    # ------------------------------------------------------------------
    # export / summary
    # ------------------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Full PPG as a networkx digraph (intra-rank structure edges on
        every rank's PSG replica + inter-rank comm edges)."""
        g = nx.DiGraph()
        for rank in range(self.nprocs):
            for v in self.psg.vertices.values():
                g.add_node(
                    (rank, v.vid),
                    label=v.label,
                    vtype=v.vtype.value,
                    time=self.time((rank, v.vid)),
                )
            for v in self.psg.vertices.values():
                for i, child in enumerate(v.children):
                    g.add_edge((rank, v.vid), (rank, child), kind="control")
                    if i > 0:
                        g.add_edge(
                            (rank, v.children[i - 1]), (rank, child), kind="seq"
                        )
        for node, edges in self.comm_in_edge_items():
            for e in edges:
                g.add_edge(
                    (e.send_rank, e.send_vid),
                    node,
                    kind="comm",
                    wait=e.max_wait,
                    nbytes=e.nbytes,
                )
        return g

    def total_node_count(self) -> int:
        return self.nprocs * len(self.psg)

    def comm_edge_count(self) -> int:
        return len(self._rows[0])


def build_ppg(
    psg: PSG,
    nprocs: int,
    profile: SamplingProfile,
    comm: CommDependence,
    *,
    prune_no_wait: bool = True,
    wait_threshold: float = 0.0,
) -> PPG:
    """Assemble the PPG of one profiled run."""
    return PPG(
        psg,
        nprocs,
        profile,
        comm,
        prune_no_wait=prune_no_wait,
        wait_threshold=wait_threshold,
    )
