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

from collections import defaultdict
from dataclasses import dataclass

import networkx as nx

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
        #: (recv_rank, wait_vid) -> incoming comm edges (possibly pruned)
        self._in_edges: dict[PPGNode, list[_InEdge]] = defaultdict(list)
        self._collective_vids: set[int] = set()
        #: vid -> per-rank times; the backtracking walk scores every node by
        #: its cross-rank profile, so this is recomputed thousands of times
        #: per detection without caching
        self._vertex_times_cache: dict[int, list[float]] = {}
        self._index_edges()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _index_edges(self) -> None:
        for key, edge in self.comm.edges.items():
            count, max_wait = self.comm.edge_stats[key]
            if self.prune_no_wait and max_wait <= self.wait_threshold:
                # Paper §IV-B: "we only preserve the communication
                # dependence edge if a waiting event exists".
                continue
            node = (edge.recv_rank, edge.wait_vid)
            self._in_edges[node].append(
                _InEdge(
                    send_rank=edge.send_rank,
                    send_vid=edge.send_vid,
                    max_wait=max_wait,
                    nbytes=edge.nbytes,
                    tag=edge.tag,
                    count=count,
                )
            )
        for edges in self._in_edges.values():
            # Total order over every field: the ranking is a pure function
            # of the edge set, independent of the (drain-dependent)
            # discovery order the edges dict was populated in.
            edges.sort(
                key=lambda e: (
                    -e.max_wait, e.send_rank, e.send_vid, e.tag, e.nbytes,
                    e.count,
                )
            )
        for v in self.psg.vertices.values():
            if v.vtype is VertexType.MPI and v.mpi_op in COLLECTIVE_OPS:
                self._collective_vids.add(v.vid)

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
        axis of the abnormal-vertex detector.  Cached: callers must not
        mutate the returned list."""
        times = self._vertex_times_cache.get(vid)
        if times is None:
            times = self.profile.vertex_times(vid)
            self._vertex_times_cache[vid] = times
        return times

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
        return self._in_edges.get(node, [])

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
        for node, edges in self._in_edges.items():
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
        return sum(len(edges) for edges in self._in_edges.values())


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
