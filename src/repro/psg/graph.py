"""The Program Structure Graph (PSG) data model.

A PSG (paper §III-A) is a per-process sketch of the program: vertices are
the main computation and communication components plus control structures
(``Root``, ``Loop``, ``Branch``, ``Comp``, ``MPI``, and unresolved
``Call``s); the vertex order encodes execution order based on data and
control flow.

Representation
--------------
We store the PSG as an ordered tree plus auxiliary edges:

* every vertex has a ``parent`` and an ordered ``children`` list — for
  ``Loop``/``Branch``/``Root`` vertices the children are the body in
  execution order (branch children carry an ``arm`` tag),
* *data-dependence* (execution-order) predecessor of a vertex is its
  previous sibling, or its parent when it is the first child — exactly the
  backward edges Algorithm 1 walks,
* *control-dependence* edges go from a ``Loop``/``Branch`` vertex into its
  body; walking one backward from the structure vertex lands on the body's
  last vertex,
* recursion keeps an explicit cycle edge (``recursion_target``), and
  indirect calls keep a ``Call`` vertex refined at runtime (§III-B3).

Vertex identity is stable across ranks and scales: the PSG is built once
from source, then replicated per process into the PPG.  ``stmt_index`` maps
``(inline_path, stmt_id)`` — the static call path and the source statement —
to the vertex id, which is how runtime profiling data lands on the right
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Iterator

import networkx as nx

from repro.minilang.ast_nodes import MpiOp
from repro.minilang.errors import SourceLocation

__all__ = ["VertexType", "PSGVertex", "PSG", "InlinePath"]

#: A static call path: the tuple of call-site statement ids from main down
#: to the function instance a vertex was inlined from.
InlinePath = tuple[int, ...]


class VertexType(Enum):
    ROOT = "Root"
    LOOP = "Loop"
    BRANCH = "Branch"
    COMP = "Comp"
    MPI = "MPI"
    CALL = "Call"  # unresolved (indirect or recursive) call


@dataclass
class PSGVertex:
    vid: int
    vtype: VertexType
    name: str
    location: SourceLocation
    #: Source statement ids folded into this vertex (>1 after contraction).
    stmt_ids: list[int] = field(default_factory=list)
    #: Call path of inlined call-site stmt ids leading to this vertex.
    inline_path: InlinePath = ()
    #: Name of the function the underlying statement(s) came from.
    function: str = ""
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    #: For children of a Branch: which arm ("then"/"else"); else "".
    arm: str = ""
    #: For MPI vertices: which operation.
    mpi_op: MpiOp | None = None
    #: For Call vertices: True when the callee is a function pointer.
    indirect: bool = False
    #: For recursive Call vertices: vid of the already-inlined instance.
    recursion_target: int | None = None
    #: Loop nesting depth (Loop vertices only; 1 = outermost).
    loop_depth: int = 0

    @property
    def label(self) -> str:
        """Display label, e.g. ``MPI_Allreduce`` or ``Loop nudt.F:155``."""
        if self.vtype is VertexType.MPI and self.mpi_op is not None:
            return self.mpi_op.display_name
        if self.name:
            return f"{self.vtype.value} {self.name}"
        return f"{self.vtype.value} {self.location}"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PSGVertex({self.vid}, {self.label}, loc={self.location})"


class PSG:
    """The Program Structure Graph of one program (single static copy)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.vertices: dict[int, PSGVertex] = {}
        self._next_id = 0
        self.root_id: int | None = None
        #: (inline_path, stmt_id) -> vid; how runtime samples find vertices.
        self.stmt_index: dict[tuple[InlinePath, int], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def new_vertex(
        self,
        vtype: VertexType,
        name: str,
        location: SourceLocation,
        *,
        stmt_ids: list[int] | None = None,
        inline_path: InlinePath = (),
        function: str = "",
        parent: int | None = None,
        arm: str = "",
        mpi_op: MpiOp | None = None,
        indirect: bool = False,
        loop_depth: int = 0,
    ) -> PSGVertex:
        v = PSGVertex(
            vid=self._next_id,
            vtype=vtype,
            name=name,
            location=location,
            stmt_ids=list(stmt_ids or []),
            inline_path=inline_path,
            function=function,
            parent=parent,
            arm=arm,
            mpi_op=mpi_op,
            indirect=indirect,
            loop_depth=loop_depth,
        )
        self._next_id += 1
        self.vertices[v.vid] = v
        if parent is not None:
            self.vertices[parent].children.append(v.vid)
        if vtype is VertexType.ROOT:
            if self.root_id is not None:
                raise ValueError("PSG already has a root")
            self.root_id = v.vid
        for sid in v.stmt_ids:
            self.stmt_index[(inline_path, sid)] = v.vid
        return v

    def copy(self) -> PSG:
        """A structural copy that may be mutated without touching ``self``.

        Each vertex is a new object with its own ``children`` and
        ``stmt_ids`` lists, and the index is a new dict; every other field
        is immutable and shared.
        """
        out = PSG(self.name)
        out._next_id = self._next_id
        out.root_id = self.root_id
        out.stmt_index = dict(self.stmt_index)
        for vid, v in self.vertices.items():
            out.vertices[vid] = PSGVertex(
                **{**v.__dict__, "children": list(v.children), "stmt_ids": list(v.stmt_ids)}
            )
        return out

    @property
    def root(self) -> PSGVertex:
        if self.root_id is None:
            raise ValueError("PSG has no root")
        return self.vertices[self.root_id]

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, vid: int) -> bool:
        return vid in self.vertices

    def vertex(self, vid: int) -> PSGVertex:
        return self.vertices[vid]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def iter_preorder(self, start: int | None = None) -> Iterator[PSGVertex]:
        """Depth-first pre-order over the structural tree."""
        start_id = self.root_id if start is None else start
        if start_id is None:
            return
        stack = [start_id]
        while stack:
            vid = stack.pop()
            v = self.vertices[vid]
            yield v
            stack.extend(reversed(v.children))

    def subtree_ids(self, vid: int) -> list[int]:
        return [v.vid for v in self.iter_preorder(vid)]

    def prev_in_order(self, vid: int) -> int | None:
        """Backward data-dependence step: previous sibling, else parent."""
        v = self.vertices[vid]
        if v.parent is None:
            return None
        siblings = self.vertices[v.parent].children
        idx = siblings.index(vid)
        if idx > 0:
            return siblings[idx - 1]
        return v.parent

    def last_body_vertex(self, vid: int) -> int | None:
        """Backward control-dependence step for a Loop/Branch: the last
        vertex of its body (``None`` for an empty body)."""
        children = self.vertices[vid].children
        return children[-1] if children else None

    def depth_of(self, vid: int) -> int:
        """Distance to the root along parent links."""
        depth = 0
        v = self.vertices[vid]
        while v.parent is not None:
            depth += 1
            v = self.vertices[v.parent]
        return depth

    def has_mpi_in_subtree(self, vid: int) -> bool:
        return any(v.vtype is VertexType.MPI for v in self.iter_preorder(vid))

    # ------------------------------------------------------------------
    # statistics (Table II)
    # ------------------------------------------------------------------

    def count_by_type(self) -> dict[VertexType, int]:
        counts = {t: 0 for t in VertexType}
        for v in self.vertices.values():
            counts[v.vtype] += 1
        return counts

    def stats(self) -> dict[str, int]:
        by_type = self.count_by_type()
        return {
            "total": len(self.vertices),
            "loop": by_type[VertexType.LOOP],
            "branch": by_type[VertexType.BRANCH],
            "comp": by_type[VertexType.COMP],
            "mpi": by_type[VertexType.MPI],
            "call": by_type[VertexType.CALL],
        }

    # ------------------------------------------------------------------
    # queries used by detection / reports
    # ------------------------------------------------------------------

    def mpi_vertices(self) -> list[PSGVertex]:
        return [v for v in self.vertices.values() if v.vtype is VertexType.MPI]

    def find_by_location(self, filename: str, line: int) -> list[PSGVertex]:
        return [
            v
            for v in self.vertices.values()
            if v.location.filename == filename and v.location.line == line
        ]

    def calling_path(self, vid: int) -> list[PSGVertex]:
        """Vertices from the root down to ``vid`` (inclusive)."""
        path = []
        v = self.vertices[vid]
        while True:
            path.append(v)
            if v.parent is None:
                break
            v = self.vertices[v.parent]
        path.reverse()
        return path

    def lookup_stmt(self, inline_path: InlinePath, stmt_id: int) -> int | None:
        """Resolve a runtime (call-path, statement) to a PSG vertex id.

        Falls back to progressively shorter inline paths so that samples in
        recursive instances (which are *not* inlined beyond the first level)
        still land on the representative vertex.
        """
        path = tuple(inline_path)
        while True:
            vid = self.stmt_index.get((path, stmt_id))
            if vid is not None:
                return vid
            if not path:
                return None
            path = path[:-1]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_networkx(self) -> nx.DiGraph:
        """Directed graph with structural + execution-order + cycle edges.

        Edge ``kind`` attribute: ``control`` (structure vertex -> child),
        ``seq`` (sibling execution order), ``recursion`` (call cycle).
        """
        g = nx.DiGraph(name=self.name)
        for v in self.vertices.values():
            g.add_node(
                v.vid,
                vtype=v.vtype.value,
                label=v.label,
                location=str(v.location),
            )
        for v in self.vertices.values():
            for i, child in enumerate(v.children):
                g.add_edge(v.vid, child, kind="control")
                if i > 0:
                    g.add_edge(v.children[i - 1], child, kind="seq")
            if v.recursion_target is not None:
                g.add_edge(v.vid, v.recursion_target, kind="recursion")
        return g
