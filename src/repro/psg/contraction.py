"""PSG contraction (paper §III-A, third phase).

Complete PSGs are too large for efficient runtime annotation, so ScalAna
contracts them under two rules, both of which this module implements:

1. **Communication is sacred** — every MPI vertex and every control
   structure containing one is preserved.
2. **Computation is summarized** — structures without MPI keep only their
   Loops (loop iterations may dominate performance), bounded by the
   user-defined ``MaxLoopDepth``; everything else collapses into ``Comp``
   vertices, and consecutive sibling ``Comp`` vertices merge into one
   (Fig. 4(c): sequential Loop1.1/Loop1.2 merge when MaxLoopDepth = 1).

Contraction mutates a structural copy of the PSG (``PSG.copy``) and keeps
``stmt_index`` consistent: every absorbed (inline path, statement) key
still resolves — to the surviving merged vertex — so runtime samples
taken anywhere inside contracted code attribute correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.psg.graph import PSG, VertexType

__all__ = ["ContractionResult", "contract_psg", "DEFAULT_MAX_LOOP_DEPTH"]

#: The paper's evaluation setting (§VI-A).
DEFAULT_MAX_LOOP_DEPTH = 10


@dataclass(frozen=True)
class ContractionResult:
    """The contracted graph plus the statistics Table II reports."""

    psg: PSG
    vertices_before: int
    vertices_after: int

    @property
    def reduction(self) -> float:
        """Fraction of vertices removed (paper reports 68% on average)."""
        if self.vertices_before == 0:
            return 0.0
        return 1.0 - self.vertices_after / self.vertices_before


def contract_psg(
    psg: PSG, max_loop_depth: int = DEFAULT_MAX_LOOP_DEPTH
) -> ContractionResult:
    """Contract ``psg`` (non-destructively) with the given ``MaxLoopDepth``."""
    if max_loop_depth < 0:
        raise ValueError("max_loop_depth must be >= 0")
    before = len(psg)
    out = psg.copy()
    remap: dict[int, int] = {}
    _contract_structures(out, max_loop_depth, remap)
    _merge_comp_runs(out, remap)
    _reindex(out, remap)
    return ContractionResult(psg=out, vertices_before=before, vertices_after=len(out))


# ----------------------------------------------------------------------
# phase 1: dissolve MPI-free structures
# ----------------------------------------------------------------------


def _subtree_has_mpi(psg: PSG) -> dict[int, bool]:
    """Per-vertex flag: does the subtree contain any MPI vertex?"""
    has_mpi: dict[int, bool] = {}
    order: list[int] = []
    stack = [psg.root_id]
    while stack:
        vid = stack.pop()
        order.append(vid)
        stack.extend(psg.vertices[vid].children)
    for vid in reversed(order):
        v = psg.vertices[vid]
        flag = v.vtype is VertexType.MPI
        for c in v.children:
            flag = flag or has_mpi[c]
        has_mpi[vid] = flag
    return has_mpi


def _absorb_subtree(psg: PSG, vid: int, target: int, remap: dict[int, int]) -> list[int]:
    """Collect the stmt ids of the subtree under ``vid`` (exclusive of the
    vertex itself), deleting the descendants and recording their remap."""
    v = psg.vertices[vid]
    stmt_ids: list[int] = []
    for child in list(v.children):
        c = psg.vertices[child]
        stmt_ids.extend(c.stmt_ids)
        stmt_ids.extend(_absorb_subtree(psg, child, target, remap))
        remap[child] = target
        del psg.vertices[child]
    v.children.clear()
    return stmt_ids


def _contract_structures(psg: PSG, max_loop_depth: int, remap: dict[int, int]) -> None:
    """Convert MPI-free Branches and too-deep MPI-free Loops into Comp."""
    has_mpi = _subtree_has_mpi(psg)

    # Walk bottom-up so inner conversions happen before outer decisions.
    order: list[int] = []
    stack = [psg.root_id]
    while stack:
        vid = stack.pop()
        order.append(vid)
        stack.extend(psg.vertices[vid].children)

    for vid in reversed(order):
        v = psg.vertices.get(vid)
        if v is None:  # already absorbed into an ancestor
            continue
        if has_mpi[vid]:
            continue
        convert = False
        if v.vtype is VertexType.LOOP and v.loop_depth > max_loop_depth:
            convert = True
        elif v.vtype is VertexType.BRANCH:
            # Dissolve unless it still holds a preserved Loop.
            keeps_loop = any(
                psg.vertices[d].vtype is VertexType.LOOP
                for d in psg.subtree_ids(vid)
                if d != vid
            )
            convert = not keeps_loop
        if convert:
            absorbed = _absorb_subtree(psg, vid, vid, remap)
            v.vtype = VertexType.COMP
            v.stmt_ids = v.stmt_ids + absorbed
            v.mpi_op = None
            v.loop_depth = 0


# ----------------------------------------------------------------------
# phase 2: merge consecutive Comp siblings
# ----------------------------------------------------------------------


def _merge_comp_runs(psg: PSG, remap: dict[int, int]) -> None:
    for vid in list(psg.vertices):
        v = psg.vertices.get(vid)
        if v is None:
            continue
        new_children: list[int] = []
        run_head: int | None = None
        for child_id in v.children:
            child = psg.vertices[child_id]
            # Only merge within the same branch arm: then/else bodies are
            # alternative control flow, not sequential computation.
            if child.vtype is VertexType.COMP:
                if (
                    run_head is not None
                    and psg.vertices[run_head].arm == child.arm
                ):
                    head = psg.vertices[run_head]
                    head.stmt_ids.extend(child.stmt_ids)
                    remap[child_id] = run_head
                    del psg.vertices[child_id]
                    continue
                run_head = child_id
            else:
                run_head = None
            new_children.append(child_id)
        v.children = new_children


# ----------------------------------------------------------------------
# phase 3: rebuild the statement index
# ----------------------------------------------------------------------


def _resolve(remap: dict[int, int], vid: int) -> int:
    seen = set()
    while vid in remap:
        if vid in seen:  # pragma: no cover - defensive
            raise RuntimeError("cycle in contraction remap")
        seen.add(vid)
        vid = remap[vid]
    return vid


def _reindex(psg: PSG, remap: dict[int, int]) -> None:
    """Follow remap chains so every original index key resolves to a
    surviving vertex."""
    new_index: dict[tuple[tuple[int, ...], int], int] = {}
    for key, vid in psg.stmt_index.items():
        final = _resolve(remap, vid)
        if final in psg.vertices:
            new_index[key] = final
    psg.stmt_index = new_index
