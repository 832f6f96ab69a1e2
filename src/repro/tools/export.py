"""Graph exporters: DOT (Graphviz) and GraphML for PSGs and PPGs.

ScalAna's GUI renders the structure graphs; in this reproduction they can
be exported for any external viewer.  The DOT output encodes vertex types
as shapes/colors (Loop=ellipse, Branch=diamond, Comp=box, MPI=house) and
edge kinds as styles (control=solid, seq=dashed, comm=bold red with the
waiting time as label).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import networkx as nx

from repro.detection.report import DetectionReport
from repro.ppg.build import PPG
from repro.psg.graph import PSG, VertexType

__all__ = [
    "psg_to_dot",
    "ppg_to_dot",
    "psg_to_graphml",
    "report_to_json",
    "sanitize_json_floats",
    "write_text",
]

_SHAPE = {
    VertexType.ROOT: ("doublecircle", "gray90"),
    VertexType.LOOP: ("ellipse", "lightblue"),
    VertexType.BRANCH: ("diamond", "lightyellow"),
    VertexType.COMP: ("box", "white"),
    VertexType.MPI: ("house", "lightsalmon"),
    VertexType.CALL: ("component", "plum"),
}


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def psg_to_dot(psg: PSG, *, include_locations: bool = True) -> str:
    """Render a PSG as a Graphviz digraph."""
    lines = [
        "digraph PSG {",
        "  rankdir=TB;",
        "  node [fontname=monospace fontsize=10];",
    ]
    for v in psg.vertices.values():
        shape, fill = _SHAPE[v.vtype]
        label = v.label
        if include_locations:
            label += f"\\n{v.location}"
        lines.append(
            f"  n{v.vid} [label={_quote(label)} shape={shape} "
            f"style=filled fillcolor={fill}];"
        )
    for v in psg.vertices.values():
        for i, child in enumerate(v.children):
            lines.append(f"  n{v.vid} -> n{child};")
            if i > 0:
                lines.append(
                    f"  n{v.children[i - 1]} -> n{child} [style=dashed color=gray];"
                )
        if v.recursion_target is not None:
            lines.append(
                f"  n{v.vid} -> n{v.recursion_target} "
                "[style=dotted color=purple label=recursion];"
            )
    lines.append("}")
    return "\n".join(lines)


def ppg_to_dot(ppg: PPG, *, max_ranks: int | None = 8) -> str:
    """Render a PPG as a Graphviz digraph, one cluster per rank.

    Large PPGs are unreadable; ``max_ranks`` truncates to the first ranks
    (pass ``None`` for everything).
    """
    ranks = range(ppg.nprocs if max_ranks is None else min(ppg.nprocs, max_ranks))
    shown = set(ranks)
    lines = [
        "digraph PPG {",
        "  rankdir=TB;",
        "  node [fontname=monospace fontsize=9];",
    ]
    for rank in ranks:
        lines.append(f"  subgraph cluster_rank{rank} {{")
        lines.append(f'    label="rank {rank}"; color=gray;')
        for v in ppg.psg.vertices.values():
            shape, fill = _SHAPE[v.vtype]
            t = ppg.time((rank, v.vid))
            label = f"{v.label}\\n{t:.3f}s"
            lines.append(
                f"    r{rank}n{v.vid} [label={_quote(label)} shape={shape} "
                f"style=filled fillcolor={fill}];"
            )
        for v in ppg.psg.vertices.values():
            for child in v.children:
                lines.append(f"    r{rank}n{v.vid} -> r{rank}n{child};")
        lines.append("  }")
    for node, edges in ppg.comm_in_edge_items():
        recv_rank, wait_vid = node
        if recv_rank not in shown:
            continue
        for e in edges:
            if e.send_rank not in shown:
                continue
            lines.append(
                f"  r{e.send_rank}n{e.send_vid} -> r{recv_rank}n{wait_vid} "
                f'[color=red penwidth=2 label="{e.max_wait * 1e3:.1f}ms"];'
            )
    lines.append("}")
    return "\n".join(lines)


def psg_to_graphml(psg: PSG, path: str | Path) -> None:
    """Write a PSG as GraphML (via networkx) for graph tools."""
    g = psg.to_networkx()
    nx.write_graphml(g, str(path))


def sanitize_json_floats(obj):
    """Replace non-finite floats (NaN/inf) with ``None``, recursively.

    Simulation ground truth legitimately contains NaN sentinels — e.g. an
    irecv that matched but was never waited on keeps ``NaN`` in its
    ``completion`` column (surfacing as ``P2PRecord.completion = nan``
    through the row views) — and ``json.dumps`` happily serializes them as
    bare ``NaN``, which is *not* JSON and breaks every downstream parser.
    Exports sanitize to ``null`` instead.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: sanitize_json_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json_floats(x) for x in obj]
    return obj


def report_to_json(report: DetectionReport, *, indent: int | None = 2) -> str:
    """A DetectionReport as a JSON document (``scalana ... --json``).

    Non-finite floats become ``null`` and ``allow_nan=False`` guarantees
    the output is strictly parseable JSON.
    """
    doc = sanitize_json_floats(report.to_json_dict())
    return json.dumps(doc, indent=indent, sort_keys=False, allow_nan=False)


def write_text(text: str, path: str | Path) -> int:
    data = text.encode()
    Path(path).write_bytes(data)
    return len(data)
