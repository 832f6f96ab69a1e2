"""On-disk profile storage: what ``ScalAna-prof`` writes, ``-detect`` reads.

ScalAna is a post-mortem tool: the profiling phase persists its (tiny) data
and the detection phase loads it back.  Serializing for real keeps the
storage-cost numbers honest — the bytes reported by the storage benches are
actual file sizes, and a round-trip test asserts detection produces the
same report from loaded data.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from repro.minilang.ast_nodes import MpiOp
from repro.runtime import ProfiledRun
from repro.runtime.accounting import OverheadReport
from repro.runtime.interposition import (
    EDGE_KEY_COLUMNS,
    CollectiveGroup,
    CommDependence,
)
from repro.runtime.sampling import PERF_COLUMNS, SamplingProfile
from repro.simulator.trace import TraceBuffer
from repro.util.serialization import dump_json, load_json

__all__ = ["save_profile", "load_profile", "profile_file_bytes", "LoadedProfile"]


class LoadedProfile:
    """A ProfiledRun reconstructed from disk (no SimulationResult inside —
    detection never needs the ground truth, only the collected data).

    ``trace`` carries the run's columnar ground truth when the profile was
    saved with ``include_trace=True`` (None otherwise): the timeline
    columns plus the P2P/collective record tables, so post-mortem timeline
    rendering *and* re-running comm-dependence collection both work
    without re-simulating.  Pre-table documents load with empty record
    tables.
    """

    def __init__(
        self,
        nprocs: int,
        profile: SamplingProfile,
        comm: CommDependence,
        overhead: OverheadReport,
        app_time: float,
        trace: TraceBuffer | None = None,
    ) -> None:
        self.nprocs = nprocs
        self.profile = profile
        self.comm = comm
        self.overhead = overhead
        self._app_time = app_time
        self.trace = trace

    @property
    def app_time(self) -> float:
        return self._app_time


def save_profile(
    run: ProfiledRun, path: str | Path, *, include_trace: bool = False
) -> int:
    """Serialize one profiled run; returns bytes written (the storage cost).

    ``include_trace=True`` additionally embeds the columnar TraceBuffer
    (base64-packed little-endian columns: timeline events, PMU counters,
    and the struct-of-arrays P2P/collective record tables) when the run
    recorded events — the compact ground-truth form profiles carry through
    the Session cache.
    """
    profile, comm = run.profile, run.comm
    perf = {
        f"{rank},{vid}": [t, w, int(visits), ins, cyc, lst, dcm]
        for rank, vid, (t, w, visits, ins, cyc, lst, dcm) in zip(
            profile.ranks.tolist(), profile.vids.tolist(), profile.values.tolist()
        )
    }
    edges = [
        [*key, count, max_wait]
        for key, count, max_wait in zip(
            comm.edge_keys.tolist(), comm.edge_counts.tolist(),
            comm.edge_max_waits.tolist(),
        )
    ]
    groups = [
        {
            "op": g.mpi_op.value,
            "root": g.root,
            "nbytes": g.nbytes,
            "vids": [list(pair) for pair in g.vids],
            "stats": list(comm.group_stats[g.key()]),
        }
        for g in comm.groups.values()
    ]
    doc = {
        "format": "scalana-profile-v1",
        "nprocs": run.nprocs,
        "app_time": run.app_time,
        "freq_hz": profile.freq_hz if math.isfinite(profile.freq_hz) else -1,
        "total_samples": profile.total_samples,
        "perf": perf,
        "edges": edges,
        "groups": groups,
        "indirect": {
            f"{','.join(map(str, path_key))}|{sid}": sorted(targets)
            for (path_key, sid), targets in comm.indirect_targets.items()
        },
        "overhead_seconds": run.overhead.overhead_seconds,
        "storage_bytes_model": run.overhead.storage_bytes,
    }
    if include_trace:
        result = getattr(run, "result", None)
        if result is not None and result.trace.keep_events:
            doc["trace"] = result.trace.to_doc()
    return dump_json(doc, path)


def load_profile(path: str | Path) -> LoadedProfile:
    """Load a ``scalana-profile-v1`` file written by :func:`save_profile`.

    The profile and edge columns are filled straight from the decoded
    document: one array over the ``perf`` rows, one parse of their joined
    keys and one array over ``edges``; no per-row object is built.  A
    document that is valid JSON but not a well-formed profile (a ragged
    or non-numeric row, a malformed key, a non-integral count, a missing
    section, a section of the wrong type) raises :class:`ValueError`,
    :class:`KeyError` or :class:`TypeError`.
    """
    doc = load_json(path)
    if doc.get("format") != "scalana-profile-v1":
        raise ValueError(f"{path}: not a ScalAna profile file")
    perf = doc.pop("perf")
    joined = ";".join(perf)
    if perf and not _PERF_KEYS.fullmatch(joined):
        raise ValueError(f"{path}: malformed perf key")
    keys = np.fromstring(joined.replace(";", ","), dtype=np.int64, sep=",")
    values = _numeric_rows(list(perf.values()), len(PERF_COLUMNS), path)
    del perf
    _require_integral(values[:, 2], path)
    freq = doc["freq_hz"]
    profile = SamplingProfile(
        freq_hz=float("inf") if freq == -1 else freq,
        nprocs=doc["nprocs"],
        total_samples=doc["total_samples"],
        ranks=keys[0::2],
        vids=keys[1::2],
        values=values,
    )
    edges = _numeric_rows(doc.pop("edges"), len(EDGE_KEY_COLUMNS) + 2, path)
    ints = edges[:, :-1]
    _require_integral(ints, path)
    ints = ints.astype(np.int64)
    comm = CommDependence(
        edge_keys=ints[:, :-1].copy(), edge_counts=ints[:, -1].copy(),
        edge_max_waits=edges[:, -1].copy(),
    )
    comm.observed_events = comm.recorded_events = int(comm.edge_counts.sum())
    for g in doc["groups"]:
        group = CollectiveGroup(
            mpi_op=MpiOp(g["op"]),
            root=g["root"],
            nbytes=g["nbytes"],
            vids=tuple(tuple(pair) for pair in g["vids"]),
        )
        comm.groups[group.key()] = group
        comm.group_stats[group.key()] = tuple(g["stats"])
    for key, targets in doc.get("indirect", {}).items():
        path_part, sid = key.rsplit("|", 1)
        path_key = tuple(int(x) for x in path_part.split(",") if x != "")
        comm.indirect_targets[(path_key, int(sid))] = set(targets)
    overhead = OverheadReport(
        tool="ScalAna",
        app_time=doc["app_time"],
        overhead_seconds=doc["overhead_seconds"],
        storage_bytes=doc["storage_bytes_model"],
    )
    trace = (
        TraceBuffer.from_doc(doc["trace"]) if "trace" in doc else None
    )
    return LoadedProfile(
        nprocs=doc["nprocs"],
        profile=profile,
        comm=comm,
        overhead=overhead,
        app_time=doc["app_time"],
        trace=trace,
    )


_INT = "(?:0|[1-9][0-9]*)"
#: ``perf`` keys joined by ``;``: canonical ``rank,vid`` integer pairs.
_PERF_KEYS = re.compile(f"{_INT},{_INT}(?:;{_INT},{_INT})*")


def _numeric_rows(rows: list, width: int, path) -> np.ndarray:
    """``rows`` as a float64 ``(n, width)`` array, or ValueError unless
    every row is ``width`` JSON numbers."""
    arr = np.array(rows)
    if arr.size == 0:
        arr = arr.reshape(0, width)
    if arr.dtype.kind not in "iuf" or arr.shape != (len(rows), width):
        raise ValueError(f"{path}: rows are not {width} numbers wide")
    return arr.astype(np.float64, copy=False)


def _require_integral(values: np.ndarray, path) -> None:
    if not (np.isfinite(values).all() and (values == np.round(values)).all()):
        raise ValueError(f"{path}: non-integral value in an integer column")


def profile_file_bytes(path: str | Path) -> int:
    return Path(path).stat().st_size
