"""Columnar profiles and comm dependence: the bits the column readers
must reproduce.

``SamplingProfile`` and ``CommDependence`` hold columns, and detection
reads them: one row-wise mean per PPG for the MEAN strategy, one lexsort
for the PPG's comm-edge index, one array per ``load_profile`` section.
Each test pins a column reader to the per-object computation it replaced.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Pipeline, run_fingerprint
from repro.apps import APPS, get_app
from repro.bench.harness import app_scales
from repro.detection.aggregation import AggregationStrategy, aggregate
from repro.ppg.build import PPG, _InEdge
from repro.psg.graph import PSG
from repro.runtime.interposition import CommDependence
from repro.runtime.sampling import SamplingProfile
from repro.tools.storage import load_profile, save_profile


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ----------------------------------------------------------------------
# the row-wise mean is the per-vertex mean, in IEEE bits
# ----------------------------------------------------------------------

def _profile_of(matrix: np.ndarray, rng) -> SamplingProfile:
    """A profile whose ``(vid, rank)`` time matrix is ``matrix``: a zero
    cell is left unsampled half of the time, and rows come shuffled."""
    vids, ranks = np.nonzero((matrix != 0.0) | (rng.random(matrix.shape) < 0.5))
    order = rng.permutation(len(vids))
    values = np.zeros((len(vids), 7))
    values[:, 0] = matrix[vids, ranks]
    return SamplingProfile(200.0, matrix.shape[1], 0, ranks[order], vids[order],
                           values[order])


@st.composite
def time_matrices(draw):
    """Up to six rows 1-300 wide: exponential times at one of several
    magnitudes, with a drawn share of zeros and of subnormals (the values
    a different summation order is most likely to round apart)."""
    width = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(min_value=1, max_value=6)), width)
    scale = draw(st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]))
    matrix = rng.exponential(size=shape) * scale
    matrix[rng.random(shape) < draw(st.floats(0.0, 1.0))] = 0.0
    subnormal = rng.random(shape) < draw(st.floats(0.0, 1.0))
    matrix[subnormal] = rng.uniform(5e-324, 2.2e-308, size=int(subnormal.sum()))
    return matrix, rng


def _assert_means_match(matrix, rng):
    profile = _profile_of(matrix, rng)
    vids = list(range(len(matrix) + 1))  # the last vid is never sampled
    for vid, mean in zip(vids, profile.vertex_means(vids)):
        times = profile.vertex_times(vid)
        assert times == (matrix[vid].tolist() if vid < len(matrix) else [0.0] * len(times))
        assert _bits(mean) == _bits(aggregate(times, AggregationStrategy.MEAN))


@settings(max_examples=300, deadline=None)
@given(case=time_matrices())
def test_row_means_have_the_bits_of_per_row_aggregate(case):
    _assert_means_match(*case)


@pytest.mark.parametrize("width", [512, 1024, 4096, 16384])
def test_row_means_match_at_wide_rows(width):
    rng = np.random.default_rng(width)
    matrix = rng.exponential(size=(3, width))
    matrix[:, ::7] = 0.0
    _assert_means_match(matrix, rng)


# ----------------------------------------------------------------------
# the 14 apps: save -> load -> save, fingerprints, detection inputs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def app_runs():
    runs = {}
    for name in sorted(APPS):
        spec = get_app(name)
        pipe = Pipeline.for_app(spec)
        for p in app_scales(spec, [4, 16]):
            runs[name, p] = (spec, pipe.profile(p).run)
    return runs


def test_every_app_is_covered_at_two_scales(app_runs):
    assert len(app_runs) == 2 * len(APPS)


def test_save_load_save_is_byte_identical(app_runs, tmp_path):
    for (name, p), (_spec, run) in app_runs.items():
        first, second = tmp_path / f"{name}{p}a.json", tmp_path / f"{name}{p}b.json"
        save_profile(run, first)
        loaded = load_profile(first)
        save_profile(loaded, second)
        assert first.read_bytes() == second.read_bytes(), (name, p)
        assert run_fingerprint(loaded) == run_fingerprint(run), (name, p)


def test_vertex_reads_match_the_object_views(app_runs):
    """``vertex_times`` and ``vertex_means`` read the time matrix; the
    ``perf`` view rebuilds the vectors they replaced."""
    for (name, p), (spec, run) in app_runs.items():
        profile = run.profile
        vids = list(spec.psg.vertices)
        means = profile.vertex_means(vids)
        for vid, mean in zip(vids, means):
            times = [profile.vector(r, vid).time for r in range(p)]
            assert profile.vertex_times(vid) == times, (name, p, vid)
            assert _bits(mean) == _bits(
                aggregate(times, AggregationStrategy.MEAN)
            ), (name, p, vid)


def test_integer_columns_serialize_as_json_ints(app_runs, tmp_path):
    path = tmp_path / "p.json"
    for (name, p), (_spec, run) in app_runs.items():
        save_profile(run, path)
        doc = json.loads(path.read_text())
        for row in doc["perf"].values():
            assert type(row[2]) is int, (name, p)
            assert all(type(x) is float for x in row[:2] + row[3:]), (name, p)
        for row in doc["edges"]:
            assert all(type(x) is int for x in row[:8]), (name, p)
            assert type(row[8]) is float, (name, p)


# ----------------------------------------------------------------------
# the lexsorted edge index is the old per-node sort
# ----------------------------------------------------------------------


def reference_in_edges(comm: CommDependence, prune_no_wait=True, wait_threshold=0.0):
    """The per-node index the lexsort replaced, verbatim: append each
    kept edge to its receiving node's list in edge order, then sort each
    list by ``(-max_wait, send_rank, send_vid, tag, nbytes, count)``."""
    in_edges: dict = {}
    for key, edge in comm.edges.items():
        count, max_wait = comm.edge_stats[key]
        if prune_no_wait and max_wait <= wait_threshold:
            continue
        node = (edge.recv_rank, edge.wait_vid)
        in_edges.setdefault(node, []).append(
            _InEdge(
                send_rank=edge.send_rank, send_vid=edge.send_vid,
                max_wait=max_wait, nbytes=edge.nbytes, tag=edge.tag,
                count=count,
            )
        )
    for edges in in_edges.values():
        edges.sort(
            key=lambda e: (
                -e.max_wait, e.send_rank, e.send_vid, e.tag, e.nbytes, e.count,
            )
        )
    return in_edges


small = st.integers(min_value=0, max_value=3)


@st.composite
def tied_dependences(draw):
    """Edge tables over few ranks, vids and wait values, so many edges
    share a receiving node and tie on ``max_wait`` (and often on more)."""
    stats = {}
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        key = (draw(small), draw(small), draw(small), draw(small), draw(small),
               draw(st.integers(0, 2)), draw(st.sampled_from([8, 64])))
        stats[key] = (
            draw(st.integers(1, 3)),
            draw(st.sampled_from([0.0, 0.5, 0.5, 1.25, 2.0])),
        )
    comm = CommDependence()
    comm.set_edge_stats(stats)
    return comm


@settings(max_examples=150, deadline=None)
@given(comm=tied_dependences(), prune=st.booleans(),
       threshold=st.sampled_from([0.0, 0.5]))
def test_lazy_in_edges_equal_the_per_node_sort(comm, prune, threshold):
    ppg = PPG(PSG(), 4, SamplingProfile.from_vectors(200.0, 4, 0, {}), comm,
              prune_no_wait=prune, wait_threshold=threshold)
    want = reference_in_edges(comm, prune, threshold)
    nodes = [(r, v) for r in range(4) for v in range(4)]
    for node in nodes:
        assert ppg.comm_in_edges(node) == want.get(node, []), node
    assert list(ppg.comm_in_edge_items()) == list(want.items())
    assert ppg.comm_edge_count() == sum(map(len, want.values()))
