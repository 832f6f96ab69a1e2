"""Session artifact cache: hit/miss accounting, the zero-simulation
contract, invalidation on config change, persistence, and sweeps."""

import json

import pytest

from repro.api import Session, run_fingerprint
from repro.apps import get_app
from repro.simulator import simulation_call_count
from repro.tools.storage import load_profile

SOURCE = """\
def main() {
    for (var i = 0; i < 6; i = i + 1) {
        compute(flops = 10000000 / nprocs, name = "work");
        allreduce(bytes = 8);
    }
}
"""


def _corrupt(doc: dict, kind: str) -> None:
    """Damage a decoded profile document in place, keeping it valid JSON."""
    row = doc["perf"][next(iter(doc["perf"]))]
    if kind == "wrong_width":
        row.pop()
    elif kind == "string_cell":
        row[0] = "0.5"
    elif kind == "null_cell":
        row[3] = None
    elif kind == "key_without_comma":
        doc["perf"] = {k.replace(",", ""): r for k, r in doc["perf"].items()}
    elif kind == "fractional_visits":
        row[2] = 2.5
    elif kind == "fractional_edge_count":
        doc["edges"] = [[0, 1, 1, 2, 2, 0, 8, 1.5, 0.25]]
    elif kind == "no_edges":
        del doc["edges"]
    elif kind == "rank_out_of_range":
        doc["perf"][f"{doc['nprocs']},0"] = doc["perf"].pop(next(iter(doc["perf"])))
    elif kind == "perf_not_an_object":
        doc["perf"] = list(doc["perf"].values())
    else:
        raise AssertionError(kind)


class TestCacheHitMiss:
    def test_first_analysis_misses_then_hits(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        pipe = session.pipeline(SOURCE, seed=1)
        first = pipe.profile_scales([4, 8])
        assert [a.cached for a in first] == [False, False]
        assert session.stats.misses == 2 and session.stats.hits == 0

        again = session.pipeline(SOURCE, seed=1).profile_scales([4, 8])
        assert [a.cached for a in again] == [True, True]
        assert session.stats.hits == 2
        for a, b in zip(first, again):
            assert run_fingerprint(a.run) == run_fingerprint(b.run)

    def test_cache_hit_performs_zero_simulations(self, tmp_path):
        """The acceptance contract: a cached re-analysis of a registry app
        (same source + config + scale) simulates nothing."""
        session = Session(cache_dir=tmp_path / "cache")
        app = get_app("cg")
        session.analyze(app, [4, 8], seed=3)

        before = simulation_call_count()
        result = session.analyze(app, [4, 8], seed=3)
        assert simulation_call_count() == before  # zero new simulations
        assert result.report.nprocs == 8

    def test_memory_only_session_caches_too(self):
        session = Session()  # no cache_dir
        pipe = session.pipeline(SOURCE, seed=1)
        pipe.profile_scales([4])
        before = simulation_call_count()
        art = pipe.profile(4)
        assert art.cached
        assert simulation_call_count() == before


class TestInvalidation:
    def test_any_config_change_is_a_miss(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        session.pipeline(SOURCE, seed=1).profile(4)
        before = simulation_call_count()
        art = session.pipeline(SOURCE, seed=2).profile(4)  # seed changed
        assert not art.cached
        assert simulation_call_count() == before + 1

    def test_source_change_is_a_miss(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        session.pipeline(SOURCE, seed=1).profile(4)
        changed = SOURCE.replace("6", "7")
        assert not session.pipeline(changed, seed=1).profile(4).cached

    def test_scale_change_is_a_miss(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        session.pipeline(SOURCE, seed=1).profile(4)
        assert not session.pipeline(SOURCE, seed=1).profile(8).cached

    def test_corrupt_artifact_is_a_miss_not_an_error(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        pipe = session.pipeline(SOURCE, seed=1)
        pipe.profile(4)
        victim = next((tmp_path / "cache").rglob("profile_p4.json"))
        victim.write_text("garbage")
        art = Session(cache_dir=tmp_path / "cache").pipeline(
            SOURCE, seed=1
        ).profile(4)
        assert not art.cached  # re-simulated, no crash
        assert not victim.exists() or victim.read_text() != "garbage"

    @pytest.mark.parametrize("corrupt", [
        "wrong_width", "string_cell", "null_cell", "key_without_comma",
        "fractional_visits", "fractional_edge_count", "no_edges",
        "rank_out_of_range", "perf_not_an_object",
    ])
    def test_malformed_profile_is_a_miss_not_an_error(self, tmp_path, corrupt):
        """Valid JSON that is not a well-formed profile is dropped and
        re-simulated, like a file that is not JSON at all."""
        session = Session(cache_dir=tmp_path / "cache")
        fresh = session.pipeline(SOURCE, seed=1).profile(4)
        victim = next((tmp_path / "cache").rglob("profile_p4.json"))
        doc = json.loads(victim.read_text())
        _corrupt(doc, corrupt)
        victim.write_text(json.dumps(doc))
        with pytest.raises((ValueError, KeyError, TypeError)):
            load_profile(victim)
        art = Session(cache_dir=tmp_path / "cache").pipeline(
            SOURCE, seed=1
        ).profile(4)
        assert not art.cached
        assert run_fingerprint(art.run) == run_fingerprint(fresh.run)
        assert run_fingerprint(load_profile(victim)) == run_fingerprint(fresh.run)

    def test_explicit_invalidate(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        pipe = session.pipeline(SOURCE, seed=1)
        pipe.profile(4)
        dropped = session.invalidate(source_digest=pipe.source_digest)
        assert dropped == 1
        assert not pipe.profile(4).cached  # re-simulated

    def test_invalidate_other_program_keeps_entries(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        pipe = session.pipeline(SOURCE, seed=1)
        pipe.profile(4)
        assert session.invalidate(source_digest="0" * 16) == 0
        assert pipe.profile(4).cached


class TestPersistence:
    def test_cache_survives_across_sessions(self, tmp_path):
        cache = tmp_path / "cache"
        Session(cache_dir=cache).pipeline(SOURCE, seed=1).profile_scales([4, 8])

        fresh = Session(cache_dir=cache)  # new process, simulated
        before = simulation_call_count()
        arts = fresh.pipeline(SOURCE, seed=1).profile_scales([4, 8])
        assert [a.cached for a in arts] == [True, True]
        assert simulation_call_count() == before

    def test_loaded_artifact_detects_identically(self, tmp_path):
        cache = tmp_path / "cache"
        session = Session(cache_dir=cache)
        pipe = session.pipeline(SOURCE, seed=1)
        live = pipe.detect(pipe.profile_scales([4, 8]))

        fresh_pipe = Session(cache_dir=cache).pipeline(SOURCE, seed=1)
        loaded = fresh_pipe.detect(fresh_pipe.profile_scales([4, 8]))
        assert loaded.cause_locations() == live.cause_locations()
        assert loaded.scales == live.scales


class TestSweep:
    def test_sweep_matrix_shape_and_order(self):
        session = Session()
        results = session.sweep(["ep", "cg"], [4, 8], seeds=[0, 1], jobs=4)
        assert [(r.app, r.seed) for r in results] == [
            ("ep", 0), ("ep", 1), ("cg", 0), ("cg", 1),
        ]
        assert all(r.scales == (4, 8) for r in results)

    def test_resweep_is_all_cache_hits(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        session.sweep(["ep"], [4, 8], seeds=[0, 1], jobs=2)
        before = simulation_call_count()
        results = session.sweep(["ep"], [4, 8], seeds=[0, 1], jobs=2)
        assert simulation_call_count() == before
        assert all(r.cache_hits == 2 for r in results)

    def test_sweep_filters_invalid_scales(self):
        session = Session()
        # bt needs square process counts: 8 -> 4, 128 -> 121
        results = session.sweep(["bt"], [8, 128])
        assert results[0].scales == (4, 121)

    def test_sweep_parallel_matches_serial(self):
        serial = Session().sweep(["ep", "cg"], [4, 8], seeds=[0])
        parallel = Session().sweep(["ep", "cg"], [4, 8], seeds=[0], jobs=4)
        for s, p in zip(serial, parallel):
            assert s.report.cause_locations() == p.report.cause_locations()

    def test_sweep_warns_on_skipped_cells(self):
        session = Session()
        # bt has no valid scale in [5, 6, 7] besides 4 -> only one -> skipped
        with pytest.warns(UserWarning, match="skipping bt"):
            results = session.sweep(["bt", "ep"], [5, 6, 7, 8])
        assert [r.app for r in results] == ["ep"]

    def test_sweep_raises_when_every_cell_skipped(self):
        with (
            pytest.raises(ValueError, match=">= 2 valid scales"),
            pytest.warns(UserWarning, match="skipping bt"),
        ):
            Session().sweep(["bt"], [5, 6, 7])


class TestAnalyzeProgramSessionIntegration:
    def test_analyze_program_reuses_session(self, tmp_path):
        from repro import analyze_program

        session = Session(cache_dir=tmp_path / "cache")
        analyze_program(SOURCE, [4, 8], seed=1, session=session)
        before = simulation_call_count()
        analyze_program(SOURCE, [4, 8], seed=1, session=session)
        assert simulation_call_count() == before
