"""AnalysisConfig: validation, JSON round trip, digest stability."""

import json

import pytest

from repro.api import AnalysisConfig, source_digest
from repro.detection.aggregation import AggregationStrategy
from repro.simulator import DelayInjection, MachineModel, NetworkModel


def full_config() -> AnalysisConfig:
    """A config with every field away from its default."""
    return AnalysisConfig(
        params={"n": 64, "iters": 10},
        machine=MachineModel(flop_rate=1.0e9, noise_sigma=0.1),
        network=NetworkModel(latency=5.0e-6, bandwidth=1.0e9),
        max_loop_depth=3,
        abnorm_thd=2.5,
        freq_hz=100.0,
        seed=42,
        repetitions=3,
        aggregation=AggregationStrategy.MEDIAN,
        injected_delays=(DelayInjection(rank=4, filename="a.mm", line=3,
                                        extra_seconds=0.5),),
    )


class TestValidation:
    def test_defaults_valid(self):
        AnalysisConfig()

    def test_rejects_negative_loop_depth(self):
        with pytest.raises(ValueError, match="max_loop_depth"):
            AnalysisConfig(max_loop_depth=-1)

    def test_zero_loop_depth_allowed(self):
        assert AnalysisConfig(max_loop_depth=0).max_loop_depth == 0

    def test_rejects_abnorm_thd_at_most_one(self):
        with pytest.raises(ValueError, match="abnorm_thd"):
            AnalysisConfig(abnorm_thd=1.0)

    def test_rejects_nonpositive_freq(self):
        with pytest.raises(ValueError, match="freq_hz"):
            AnalysisConfig(freq_hz=0.0)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            AnalysisConfig(repetitions=0)

    def test_rejects_bad_delay_entries(self):
        with pytest.raises(ValueError, match="DelayInjection"):
            AnalysisConfig(injected_delays=("nope",))

    def test_aggregation_accepts_enum_value_string(self):
        cfg = AnalysisConfig(aggregation="median")
        assert cfg.aggregation is AggregationStrategy.MEDIAN

    def test_frozen(self):
        cfg = AnalysisConfig()
        with pytest.raises(AttributeError):
            cfg.seed = 5

    def test_injected_delays_normalized_to_tuple(self):
        d = DelayInjection(rank=0, filename="x", line=1, extra_seconds=0.1)
        cfg = AnalysisConfig(injected_delays=[d])
        assert cfg.injected_delays == (d,)


class TestJsonRoundTrip:
    def test_default_round_trips(self):
        cfg = AnalysisConfig()
        assert AnalysisConfig.from_json(cfg.to_json()) == cfg

    def test_full_round_trips(self):
        cfg = full_config()
        back = AnalysisConfig.from_json(cfg.to_json())
        assert back == cfg
        assert back.machine == cfg.machine
        assert back.network == cfg.network
        assert back.injected_delays == cfg.injected_delays
        assert back.aggregation is AggregationStrategy.MEDIAN

    def test_infinite_freq_round_trips(self):
        cfg = AnalysisConfig(freq_hz=float("inf"))
        back = AnalysisConfig.from_json(cfg.to_json())
        assert back.freq_hz == float("inf")

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="scalana-config-v1"):
            AnalysisConfig.from_dict({"format": "something-else"})

    @pytest.mark.parametrize("key", ["lint_fail_fast", "obs_metrics", "obs_spans"])
    def test_rejects_non_bool_flags(self, key):
        """A loaded document gets the constructor's validation: the
        string "false" is not coerced to ``True``."""
        doc = AnalysisConfig().to_dict()
        doc[key] = "false"
        with pytest.raises(ValueError, match=key):
            AnalysisConfig.from_dict(doc)


class TestDigest:
    def test_equal_configs_equal_digests(self):
        assert full_config().digest() == full_config().digest()

    def test_digest_survives_round_trip(self):
        cfg = full_config()
        assert AnalysisConfig.from_json(cfg.to_json()).digest() == cfg.digest()

    def test_params_order_irrelevant(self):
        a = AnalysisConfig(params={"x": 1, "y": 2})
        b = AnalysisConfig(params={"y": 2, "x": 1})
        assert a.digest() == b.digest()

    def test_every_knob_changes_the_digest(self):
        base = AnalysisConfig()
        variants = [
            base.with_overrides(params={"n": 1}),
            base.with_overrides(machine=MachineModel(flop_rate=1.0)),
            base.with_overrides(network=NetworkModel(latency=1.0)),
            base.with_overrides(max_loop_depth=1),
            base.with_overrides(abnorm_thd=9.9),
            base.with_overrides(freq_hz=17.0),
            base.with_overrides(seed=123),
            base.with_overrides(repetitions=2),
            base.with_overrides(aggregation=AggregationStrategy.MAX),
            base.with_overrides(injected_delays=(
                DelayInjection(rank=0, filename="f", line=1, extra_seconds=1.0),
            )),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1  # all distinct

    def test_source_digest_depends_on_source_and_filename(self):
        assert source_digest("a", "f.mm") != source_digest("b", "f.mm")
        assert source_digest("a", "f.mm") != source_digest("a", "g.mm")
        assert source_digest("a", "f.mm") == source_digest("a", "f.mm")


#: A config document written before the event-queue, shard-partition and
#: sharding strategy knobs were removed, carrying non-default values for
#: the first two.
LEGACY_STRATEGY_DOC = (
    '{"abnorm_thd":1.3,"aggregation":"mean","format":"scalana-config-v1",'
    '"freq_hz":200.0,"injected_delays":[],"machine":{"cache_line":64.0,'
    '"clock_hz":2500000000.0,"core_speed_sigma":0.0,"cores_per_rank":8,'
    '"flop_rate":2000000000.0,"ins_per_flop":1.3,'
    '"mem_bandwidth":8000000000.0,"mem_speed_sigma":0.0,"noise_sigma":0.0,'
    '"thread_efficiency":0.85},"max_loop_depth":10,"network":{'
    '"bandwidth":6000000000.0,"call_overhead":5e-07,"latency":2e-06},'
    '"params":{},"repetitions":1,"seed":0,"sim_executor":"auto",'
    '"sim_partition":"commgraph","sim_scheduler":"calendar","sim_shards":1}'
)


def _optimizer_knobs(value: bool) -> dict:
    """The since-removed on/off switches of the engine's optimizers, as
    older documents carry them (only ``False`` was ever written, but a
    hand-edited ``True`` must load too)."""
    return dict(
        sim_class_sharing=value,
        sim_class_batching=value,
        sim_wildcard_devirt=value,
    )


class TestDigestCompatibility:
    """Cache keys must not move when a digest-neutral knob is removed."""

    #: Digests written by earlier releases; existing caches key on them.
    DEFAULT_DIGEST = "96b14e2fb18bc359"
    CG_DIGEST = "faa6a38b15955663"

    #: ``AnalysisConfig.for_app(get_app(name)).digest()`` per bundled app.
    APP_DIGESTS = {
        "bt": "48789394caa9d701",
        "cg": CG_DIGEST,
        "ep": "fd34ee4d439ed96a",
        "ft": "6618080a3d125d70",
        "is": "4dab1d85964d9de4",
        "lu": "002c5bab8833329c",
        "mg": "618def41671f776e",
        "nekbone": "45384317af980df0",
        "nekbone_fixed": "72168b53d7f61c32",
        "sp": "28ec4b5948ede94a",
        "sst": "fbb054edba117b09",
        "sst_fixed": "4c46f46527c126e2",
        "zeusmp": "29fca2129fc69b6e",
        "zeusmp_fixed": "445f30830ec5536a",
    }

    def test_pinned_digests_unchanged(self):
        from repro.apps import get_app

        assert AnalysisConfig(seed=0).digest() == self.DEFAULT_DIGEST
        assert AnalysisConfig.for_app(get_app("cg")).digest() == self.CG_DIGEST

    def test_every_bundled_app_is_pinned(self):
        from repro.apps import app_names

        assert sorted(app_names()) == sorted(self.APP_DIGESTS)

    @pytest.mark.parametrize("app", sorted(APP_DIGESTS))
    def test_pinned_app_digest_unchanged(self, app):
        """The app's digest is pinned, and a document of it that still
        carries the removed strategy keys loads back to the same key."""
        from repro.apps import get_app

        cfg = AnalysisConfig.for_app(get_app(app))
        assert cfg.digest() == self.APP_DIGESTS[app]
        for optimizers in (True, False):
            doc = json.loads(cfg.to_json())
            doc.update(
                sim_scheduler="calendar", sim_partition="commgraph",
                sim_shards=4, sim_executor="process",
                **_optimizer_knobs(optimizers),
            )
            legacy = AnalysisConfig.from_json(json.dumps(doc))
            assert legacy == cfg
            assert legacy.digest() == self.APP_DIGESTS[app]

    def test_legacy_strategy_document_loads_to_same_digest(self):
        cfg = AnalysisConfig.from_json(LEGACY_STRATEGY_DOC)
        assert cfg == AnalysisConfig(seed=0)
        assert cfg.digest() == self.DEFAULT_DIGEST

    def test_legacy_sharded_document_loads_to_same_digest(self):
        """A document written for a sharded run loads to the serial
        config, and no config document carries the sharding keys now."""
        doc = json.loads(LEGACY_STRATEGY_DOC)
        doc.update(sim_shards=4, sim_executor="process")
        cfg = AnalysisConfig.from_dict(doc)
        assert cfg == AnalysisConfig(seed=0)
        assert cfg.digest() == self.DEFAULT_DIGEST
        emitted = AnalysisConfig(seed=0).to_dict()
        assert "sim_shards" not in emitted
        assert "sim_executor" not in emitted

    @pytest.mark.parametrize("optimizers", [True, False])
    @pytest.mark.parametrize("partition", ["contiguous", "commgraph"])
    @pytest.mark.parametrize("scheduler", ["auto", "heap", "calendar"])
    def test_every_legacy_strategy_value_loads(
        self, scheduler, partition, optimizers
    ):
        """Every value the removed knobs once accepted still loads."""
        doc = json.loads(LEGACY_STRATEGY_DOC)
        doc.update(
            sim_scheduler=scheduler, sim_partition=partition,
            **_optimizer_knobs(optimizers),
        )
        cfg = AnalysisConfig.from_dict(doc)
        assert cfg == AnalysisConfig(seed=0)
        assert cfg.digest() == self.DEFAULT_DIGEST


class TestBridges:
    def test_simulation_config_carries_knobs(self):
        cfg = full_config()
        sim = cfg.simulation_config(8)
        assert sim.nprocs == 8
        assert sim.seed == 42
        assert sim.machine == cfg.machine
        assert sim.params == {"n": 64, "iters": 10}
        assert list(sim.injected_delays) == list(cfg.injected_delays)

    def test_simulation_config_overrides(self):
        sim = full_config().simulation_config(4, seed=7)
        assert sim.seed == 7

    def test_for_app_picks_up_app_defaults(self):
        from repro.apps import get_app

        app = get_app("nekbone")  # has a machine override
        cfg = AnalysisConfig.for_app(app, seed=3)
        assert cfg.params == dict(app.params)
        assert cfg.machine == app.machine
        assert cfg.seed == 3
