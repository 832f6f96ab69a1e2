"""Shared utilities: deterministic RNG streams, statistics, tables, serialization.

Everything in ScalAna that involves randomness (PMU noise, sampling-based
instrumentation, per-rank core-speed variance) draws from named, seeded
streams so that every experiment in the repo is exactly reproducible.
"""

from repro.util.rng import RngStream, derive_seed
from repro.util.stats import (
    geometric_mean,
    loglog_fit,
    loglog_fits,
    median_absolute_deviation,
    relative_imbalance,
    trimmed_mean,
)
from repro.util.tables import Table, format_bytes, format_seconds
from repro.util.serialization import to_jsonable, dump_json, load_json

__all__ = [
    "RngStream",
    "derive_seed",
    "geometric_mean",
    "loglog_fit",
    "loglog_fits",
    "median_absolute_deviation",
    "relative_imbalance",
    "trimmed_mean",
    "Table",
    "format_bytes",
    "format_seconds",
    "to_jsonable",
    "dump_json",
    "load_json",
]
