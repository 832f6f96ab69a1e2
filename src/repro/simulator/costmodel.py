"""Computation and network cost models (the simulated machine).

This module is the stand-in for real hardware: it converts the abstract
workload of a ``compute`` statement into simulated time and PMU counters,
and prices point-to-point transfers and collectives.

The machine is deliberately simple — a latency/bandwidth (Hockney) network
with log(P) tree collectives, and a two-term (arithmetic + memory) roofline
for computation — because ScalAna's analyses depend on *relative* behaviour
across ranks and scales, not on cycle accuracy:

* **per-rank heterogeneity** (``core_speed``/``mem_speed`` factors) produces
  the Nekbone case study's effect, where identical load/store counts take
  different cycle counts on different cores;
* **locality** produces the Zeus-MP cache-miss effect and the SST
  array-vs-map effect together with the instruction count;
* **seeded noise** models run-to-run variance without breaking determinism.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from repro.minilang.ast_nodes import MpiOp
from repro.util.rng import RngStream

__all__ = ["PerfCounters", "Workload", "MachineModel", "NetworkModel", "CostModel"]

_PACK_4D = struct.Struct("<4d").pack
_PACK_D = struct.Struct("<d").pack
_UNPACK_D = struct.Struct("<d").unpack


@dataclass
class PerfCounters:
    """Simulated PMU counter deltas (PAPI preset equivalents)."""

    tot_ins: float = 0.0  # PAPI_TOT_INS: total instructions
    tot_cyc: float = 0.0  # PAPI_TOT_CYC: total cycles
    tot_lst_ins: float = 0.0  # PAPI_LST_INS: load/store instructions
    l2_dcm: float = 0.0  # PAPI_L2_DCM: L2 data-cache misses

    def __iadd__(self, other: "PerfCounters") -> "PerfCounters":
        self.tot_ins += other.tot_ins
        self.tot_cyc += other.tot_cyc
        self.tot_lst_ins += other.tot_lst_ins
        self.l2_dcm += other.l2_dcm
        return self

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        out = replace(self)
        out += other
        return out

    def scaled(self, factor: float) -> "PerfCounters":
        return PerfCounters(
            tot_ins=self.tot_ins * factor,
            tot_cyc=self.tot_cyc * factor,
            tot_lst_ins=self.tot_lst_ins * factor,
            l2_dcm=self.l2_dcm * factor,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "TOT_INS": self.tot_ins,
            "TOT_CYC": self.tot_cyc,
            "TOT_LST_INS": self.tot_lst_ins,
            "L2_DCM": self.l2_dcm,
        }


@dataclass(frozen=True)
class Workload:
    """The abstract cost of one ``compute`` statement execution."""

    flops: float
    mem_bytes: float = 0.0
    locality: float = 1.0  # 1 = streaming-friendly, 0 = pointer chasing
    threads: float = 1.0  # OpenMP-style intra-rank parallelism

    def __post_init__(self) -> None:
        if self.flops < 0 or self.mem_bytes < 0:
            raise ValueError("workload terms must be non-negative")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        object.__setattr__(self, "locality", min(1.0, max(0.0, self.locality)))

    def bits(self) -> bytes:
        """The fields' IEEE bit patterns: a value key for cost memos.

        Unlike ``==`` it tells ``-0.0`` from ``0.0``, which cost
        differently (a ``-0.0`` flop count yields ``-0.0`` counters)."""
        return _PACK_4D(self.flops, self.mem_bytes, self.locality, self.threads)


@dataclass(frozen=True)
class MachineModel:
    """Per-node compute parameters (defaults loosely follow a Xeon E5 core)."""

    flop_rate: float = 2.0e9  # sustained scalar flop/s per rank
    mem_bandwidth: float = 8.0e9  # bytes/s per rank
    clock_hz: float = 2.5e9
    cache_line: float = 64.0
    ins_per_flop: float = 1.3  # arithmetic + address/loop overhead
    #: lognormal sigma of multiplicative per-execution noise (0 = none)
    noise_sigma: float = 0.0
    #: per-rank core-speed spread (lognormal sigma across ranks; 0 = homog.)
    core_speed_sigma: float = 0.0
    #: per-rank memory-speed spread (the Nekbone effect)
    mem_speed_sigma: float = 0.0
    #: cores available to one rank for threaded compute statements
    cores_per_rank: int = 8
    #: parallel efficiency of each extra thread (Amdahl-style)
    thread_efficiency: float = 0.85


@dataclass(frozen=True)
class NetworkModel:
    """Hockney latency/bandwidth network with tree collectives."""

    latency: float = 2.0e-6  # seconds per hop
    bandwidth: float = 6.0e9  # bytes/s
    #: fixed software overhead charged to the caller per MPI call
    call_overhead: float = 5.0e-7

    def p2p_transfer(self, nbytes: float) -> float:
        """Time for a message of ``nbytes`` to reach its destination."""
        return self.latency + nbytes / self.bandwidth

    def collective_cost(self, op: MpiOp, nprocs: int, nbytes: float) -> float:
        """Synchronized-phase cost of a collective over ``nprocs`` ranks.

        Standard log-tree / linear models: bcast, reduce, scatter, gather
        take ``ceil(log2 P)`` rounds, allreduce twice that (reduce+bcast),
        allgather and alltoall pay linear terms.
        """
        if nprocs <= 1:
            return self.call_overhead
        rounds = math.ceil(math.log2(nprocs))
        per_round = self.latency + nbytes / self.bandwidth
        if op is MpiOp.BARRIER:
            return rounds * self.latency
        if op in (MpiOp.BCAST, MpiOp.REDUCE, MpiOp.SCATTER, MpiOp.GATHER):
            return rounds * per_round
        if op is MpiOp.ALLREDUCE:
            return 2 * rounds * per_round
        if op is MpiOp.ALLGATHER:
            return rounds * self.latency + (nprocs - 1) * nbytes / self.bandwidth
        if op is MpiOp.ALLTOALL:
            return (nprocs - 1) * (self.latency + nbytes / self.bandwidth)
        raise ValueError(f"{op} is not a collective")


@functools.lru_cache(maxsize=1 << 16)
def _drawn_speed_factor(seed: int, kind: str, rank: int, sigma_bits: bytes) -> float:
    """``RngStream(seed, kind, rank).lognormal_factor(sigma)``, shared by
    every :class:`CostModel`: a factor depends only on these four values,
    and building its stream costs far more than the lookup.  Keyed on
    sigma's IEEE bits, like every cost memo."""
    (sigma,) = _UNPACK_D(sigma_bits)
    return RngStream(seed, kind, rank).lognormal_factor(sigma)


class CostModel:
    """Binds machine + network models to a seeded noise/heterogeneity RNG."""

    def __init__(
        self,
        machine: MachineModel | None = None,
        network: NetworkModel | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.machine = machine or MachineModel()
        self.network = network or NetworkModel()
        self.seed = seed
        self._rank_core_speed: dict[int, float] = {}
        self._rank_mem_speed: dict[int, float] = {}
        self._noise_stream_cache: dict[int, RngStream] = {}
        #: rank column bytes -> (core speed, mem speed) columns
        self._speed_columns: dict[bytes, tuple] = {}

    # -- per-rank heterogeneity --------------------------------------------

    def core_speed(self, rank: int) -> float:
        """Multiplicative core speed of ``rank`` (median 1.0)."""
        if rank not in self._rank_core_speed:
            self._rank_core_speed[rank] = self._speed_factor(
                "core_speed", rank, self.machine.core_speed_sigma
            )
        return self._rank_core_speed[rank]

    def mem_speed(self, rank: int) -> float:
        if rank not in self._rank_mem_speed:
            self._rank_mem_speed[rank] = self._speed_factor(
                "mem_speed", rank, self.machine.mem_speed_sigma
            )
        return self._rank_mem_speed[rank]

    def _speed_factor(self, kind: str, rank: int, sigma: float) -> float:
        """One rank's draw of a speed factor (no stream when the spread is
        off: the factor is then exactly 1.0)."""
        if sigma <= 0.0:
            return 1.0
        return _drawn_speed_factor(self.seed, kind, rank, _PACK_D(sigma))

    def _noise(self, rank: int) -> float:
        if self.machine.noise_sigma <= 0.0:
            return 1.0
        stream = self._noise_stream_cache.get(rank)
        if stream is None:
            stream = RngStream(self.seed, "exec_noise", rank)
            self._noise_stream_cache[rank] = stream
        return stream.lognormal_factor(self.machine.noise_sigma)

    # -- computation ---------------------------------------------------------

    def compute_cost(self, rank: int, w: Workload) -> tuple[float, PerfCounters]:
        """Time and PMU counters for one execution of workload ``w``."""
        m = self.machine
        # Cache behaviour: poor locality turns streaming bandwidth into
        # miss-dominated bandwidth (up to ~8x slower at locality 0).
        locality_penalty = 1.0 + 7.0 * (1.0 - w.locality)
        arith_time = w.flops / (m.flop_rate * self.core_speed(rank))
        mem_time = (
            w.mem_bytes
            * locality_penalty
            / (m.mem_bandwidth * self.mem_speed(rank))
        )
        # OpenMP-style threading: the same work finishes faster on more
        # cores (with imperfect efficiency); instruction counts below are
        # per-workload and therefore unchanged.
        threads = min(w.threads, float(m.cores_per_rank))
        speedup = 1.0 + m.thread_efficiency * (threads - 1.0)
        duration = (arith_time + mem_time) / speedup * self._noise(rank)

        miss_rate = 0.02 + 0.9 * (1.0 - w.locality)
        counters = PerfCounters(
            tot_ins=w.flops * m.ins_per_flop + w.mem_bytes / 8.0,
            tot_cyc=duration * m.clock_hz,
            tot_lst_ins=w.mem_bytes / 8.0,
            l2_dcm=(w.mem_bytes / m.cache_line) * miss_rate,
        )
        return duration, counters

    def noise_columns(self, ranks: np.ndarray, count: int) -> np.ndarray:
        """The first ``count`` per-execution noise factors of every rank in
        ``ranks``, as a ``(count, len(ranks))`` matrix: row ``k`` holds each
        rank's factor for its ``k``-th compute.  Each rank draws from a
        fresh ``exec_noise`` stream, so the streams :meth:`compute_cost`
        draws from are left as they were; a vector draw equals that many
        scalar :meth:`RngStream.lognormal_factor` draws bit for bit
        (``tests/test_util_rng.py``)."""
        sigma = self.machine.noise_sigma
        out = np.empty((count, len(ranks)))
        for i, rank in enumerate(ranks.tolist()):
            gen = RngStream(self.seed, "exec_noise", rank).generator()
            out[:, i] = np.exp(gen.normal(0.0, sigma, size=count))
        return out

    def compute_cost_columns(
        self, ranks: np.ndarray, flops, mem_bytes, locality, threads,
    ) -> tuple[np.ndarray, ...]:
        """:meth:`compute_cost` for many ranks at once, without the
        per-execution noise factor: ``(duration, ins, cyc, lst, dcm)``
        columns over ``ranks``, read-only.  The workload fields are
        columns or shared scalars; a column every rank shares, as on a
        machine without per-rank speed spread, is one value broadcast.
        Every element carries the bits of the scalar call on a noise-free
        machine: the same IEEE operations in the same association, and
        the thread ``min`` keeps Python's tie rule (see
        :meth:`noisy_cost_columns` for the factor)."""
        m = self.machine
        core, mem = self._speeds(ranks)
        locality_penalty = 1.0 + 7.0 * (1.0 - locality)
        arith_time = flops / (m.flop_rate * core)
        mem_time = mem_bytes * locality_penalty / (m.mem_bandwidth * mem)
        cores = float(m.cores_per_rank)
        threads = np.where(cores < threads, cores, threads)
        speedup = 1.0 + m.thread_efficiency * (threads - 1.0)
        duration = (arith_time + mem_time) / speedup
        miss_rate = 0.02 + 0.9 * (1.0 - locality)
        return tuple(
            np.broadcast_to(np.asarray(column, dtype=np.float64), len(ranks))
            for column in (
                duration,
                flops * m.ins_per_flop + mem_bytes / 8.0,
                duration * m.clock_hz,
                mem_bytes / 8.0,
                (mem_bytes / m.cache_line) * miss_rate,
            )
        )

    def noisy_cost_columns(
        self, columns: tuple, noise: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """:meth:`compute_cost_columns`' ``columns`` with one
        per-execution factor per rank applied (see :meth:`noise_columns`).
        Only the duration and the cycle count depend on the factor; both
        keep :meth:`compute_cost`'s association, ``((arith + mem) /
        speedup) * noise`` and the noisy duration times the clock."""
        duration = columns[0] * noise
        return (
            duration, columns[1], duration * self.machine.clock_hz,
            columns[3], columns[4],
        )

    def _speeds(self, ranks: np.ndarray) -> tuple:
        """The core and memory speed columns of ``ranks`` (each rank's
        factors drawn once, by :meth:`core_speed`/:meth:`mem_speed`), or
        the factor every rank draws, 1.0, on a machine without spread."""
        m = self.machine
        if m.core_speed_sigma <= 0.0 and m.mem_speed_sigma <= 0.0:
            return 1.0, 1.0
        key = ranks.tobytes()
        columns = self._speed_columns.get(key)
        if columns is None:
            listed = ranks.tolist()
            columns = self._speed_columns[key] = (
                np.asarray([self.core_speed(r) for r in listed]),
                np.asarray([self.mem_speed(r) for r in listed]),
            )
        return columns

    # -- communication -------------------------------------------------------

    def send_overhead(self) -> float:
        return self.network.call_overhead

    def recv_overhead(self) -> float:
        return self.network.call_overhead

    def p2p_transfer(self, nbytes: float) -> float:
        return self.network.p2p_transfer(nbytes)

    def collective_cost(self, op: MpiOp, nprocs: int, nbytes: float) -> float:
        return self.network.collective_cost(op, nprocs, nbytes)
