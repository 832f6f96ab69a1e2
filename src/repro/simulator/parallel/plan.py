"""Rank partitioning and lookahead for the sharded simulator."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.simulator.costmodel import NetworkModel

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """A partition of ``nprocs`` ranks into contiguous shards.

    Contiguity is not required for correctness (ranks only interact
    through messages and collectives) but keeps neighbour-heavy
    communication patterns (rings, halo exchanges) mostly shard-internal,
    which is what makes sharding pay off.
    """

    nprocs: int
    #: Half-open ``(start, stop)`` rank range per shard.
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        covered = 0
        for start, stop in self.bounds:
            if start != covered or stop <= start:
                raise ValueError(
                    f"shard bounds {self.bounds} do not tile 0..{self.nprocs}"
                )
            covered = stop
        if covered != self.nprocs:
            raise ValueError(
                f"shard bounds {self.bounds} do not cover {self.nprocs} ranks"
            )

    @classmethod
    def contiguous(cls, nprocs: int, nshards: int) -> "ShardPlan":
        """Balanced contiguous partition (sizes differ by at most one).

        ``nshards`` is clamped to ``nprocs`` — a shard without ranks would
        only add synchronization for nothing.
        """
        nshards = max(1, min(nshards, nprocs))
        base, extra = divmod(nprocs, nshards)
        bounds = []
        start = 0
        for s in range(nshards):
            size = base + (1 if s < extra else 0)
            bounds.append((start, start + size))
            start += size
        return cls(nprocs=nprocs, bounds=tuple(bounds))

    @property
    def nshards(self) -> int:
        return len(self.bounds)

    def ranks(self, shard: int) -> range:
        start, stop = self.bounds[shard]
        return range(start, stop)

    def shard_of(self, rank: int) -> int:
        """The shard owning ``rank`` (bisect over contiguous bounds)."""
        return bisect_right([b[0] for b in self.bounds], rank) - 1

    def owner_table(self) -> list[int]:
        """rank -> shard lookup list (the per-send hot path in shards)."""
        table = [0] * self.nprocs
        for s, (start, stop) in enumerate(self.bounds):
            for r in range(start, stop):
                table[r] = s
        return table

    def lookahead(self, network: NetworkModel) -> float:
        """The conservative lookahead between shards.

        Ranks only influence each other through messages, and a message
        posted at time *t* cannot reach another rank before ``t +
        latency`` (``p2p_transfer(n) = latency + n/bandwidth``), so the
        minimum network latency bounds how far one shard's unknown future
        sends can reach into another shard's timeline.  It is why every
        arrival the coordinator routes is a valid lower bound on the
        sends it can wake (arrival exceeds the send time by at least this
        much), and it is the window quantum added to GVT in
        bounded-window mode.
        """
        return network.latency
