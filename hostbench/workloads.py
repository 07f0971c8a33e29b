"""The four benchmark workloads and how a seed becomes their inputs.

Each workload is one campaign point executed closed-loop: one point at a
time, from one single-threaded process, no process pool.  The ``--seed``
argument becomes ``CampaignPoint.seed`` (storage-noise streams), and for
``delta_tam`` the seed of the evolving payload and for
``faulted_restart`` the root of the generated fault schedule.  Why each
workload exists, which layers it exercises and which it bypasses is in
``NOTES.md`` next to this file.

Only :func:`build_point` imports ``repro``; the launcher reads the names
without importing the program.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class Workload:
    """One campaign point shape; ``seed`` is filled in per run."""

    name: str
    approach: str
    n_ranks: int
    n_steps: int = 1
    delta: str = "off"
    tam: str = "off"
    #: Per-rank evolving payload size (``None``: the paper's size-only data).
    points_per_rank: Optional[int] = None
    mutated_fraction: float = 0.25
    resume: bool = False
    #: Fault-schedule expectations (``FaultConfig`` fields), or ``None``.
    faults: Optional[tuple] = None
    #: ``(n_ranks, GB/s)``: the paper's bandwidth claim, checked at that np.
    claim_gbps: Optional[tuple] = None

    def scaled(self, n_ranks: int, points_per_rank: Optional[int] = None
               ) -> "Workload":
        """The same workload at another size (smoke tests)."""
        return replace(self, n_ranks=n_ranks,
                       points_per_rank=(points_per_rank
                                        if points_per_rank is not None
                                        else self.points_per_rank))

    def key(self, seed: int) -> str:
        """Reference-table key: everything that fixes the simulated output."""
        return (f"{self.name}/np={self.n_ranks}/ppr={self.points_per_rank}"
                f"/seed={seed}")


WORKLOADS = {
    w.name: w for w in (
        # Two-phase collective I/O: mpiio, mpi and sim carry the host time.
        Workload("coio_collective", "coio_64", 4096),
        # Coalesced rbIO at the paper's largest scale (>13 GB/s claim).
        Workload("rbio_scale", "rbio_ng", 65536, claim_gbps=(65536, 13.0)),
        # Incremental chunking + TAM on real, per-rank payloads, restored.
        Workload("delta_tam", "rbio_ng", 128, n_steps=4, delta="require",
                 tam="auto", points_per_rank=512, resume=True),
        # Faults disable coalescing: per-rank rbIO, retries, failover.
        Workload("faulted_restart", "rbio_ng", 8192, n_steps=2, resume=True,
                 faults=(("fs_errors", 4.0), ("fs_stalls", 2.0),
                         ("writer_crash_prob", 1.0), ("horizon", 3.0))),
    )
}


def build_point(workload: Workload, seed: int):
    """The ``CampaignPoint`` a workload runs for ``seed``."""
    from repro.campaign.compiler import CampaignPoint
    from repro.experiments.figures import strategy_for
    from repro.faults import FaultConfig, FaultSchedule
    from repro.sim import StreamRegistry
    from repro.topology import intrepid

    config = intrepid()
    schedule = FaultSchedule()
    if workload.faults is not None:
        # Crashes target writer ranks, so every schedule forces a failover.
        writers = strategy_for(workload.approach,
                               workload.n_ranks).writer_ranks(workload.n_ranks)
        schedule = FaultSchedule.generate(
            StreamRegistry(seed), workload.n_ranks,
            FaultConfig(**dict(workload.faults)), writer_ranks=writers)
    return CampaignPoint(
        approach=workload.approach, n_ranks=workload.n_ranks, config=config,
        seed=seed, n_steps=workload.n_steps,
        gaps=(0.0,) * (workload.n_steps - 1), faults=schedule,
        resume=workload.resume, delta=workload.delta, tam=workload.tam,
        points_per_rank=workload.points_per_rank,
        mutated_fraction=workload.mutated_fraction)
