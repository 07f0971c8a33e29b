"""Execute one campaign point, observe run-scoped outputs, check them.

Everything here runs inside the workload process.  Caches are defeated
and process-wide counters zeroed before every execution, and counters
are read from the run's own objects (``job.engine``, ``job.fabric``,
the job's file system and fault injector), never from the ``fabric.*``
keys of ``Engine.counters()``, which are process-wide.
"""

from __future__ import annotations

import gc


class RunCapture:
    """Records the ``CheckpointRun`` / ``ResilientCampaign`` a point builds.

    ``run_point`` returns only summary numbers; the checks need the job,
    its file system and the restored state.  The capture wraps the two
    constructors for the life of the process (one list append per run).
    """

    def __init__(self) -> None:
        from repro.experiments.resilience import ResilientCampaign
        from repro.experiments.runner import CheckpointRun

        self.runs: list = []
        self.campaigns: list = []
        for cls, sink in ((CheckpointRun, self.runs),
                          (ResilientCampaign, self.campaigns)):
            original = cls.__init__

            def init(obj, *args, _original=original, _sink=sink, **kwargs):
                _original(obj, *args, **kwargs)
                _sink.append(obj)
            cls.__init__ = init

    def clear(self) -> None:
        self.runs.clear()
        self.campaigns.clear()


def prepare() -> None:
    """Defeat result caches and zero process-wide counters (untimed)."""
    from repro.buffers import stats as buffer_stats
    from repro.ckpt.incremental import stats as delta_stats
    from repro.experiments.figures import clear_cache

    clear_cache()
    buffer_stats.reset()
    delta_stats.reset()
    gc.collect()


def observe(point, out: dict, capture: RunCapture) -> dict:
    """Simulated outputs and run-scoped counters of the last execution."""
    from repro.buffers import stats as buffer_stats
    from repro.ckpt.incremental import stats as delta_stats
    from repro.faults import faults_of
    from repro.model import blocked_processor_seconds

    if len(capture.runs) != 1:
        raise RuntimeError(f"expected one checkpoint run, saw {len(capture.runs)}")
    run = capture.runs[0]
    res = run.results[-1]
    eng = run.job.engine.counters()  # only its per-engine event keys
    fab = run.job.fabric.stats()
    fs = run.fs.stats()
    inj = faults_of(run.job)
    report = inj.report() if inj is not None else {"scheduled": 0,
                                                   "injected": 0}
    hits, misses = delta_stats.chunk_hits, delta_stats.chunk_misses
    return {
        # Simulated outputs (deterministic per seed).
        "gbps": res.write_bandwidth / 1e9,
        "blocking_s": res.blocking_time,
        "overall_s": res.overall_time,
        # Eqs. (3)/(4) blocked processor-seconds per rank: workers' blocked
        # window plus dedicated writers' commit time.
        "sim_blocking_s": blocked_processor_seconds(res) / res.n_ranks,
        "point_gbps": out["gbps"],
        "point_overall_s": out["overall_time"],
        # Recovery outcome of a resilient restore (None without one).
        "restored_step": out.get("restored_step"),
        "failovers": out.get("failovers"),
        "crashed_roles": out.get("crashed_roles"),
        # Run-scoped counters.
        "sim.events": eng["events_processed"],
        "sim.batched_ratio": ((eng["batched_events"] + eng["absorbed_events"])
                              / eng["events_processed"]
                              if eng["events_processed"] else 0.0),
        "network.msgs_inter": fab["fabric_msgs_inter"],
        "network.msgs_intra": fab["fabric_msgs_intra"],
        "network.bytes_inter": fab["fabric_bytes_inter"],
        "network.tam_coalesce_ratio": fab["tam_coalesce_ratio"],
        "storage.ops": fs["creates"] + fs["opens"] + fs["writes"] + fs["reads"],
        "storage.revocations": fs["revocations"],
        "storage.rmw_reads": fs["rmw_reads"],
        "storage.bytes_stored": fs["bytes_stored"],
        "storage.files": fs["files"],
        "buffers.bytes_copied": buffer_stats.bytes_copied,
        "buffers.allocs": buffer_stats.buffer_allocs,
        "ckpt.incremental.bytes_to_pfs": delta_stats.bytes_to_pfs,
        "ckpt.incremental.hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 0.0),
        "faults.scheduled": report["scheduled"],
        "faults.injected": report["injected"],
        "ckpt.bytes": [r.total_bytes for r in run.results],
        "ranks_reporting": [sorted(set(r.ranks.tolist())) == list(range(point.n_ranks))
                            for r in run.results],
    }


def check(workload, seed: int, point, state, obs: dict, capture: RunCapture,
          references: dict) -> list[str]:
    """Every correctness failure of one execution (empty when correct).

    ``state`` is :func:`generated_state` of the point.
    """
    failures = []
    for name, want in references.get(workload.key(seed), {}).items():
        if obs[name] != want:
            failures.append(f"{name} {obs[name]!r} != reference {want!r}")
    if obs["point_gbps"] != obs["gbps"] or obs["point_overall_s"] != obs["overall_s"]:
        failures.append("run_point output disagrees with its run's result")
    if not all(obs["ranks_reporting"]):
        failures.append("not every rank reported in every step")
    # Bytes stored must equal the checkpoint bytes S the strategy committed:
    # the shipped delta bytes, or every field byte plus one header per file.
    if workload.delta != "off":
        expected = obs["ckpt.incremental.bytes_to_pfs"]
    else:
        expected = (sum(obs["ckpt.bytes"])
                    + obs["storage.files"] * state(0, 0).header_bytes)
    if obs["storage.bytes_stored"] != expected:
        failures.append(f"bytes stored {obs['storage.bytes_stored']} != "
                        f"checkpoint bytes {expected}")
    if workload.claim_gbps is not None:
        claim_np, claim = workload.claim_gbps
        if point.n_ranks == claim_np and not obs["gbps"] > claim:
            failures.append(f"{obs['gbps']:.3f} GB/s is not above the "
                            f"paper's {claim} GB/s at np={claim_np}")
    if workload.faults is not None and obs["faults.injected"] != obs["faults.scheduled"]:
        failures.append(f"injected {obs['faults.injected']} of "
                        f"{obs['faults.scheduled']} scheduled faults")
    if dict(workload.faults or ()).get("writer_crash_prob") and not (
            obs["crashed_roles"] and obs["failovers"]):
        failures.append(f"scheduled writer crash shows {obs['crashed_roles']} "
                        f"crashed roles and {obs['failovers']} failovers")
    if workload.resume:
        failures.extend(_check_restore(point, state, capture))
    return failures


def generated_state(point):
    """``(rank, step) -> CheckpointData`` built as ``run_point`` builds it."""
    from repro.ckpt import EvolvingData
    from repro.experiments.figures import problem_for

    if point.points_per_rank is None:
        data = problem_for(point.n_ranks).data()
        return lambda rank, step: data
    evolving = EvolvingData.mutating(point.points_per_rank,
                                     mutated_fraction=point.mutated_fraction,
                                     seed=point.seed)
    return lambda rank, step: evolving.bind(rank).at_step(step)


def _check_restore(point, state, capture: RunCapture) -> list[str]:
    from repro.buffers import as_bytes

    if len(capture.campaigns) != 1:
        return [f"expected one restore, saw {len(capture.campaigns)}"]
    restored = capture.campaigns[0].restored or {}
    if sorted(restored) != list(range(point.n_ranks)):
        return ["not every rank restored"]
    steps = {step for step, _fields in restored.values()}
    if len(steps) != 1:
        return [f"ranks disagree on the restored step: {sorted(steps)}"]
    (step,) = steps
    for rank, (_step, fields) in restored.items():
        want = state(rank, step).fields
        if len(fields) != len(want):
            return [f"rank {rank}: {len(fields)} fields restored, "
                    f"{len(want)} written"]
        for got, field in zip(fields, want):
            if field.payload is None:
                if got is not None:
                    return [f"rank {rank}: payload restored for size-only "
                            f"field {field.name}"]
            elif got is None or as_bytes(got) != as_bytes(field.payload):
                return [f"rank {rank}: field {field.name} differs from the "
                        f"generated state at step {step}"]
    return []
