"""Host-time benchmark of paper-scale checkpoint simulation.

Usage (from the repository root)::

    python3 hostbench/run.py --workload coio_collective --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the named workload in fresh single-threaded worker
processes, one after another, for about ``--seconds``.  Each worker
sets up once and executes the campaign point twice back to back; before
each, ``SETUP_PROBES`` workers only set up.  After each execution the
worker runs a fixed reference kernel (``reference.py``) for half the
execution's time.  It prints the end-to-end metrics: the point's wall
time relative to the kernel's, mean set-up time, median peak RSS, and
the simulated bandwidth and blocking time.
``--trace 1`` runs one worker that alternates untraced and traced
executions and prints the per-layer metrics.  In both modes every
execution is checked (``execute.check``).  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
failed check, a crashed worker or a missing ``src/repro`` makes the exit
code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: A worker that runs longer than this is killed and counted as failed,
#: which keeps one benchmark run well inside three minutes.
WORKER_TIMEOUT_S = 150.0

#: Set-up-only workers spawned before each executing one, so that a run
#: times 9-21 set-ups.  ``setup_s`` is their mean: of the estimators
#: tried, it shifted least between two sets of runs (NOTES.md, "Choosing
#: the estimator").
SETUP_PROBES = 2

#: Per-layer counters, read from the run's own objects (``execute.observe``).
COUNTERS = {
    "sim.events": "count",
    "sim.batched_ratio": "ratio",
    "ckpt.incremental.bytes_to_pfs": "B",
    "ckpt.incremental.hit_ratio": "ratio",
    "buffers.bytes_copied": "B",
    "buffers.allocs": "count",
    "network.msgs_inter": "count",
    "network.msgs_intra": "count",
    "network.bytes_inter": "B",
    "network.tam_coalesce_ratio": "ratio",
    "storage.ops": "count",
    "storage.revocations": "count",
    "storage.rmw_reads": "count",
    "faults.injected": "count",
    "faults.scheduled": "count",
}


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--np", type=int, default=None,
                    help="rescale the workload's rank count (smoke tests)")
    ap.add_argument("--ppr", type=int, default=None,
                    help="rescale the per-rank payload (smoke tests)")
    return ap.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    # Every result cache off; one thread per process; stable hashing.
    env.pop("REPRO_BENCH_CACHE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, extra: list[str]) -> dict:
    """Run one worker to completion; return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    for flag in ("np", "ppr"):
        value = getattr(args, flag)
        if value is not None:
            cmd += [f"--{flag}", str(value)]
    cmd += extra + ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _failures(report: dict) -> tuple[int, int]:
    fails = report["failures"]
    for i, f in enumerate(fails):
        for line in f:
            print(f"execution {i}: {line}", file=sys.stderr)
    return len(fails), sum(1 for f in fails if f)


def end_to_end(args) -> tuple[int, int, dict]:
    t_end = time.monotonic() + args.seconds
    reports, setups = [], []
    cycle = 0.0
    # Every worker executes twice, so a run holds as many first
    # executions in a process (slower: lazy set-up, fresh memory) as
    # second ones.  A cycle starts while at least half of one still fits.
    while not reports or time.monotonic() + cycle / 2 < t_end:
        t0 = time.monotonic()
        setups += [_spawn(args, ["--setup-only"])["setup_s"]
                   for _ in range(SETUP_PROBES)]
        reports.append(_spawn(args, []))
        setups.append(reports[-1]["setup_s"])
        cycle = time.monotonic() - t0
    attempted = failed = 0
    for r in reports:
        a, f = _failures(r)
        attempted, failed = attempted + a, failed + f
    walls = [w for r in reports for w in r["walls"]]
    refs = [t for r in reports for t in r["refs"]]
    obs = [r["obs"] for r in reports if r["obs"] is not None]
    if not walls or not refs or not obs:
        return attempted, failed, {}
    if any(o != obs[0] for o in obs):
        failed = attempted
        print("workers disagree on outputs/counters", file=sys.stderr)
    metrics = {
        # Mean point time over mean reference-kernel time, both measured
        # in the same workers, alternately: the host's swings between fast
        # and slow states (other tenants) stretch both (NOTES.md,
        # "Choosing the estimator").
        "point_wall_rel": (statistics.fmean(walls) / statistics.fmean(refs),
                           "ratio"),
        "setup_s": (statistics.fmean(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reports), "MB"),
        "sim_write_gbps": (obs[0]["gbps"], "GB/s"),
        "sim_blocking_s": (obs[0]["sim_blocking_s"], "s"),
    }
    print(f"{args.workload} seed={args.seed}: {len(reports)} workers, "
          f"{len(walls)} timed points, walls={[round(w, 3) for w in walls]}, "
          f"refs={[round(t, 3) for t in refs]}, "
          f"setups={[round(t, 4) for t in setups]}", file=sys.stderr)
    return attempted, failed, metrics


def per_layer(args) -> tuple[int, int, dict]:
    out_dir = os.path.join(HERE, "out")
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
    r = _spawn(args, ["--trace-seconds", repr(args.seconds),
                      "--spans-out", spans])
    attempted, failed = _failures(r)
    if not r["self_s"] or r["obs"] is None:
        return attempted, failed, {}
    metrics = {}
    for i, layer in enumerate(r["layers"]):
        metrics[f"{layer}.self_s"] = (
            statistics.median(s[i] for s in r["self_s"]), "s")
        metrics[f"{layer}.calls"] = (r["calls"][i], "count")
    for name, unit in COUNTERS.items():
        metrics[name] = (r["obs"][name], unit)
    metrics["campaign.wall_s"] = (statistics.median(r["walls_untraced"]), "s")
    metrics["tracing.overhead_ratio"] = (
        statistics.median(r["walls_traced"])
        / statistics.median(r["walls_untraced"]), "ratio")
    return attempted, failed, metrics


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    try:
        attempted, failed, metrics = (per_layer if args.trace else end_to_end)(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    correct = failed == 0 and attempted > 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
