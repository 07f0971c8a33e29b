"""One workload process: set up, execute the point, check, report.

Started by ``run.py``, never imported by it.  Prints one JSON object as
its last stdout line.  Without ``--trace-seconds`` it executes the point
twice back to back (the first call after set-up ends ``setup_s``), has
the reference kernel (``reference.py``) run after each execution, and
fails any execution whose outputs or counters differ from the first.  With
``--setup-only`` it reports ``setup_s`` and executes nothing.  With
``--trace-seconds`` it alternates untraced and traced executions until
that many seconds have passed, and reports per-layer self times from the
traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))

#: Reference-kernel time after each execution, as a share of the
#: execution's wall time.  The ratio is steadiest when the kernel and the
#: point sample the host's state for similar lengths of time; half keeps
#: most of a run for the point (NOTES.md, "Choosing the estimator").
REFERENCE_SHARE = 0.5


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, report setup_s and exit without executing")
    ap.add_argument("--trace-seconds", type=float, default=None)
    ap.add_argument("--np", type=int, default=None,
                    help="rescale the workload (smoke tests)")
    ap.add_argument("--ppr", type=int, default=None,
                    help="rescale the per-rank payload (smoke tests)")
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


class Executor:
    """Set-up state shared by every execution in this process."""

    def __init__(self, args) -> None:
        from repro.campaign import compiler
        from workloads import WORKLOADS, build_point
        import execute

        self.compiler = compiler
        self.execute = execute
        workload = WORKLOADS[args.workload]
        if args.np is not None:
            workload = workload.scaled(args.np, args.ppr)
        self.workload = workload
        self.seed = args.seed
        with open(os.path.join(HERE, "references.json")) as fh:
            self.references = json.load(fh)
        self.capture = execute.RunCapture()
        #: The first execution's observation; later ones must equal it.
        self.first = None
        self.point = build_point(workload, args.seed)
        # The workload data, built as run_point builds it, for the checks.
        self.state = execute.generated_state(self.point)

    def once(self, tracer=None):
        """Execute the point once; return (wall_ns, failures)."""
        ex = self.execute
        ex.prepare()
        self.capture.clear()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter_ns()
            out = self.compiler.run_point(self.point)
            wall = time.perf_counter_ns() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        obs = ex.observe(self.point, out, self.capture)
        failures = ex.check(self.workload, self.seed, self.point, self.state,
                            obs, self.capture, self.references)
        self.capture.clear()
        if self.first is None:
            self.first = obs
        else:
            keys = sorted(k for k in obs if obs[k] != self.first[k])
            if keys:
                failures.append("differs from the first execution in this "
                                f"process: {keys}")
        return wall, failures


def untraced(args, ex: Executor) -> dict:
    import reference

    walls, refs, failures = [], [], []
    kernel = reference.Kernel()
    setup_s = time.monotonic() - args.spawned_at
    try:
        for _ in range(0 if args.setup_only else 2):
            try:
                wall, fails = ex.once()
                walls.append(wall / 1e9)
                refs += kernel.sample(REFERENCE_SHARE * walls[-1])
            except Exception:
                fails = [traceback.format_exc(limit=3)]
            failures.append(fails)
    finally:
        kernel.close()
    return {"setup_s": setup_s, "walls": walls, "refs": refs,
            "failures": failures, "obs": ex.first,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(args, ex: Executor) -> dict:
    from layers import LAYERS, LayerTracer

    tracer = LayerTracer()
    t_end = time.monotonic() + args.trace_seconds
    walls_u, walls_t, self_s, failures = [], [], [], []
    calls = None
    while True:
        for tr in (None, tracer):
            try:
                wall, fails = ex.once(tr)
                if tr is not None:
                    # layer_times() raises on a negative self time.  The
                    # self times sum to the root spans by construction;
                    # what can fail is that the root spans lie within
                    # 0.5 % of the wall time the harness measures outside.
                    lt = tr.layer_times()
                    if not 0 <= wall - lt["root_ns"] <= 0.005 * wall:
                        fails.append(f"root spans cover {lt['root_ns']} ns, "
                                     f"traced wall is {wall} ns")
                    self_s.append((lt["self_ns"] / 1e9).tolist())
                    calls = lt["calls"].tolist()
                    walls_t.append(wall / 1e9)
                else:
                    walls_u.append(wall / 1e9)
            except Exception:
                fails = [traceback.format_exc(limit=3)]
            failures.append(fails)
        if time.monotonic() >= t_end:
            break
    if args.spans_out and self_s:
        os.makedirs(os.path.dirname(os.path.abspath(args.spans_out)), exist_ok=True)
        tracer.save(args.spans_out)
    return {"layers": list(LAYERS), "walls_untraced": walls_u,
            "walls_traced": walls_t, "self_s": self_s, "calls": calls,
            "failures": failures, "obs": ex.first}


def main(argv=None) -> int:
    args = _args(argv)
    ex = Executor(args)
    if args.trace_seconds is None:
        result = untraced(args, ex)
    else:
        result = traced(args, ex)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
