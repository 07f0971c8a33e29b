"""Record the simulated outputs the benchmark checks exactly.

Usage (from the repository root)::

    PYTHONPATH=src python3 hostbench/pin_references.py --seeds 0-9

Runs every workload once per seed at full size and writes
``references.json``: for each ``workload/np/ppr/seed`` key the write
bandwidth, the Fig. 6/7 blocking and overall times and the emitted
``sim_blocking_s``, and for the workloads that restore, the restored
step, the writer failovers and the crashed roles.  The benchmark then fails any execution of a pinned
key that does not reproduce them bit for bit.  Re-pin only when a change
to the simulated model is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import execute  # noqa: E402
from workloads import WORKLOADS, build_point  # noqa: E402

#: Simulated outputs, then the recovery outcome of the restoring workloads.
PINNED = ("gbps", "blocking_s", "overall_s", "sim_blocking_s",
          "restored_step", "failovers", "crashed_roles")


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    ap.add_argument("--out", default=os.path.join(HERE, "references.json"))
    args = ap.parse_args(argv)

    from repro.campaign import compiler

    capture = execute.RunCapture()
    refs = {}
    for workload in WORKLOADS.values():
        for seed in _seeds(args.seeds):
            point = build_point(workload, seed)
            execute.prepare()
            capture.clear()
            out = compiler.run_point(point)
            obs = execute.observe(point, out, capture)
            failures = execute.check(workload, seed, point,
                                     execute.generated_state(point), obs,
                                     capture, {})
            if failures:
                raise SystemExit(f"{workload.key(seed)} fails its checks: {failures}")
            refs[workload.key(seed)] = {k: obs[k] for k in PINNED
                                        if obs[k] is not None}
            print(workload.key(seed), refs[workload.key(seed)], flush=True)
    with open(args.out, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
