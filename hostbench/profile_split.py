"""Cross-check the traced per-layer split against cProfile.

Usage (from the repository root)::

    PYTHONPATH=src python3 hostbench/profile_split.py --workload delta_tam --seed 1

Executes the workload's point once under the layer tracer and once under
``cProfile``, and prints a Markdown table of each layer's share of host
time both ways.  cProfile ``tottime`` is grouped by ``repro.<package>``;
time in code outside ``repro`` (builtins, numpy, the standard library)
goes to the layers of its callers in proportion to the time each caller
spent in it, which is what the tracer's self time does implicitly.
``experiments`` is not a traced layer: the tracer bills its frames to
the enclosing span (``campaign`` in set-up, ``sim`` inside rank mains).
The results are recorded in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import execute  # noqa: E402
from layers import LAYERS, LayerTracer, layer_of  # noqa: E402
from workloads import WORKLOADS, build_point  # noqa: E402

_SRC_MARK = os.sep + "repro" + os.sep


def _group(filename: str):
    """Layer name for a profiled code object, ``None`` outside ``repro``."""
    i = filename.rfind(_SRC_MARK)
    if i < 0:
        return None
    rel = filename[i + 1:].removesuffix(".py").replace(os.sep, ".")
    module = rel.removesuffix(".__init__")
    lid = layer_of(module)
    if lid is not None:
        return LAYERS[lid]
    return module.split(".")[1] if "." in module else module


def cprofile_split(stats: dict) -> dict[str, float]:
    """``tottime`` per layer, non-``repro`` time billed to its callers."""
    memo: dict = {}

    def shares(func, seen=frozenset()):
        if func in memo:
            return memo[func]
        owner = _group(func[0])
        if owner is not None:
            return {owner: 1.0}
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[2] for c, v in callers.items() if c not in seen}
        total = sum(weights.values())
        if not total:
            return {"(unattributed)": 1.0}
        out: dict[str, float] = {}
        for caller, w in weights.items():
            for layer, frac in shares(caller, seen | {func}).items():
                out[layer] = out.get(layer, 0.0) + frac * w / total
        if not seen:
            memo[func] = out
        return out

    split: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, frac in shares(func).items():
            split[layer] = split.get(layer, 0.0) + tt * frac
    return split


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    from repro.campaign import compiler

    workload = WORKLOADS[args.workload]
    point = build_point(workload, args.seed)
    tracer = LayerTracer()

    execute.prepare()
    t0 = time.perf_counter()
    compiler.run_point(point)
    untraced = time.perf_counter() - t0

    execute.prepare()
    tracer.install()
    try:
        t0 = time.perf_counter()
        compiler.run_point(point)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    lt = tracer.layer_times()
    traced_split = {layer: lt["self_ns"][i] / 1e9 for i, layer in enumerate(LAYERS)}

    execute.prepare()
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.runcall(compiler.run_point, point)
    profiled = time.perf_counter() - t0
    prof_split = cprofile_split(pstats.Stats(prof).stats)

    t_total = sum(traced_split.values())
    p_total = sum(prof_split.values())
    print(f"{args.workload} seed={args.seed}: untraced {untraced:.2f} s, "
          f"traced {traced:.2f} s, cProfile {profiled:.2f} s\n")
    print("| layer | traced self % | cProfile tottime % |")
    print("|---|---:|---:|")
    rows = sorted(set(traced_split) | set(prof_split),
                  key=lambda k: -traced_split.get(k, prof_split.get(k, 0.0)))
    for layer in rows:
        t = traced_split.get(layer)
        p = prof_split.get(layer, 0.0)
        t_cell = f"{100 * t / t_total:.1f}" if t is not None else "—"
        print(f"| {layer} | {t_cell} | {100 * p / p_total:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
