"""Tests of the benchmark itself, at smoke size (<= 512 ranks).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest hostbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import execute  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from pin_references import PINNED  # noqa: E402
from workloads import WORKLOADS, build_point  # noqa: E402

#: Smoke sizes: (np, points per rank or None for the paper data).
SMOKE = {
    "coio_collective": (256, None),
    "rbio_scale": (512, None),
    "delta_tam": (64, 64),
    "faulted_restart": (512, None),
}

SEED = 5


def _bench(workload, trace, *extra, cwd=ROOT):
    np_, ppr = SMOKE[workload]
    cmd = [sys.executable, os.path.join(cwd, "hostbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--np", str(np_)]
    if ppr is not None:
        cmd += ["--ppr", str(ppr)]
    proc = subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


def test_benchmark_json_names_the_workloads():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, result, err = _bench(workload, trace)
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = _declared()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in declared)
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(got[m["name"]]["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _err = _bench("coio_collective", 0, cwd=str(tmp_path))
    assert code != 0 and result is None


_CAPTURE = []


def _run_once(workload_name, tracer=None, references=None):
    """Execute one smoke point in process; return (obs, failures, wall_ns)."""
    np_, ppr = SMOKE[workload_name]
    workload = WORKLOADS[workload_name].scaled(np_, ppr)
    point = build_point(workload, SEED)
    if not _CAPTURE:
        _CAPTURE.append(execute.RunCapture())
    capture = _CAPTURE[0]
    from repro.campaign import compiler

    execute.prepare()
    capture.clear()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = time.perf_counter_ns()
        out = compiler.run_point(point)
        wall = time.perf_counter_ns() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    obs = execute.observe(point, out, capture)
    failures = execute.check(workload, SEED, point,
                             execute.generated_state(point), obs, capture,
                             references or {})
    return obs, failures, wall


@pytest.mark.parametrize("workload", ["rbio_scale", "faulted_restart"])
def test_perturbed_reference_fails_the_point(workload):
    np_, ppr = SMOKE[workload]
    key = WORKLOADS[workload].scaled(np_, ppr).key(SEED)
    obs, failures, _ = _run_once(workload)
    assert failures == []
    pinned = {name: obs[name] for name in PINNED if obs[name] is not None}
    _, failures, _ = _run_once(workload, references={key: pinned})
    assert failures == []

    perturbed = {"gbps": math.nextafter(obs["gbps"], 0.0)}
    if workload == "faulted_restart":
        # A restore that falls back to another step, even if every rank
        # agrees on it, fails the point.
        perturbed = {"restored_step": obs["restored_step"] + 1}
    _, failures, _ = _run_once(workload, references={key: perturbed})
    (name,) = perturbed
    assert len(failures) == 1 and failures[0].startswith(name)


@pytest.mark.parametrize("workload", ["coio_collective", "delta_tam"])
def test_layer_self_times_tile_the_traced_call(workload):
    from repro.campaign import compiler

    original = compiler.run_point
    tracer = LayerTracer()
    obs, failures, wall = _run_once(workload, tracer)
    assert failures == []
    assert compiler.run_point is original  # uninstall restored it
    lt = tracer.layer_times()  # raises on a negative self time
    # The self times sum to the root spans by construction; the root spans
    # must account for the wall time measured around the traced call.
    assert 0 <= wall - lt["root_ns"] <= 0.005 * wall
    assert lt["calls"][LAYERS.index("campaign")] == 1
    for layer in ("sim", "mpi", "ckpt", "storage"):
        assert lt["calls"][LAYERS.index(layer)] > 0, layer
    if workload == "delta_tam":
        assert lt["self_ns"].argmax() == LAYERS.index("ckpt.incremental")


def test_tracing_does_not_change_outputs():
    plain, _, _ = _run_once("delta_tam")
    traced, _, _ = _run_once("delta_tam", LayerTracer())
    assert plain == traced


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_back_to_back_executions_repeat_exactly(workload):
    first, failures, _ = _run_once(workload)
    assert failures == []
    second, failures, _ = _run_once(workload)
    assert failures == []
    assert first == second

