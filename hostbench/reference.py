"""A fixed pure-Python kernel that measures how fast the host is right now.

The host the benchmark runs on is shared: other tenants make the same
Python code run up to 1.6 times slower for seconds to minutes at a time.
After each execution of the campaign point, the worker has the kernel
run for half the execution's time (:class:`Kernel`), and
``point_wall_rel`` divides the mean point wall time by the mean kernel
time.  A slow host stretches both, so the ratio stays put while a
change to the program moves it.

The kernel is two random walks over small Python lists, with heap
pushes and pops: one over a table that fits the L2 cache, one over a
table four times larger.  The workloads differ in how much a slow host
slows them: ``coio_collective`` about as much as the small walk,
``rbio_scale`` (190 MB resident) about as much as the large one.  The
sum of the two sits between (NOTES.md, "Choosing the estimator").

The kernel runs in a process of its own that never imports ``repro``,
so its time does not depend on the worker's heap, and the ~35 MB it
allocates never count toward the worker's peak RSS.  Run as a script,
this file reads a number of seconds per stdin line and answers each
with the JSON list of its call times (:func:`sample`).
"""

from __future__ import annotations

import ctypes
import gc
import heapq
import json
import os
import subprocess
import sys
import time

#: Table sizes (powers of two) of the two walks.
TABLES = (1 << 15, 1 << 17)
#: Steps of each walk.
STEPS = 300_000


def _walk(size: int) -> int:
    table = [[i, float(i), (i, i)] for i in range(size)]
    heap: list = []
    acc = 0
    j = 1
    for i in range(STEPS):
        j = (j * 1103515245 + 12345) & (size - 1)
        obj = table[j]
        obj[0] += 1
        acc += obj[0]
        if i & 3 == 0:
            heapq.heappush(heap, (obj[1], i))
        elif heap:
            heapq.heappop(heap)
    return acc


#: What one call computes; a different value means the kernel changed.
EXPECTED = (4_917_401_104, 19_675_286_256)


def run() -> float:
    """Run the kernel once, collector off; return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = tuple(_walk(size) for size in TABLES)
        wall = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel computed {result}, "
                           f"expected {EXPECTED}")
    return wall


def sample(seconds: float) -> list[float]:
    """Run the kernel until it has run ``seconds`` (at least once); return
    the wall time of each call."""
    walls = [run()]
    while sum(walls) < seconds:
        walls.append(run())
    return walls


class Kernel:
    """This file run as a child process, started on first use."""

    def __init__(self) -> None:
        self.proc = None

    def sample(self, seconds: float) -> list[float]:
        """:func:`sample` in the child; the caller waits for it."""
        if self.proc is None:
            # Worker and kernel on one CPU: the host slows each of its
            # vCPUs on its own, so a kernel on the other one would time
            # a different state.  The child inherits the affinity.
            os.sched_setaffinity(0, {ctypes.CDLL(None).sched_getcpu()})
            self.proc = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(f"{seconds!r}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        """End the child and wait for it."""
        if self.proc is not None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


if __name__ == "__main__":
    for request in sys.stdin:
        print(json.dumps(sample(float(request))), flush=True)
