"""Per-layer host-time spans, installed from outside the program.

A :class:`LayerTracer` wraps every public function and public method
(plus ``__init__`` and ``__call__``) that the ``repro`` layer packages
define, records one span each time control enters a layer from another
one, and gives each layer its *self* time: span duration minus the time
its child spans cover.  Nothing in ``src/`` is edited; :meth:`install`
patches module and class attributes and :meth:`uninstall` puts every
original back.

Generator entry points (strategy ``checkpoint``/``restore``, coalesced
replay mains, ``MPIFile`` and ``Communicator`` operations, file-system
client calls...) are timed per resume: each ``send``/``throw`` that runs
the generator body is one span.  Timing them from the first call to
exhaustion would bill the layer for the simulated waiting of every
other rank in between.

A call made from inside the same layer opens no span, so ``calls``
counts entries into a layer.  The per-layer self times sum to the
duration of the root spans by construction; :meth:`layer_times` checks
what can break, that no span has a negative self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from types import GeneratorType

import numpy as np

#: The layers on the checkpoint path, by ``repro`` sub-package or module.
#: ``ckpt.incremental`` is split out of ``ckpt``.  ``experiments`` (the
#: run harness the campaign layer calls) is not a layer of its own: its
#: frames bill the enclosing span, ``campaign`` during set-up and ``sim``
#: inside the rank mains the engine resumes.
LAYERS = ("campaign", "sim", "mpi", "mpiio", "ckpt", "ckpt.incremental",
          "buffers", "storage", "network", "topology", "profiling",
          "faults")

#: Dunder methods that are entry points (object construction and calls).
_ENTRY_DUNDERS = ("__init__", "__call__")

_NO_LAYER = -1


def layer_of(module_name: str):
    """The layer index of a ``repro.*`` module, or ``None``."""
    if not module_name.startswith("repro."):
        return None
    rest = module_name[len("repro."):]
    best = None
    for i, layer in enumerate(LAYERS):
        if rest == layer or rest.startswith(layer + "."):
            if best is None or len(layer) > len(LAYERS[best]):
                best = i
    return best


def _layer_modules():
    """Import and yield every module that belongs to a layer."""
    for layer in LAYERS:
        mod = importlib.import_module("repro." + layer)
        yield mod
        if hasattr(mod, "__path__"):
            for info in pkgutil.walk_packages(mod.__path__, mod.__name__ + "."):
                yield importlib.import_module(info.name)


class LayerTracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.starts = array("q")
        self.ends = array("q")
        self.layers = array("b")
        self.parents = array("q")
        self.calls = [0] * len(LAYERS)
        # Current layer / current span index; the sentinels mark "outside
        # every layer" so the first call in opens a root span.
        self._lstack = [_NO_LAYER]
        self._sstack = [_NO_LAYER]

    # -- span store ------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and call counts, in place (the installed
        wrappers hold references to these containers)."""
        if len(self._lstack) != 1:
            raise RuntimeError("cannot reset while spans are open")
        for store in (self.starts, self.ends, self.layers, self.parents):
            del store[:]
        self.calls[:] = [0] * len(LAYERS)

    def _fn_wrapper(self, fn, lid: int):
        lstack, sstack = self._lstack, self._sstack
        starts, ends, layers, parents = (self.starts, self.ends, self.layers,
                                         self.parents)
        calls = self.calls
        clock = time.perf_counter_ns
        traced_gen = self._traced_gen

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_entry(*args, **kwargs):
                if lstack[-1] != lid:
                    calls[lid] += 1
                return traced_gen(fn(*args, **kwargs), lid)
            return gen_entry

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if lstack[-1] == lid:
                out = fn(*args, **kwargs)
            else:
                calls[lid] += 1
                idx = len(starts)
                parents.append(sstack[-1])
                layers.append(lid)
                ends.append(0)
                lstack.append(lid)
                sstack.append(idx)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    lstack.pop()
                    sstack.pop()
            if type(out) is GeneratorType:
                # A plain function handing back a private generator: its
                # body runs later, on resume, and belongs to this layer.
                return traced_gen(out, lid)
            return out
        return entry

    def _traced_gen(self, gen, lid: int):
        lstack, sstack = self._lstack, self._sstack
        starts, ends, layers, parents = (self.starts, self.ends, self.layers,
                                         self.parents)
        clock = time.perf_counter_ns
        send, throw = gen.send, gen.throw
        value = None
        exc = None
        while True:
            opened = lstack[-1] != lid
            if opened:
                idx = len(starts)
                parents.append(sstack[-1])
                layers.append(lid)
                ends.append(0)
                lstack.append(lid)
                sstack.append(idx)
                starts.append(clock())
            try:
                if exc is None:
                    item = send(value)
                else:
                    item = throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                if opened:
                    ends[idx] = clock()
                    lstack.pop()
                    sstack.pop()
            exc = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into the inner body
                exc = err
                value = None

    # -- installation ----------------------------------------------------
    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _wrap_class(self, cls, lid: int) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _ENTRY_DUNDERS:
                continue
            if isinstance(attr, staticmethod):
                self._patch(cls, name,
                            staticmethod(self._fn_wrapper(attr.__func__, lid)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name,
                            classmethod(self._fn_wrapper(attr.__func__, lid)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._fn_wrapper(attr, lid))

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        replaced: dict[int, tuple] = {}
        seen_classes: set[int] = set()
        for mod in _layer_modules():
            lid = layer_of(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if id(obj) not in replaced:
                        replaced[id(obj)] = (obj, self._fn_wrapper(obj, lid))
                elif (inspect.isclass(obj) and id(obj) not in seen_classes
                      and not issubclass(obj, BaseException)):
                    seen_classes.add(id(obj))
                    self._wrap_class(obj, lid)
        # Rebind every module-global reference to a wrapped function, so
        # ``from .x import f`` call sites in other modules go through it.
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- analysis --------------------------------------------------------
    def span_arrays(self) -> dict[str, np.ndarray]:
        """The span store as numpy arrays (one entry per span)."""
        return {
            "start_ns": np.frombuffer(self.starts, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64).copy(),
            "layer": np.frombuffer(self.layers, dtype=np.int8).astype(np.int64),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),        }

    def layer_times(self) -> dict:
        """Per-layer self nanoseconds and entry calls, and the root total.

        Raises ``ValueError`` when a span is still open or a child reaches
        outside its parent, since self times would then be meaningless.
        """
        s = self.span_arrays()
        if len(self._lstack) != 1:
            raise ValueError("spans still open")
        dur = s["end_ns"] - s["start_ns"]
        parent = s["parent"]
        has_parent = parent >= 0
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        if len(dur) and (dur.min() < 0 or self_ns.min() < 0):
            raise ValueError("span nesting broken: negative self time")
        per_layer = np.zeros(len(LAYERS), dtype=np.int64)
        np.add.at(per_layer, s["layer"], self_ns)
        return {
            "self_ns": per_layer,
            "calls": np.array(self.calls, dtype=np.int64),
            "root_ns": int(dur[~has_parent].sum()),
        }

    def save(self, path) -> None:
        """Write the span store (with parent links) to one ``.npz`` file."""
        np.savez(path, layer_names=np.array(LAYERS), **self.span_arrays())
