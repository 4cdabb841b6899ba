"""Per-layer tracing installed from outside the program.

`install()` replaces every public function of each hurwitzkit module (and the
public methods of its classes) with a timing wrapper, in every hurwitzkit
namespace that holds a reference to it, and wraps `numpy.linalg.qr`.  Nothing
under src/ is edited.  A layer's self time is the time of its spans minus the
time of the spans they call, so time spent in numpy.linalg.qr is not counted
in matrixmc, and a character evaluation called from the hurwitz kernel is
counted in characters.

Not wrapped: private helpers (their time lands in the public function that
called them), the per-element helpers named in UNWRAPPED (the accessors of
the `Partition` value object and the oracle's permutation arithmetic, called
millions of times; wrapping them would cost more than the work they do), and
dunder methods other than the arithmetic of `PowerSumPoly`.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = (
    "partitions", "symfunc", "characters", "hurwitz", "oracle",
    "genfun", "hirota", "matrixmc", "cli",
)
QR_LAYER = "numpy.qr"
UNWRAPPED = {"Partition", "compose", "inverse", "cycle_type"}
WRAPPED_DUNDERS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}
CACHED_LAYERS = ("partitions", "symfunc", "characters", "oracle")
COUNTED_LAYERS = ("characters", "hurwitz", "oracle", "matrixmc")
MARKER = "PERFBENCH_TRACE "  # starts the line a traced command writes last on stderr


class Tracer:
    """Self time and call count per layer, plus the functools caches per layer."""

    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS + (QR_LAYER,), 0)
        self.calls = dict.fromkeys(LAYERS + (QR_LAYER,), 0)
        self.qr_matrices = 0
        self.caches: dict[str, list] = {layer: [] for layer in LAYERS}
        self._stack: list[list[int]] = []

    def reset(self) -> None:
        """Forget spans so far; the caches are state and stay as they are."""
        for layer in self.self_ns:
            self.self_ns[layer] = 0
            self.calls[layer] = 0
        self.qr_matrices = 0

    def wrap(self, layer: str, fn):
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span = clock() - frame[0]
                self_ns[layer] += span - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += span

        return traced

    def cache_entries(self, layer: str) -> int:
        return sum(cache.cache_info().currsize for cache in self.caches[layer])

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        for layer in COUNTED_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
        for layer in CACHED_LAYERS:
            out[f"{layer}.cache_entries"] = self.cache_entries(layer)
        out["numpy.qr_s"] = self.self_ns[QR_LAYER] / 1e9
        out["numpy.qr_matrices"] = self.qr_matrices
        return out


def _defined_here(obj, module_name: str) -> bool:
    return getattr(obj, "__module__", None) == module_name


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for name, raw in list(vars(cls).items()):
        if name.startswith("_") and name not in WRAPPED_DUNDERS:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, name, type(raw)(tracer.wrap(layer, raw.__func__)))
        elif callable(raw) and not isinstance(raw, type):
            setattr(cls, name, tracer.wrap(layer, raw))


def install() -> Tracer:
    """Wrap the already importable hurwitzkit package; returns the live tracer."""
    import numpy

    tracer = Tracer()
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hurwitzkit.{layer}")
        for name, obj in list(vars(module).items()):
            if not _defined_here(obj, module.__name__):
                continue
            if hasattr(obj, "cache_info"):
                tracer.caches[layer].append(obj)
            if name.startswith("_") or name in UNWRAPPED:
                continue
            if isinstance(obj, type):
                _wrap_class(tracer, layer, obj)
            elif callable(obj):
                replaced[id(obj)] = tracer.wrap(layer, obj)
    # Rebind every reference, so calls between modules go through the wrappers.
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hurwitzkit" and not mod_name.startswith("hurwitzkit."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)

    qr = numpy.linalg.qr

    def counted_qr(a, *args, **kwargs):
        shape = numpy.shape(a)
        tracer.qr_matrices += int(numpy.prod(shape[:-2], dtype=numpy.int64))
        return qr(a, *args, **kwargs)

    numpy.linalg.qr = tracer.wrap(QR_LAYER, counted_qr)
    return tracer


def merge_command_traces(results) -> dict[str, float]:
    """Sum the layer metrics of traced commands (each a fresh process, so
    cache entries add up too); cli.startup_s is the mean over commands of the
    time from spawning the process to having imported the package."""
    total: dict[str, float] = {}
    startups = []
    for res in results:
        lines = res.stderr.strip().splitlines() if res is not None else []
        if not lines or not lines[-1].startswith(MARKER):
            continue
        data = json.loads(lines[-1][len(MARKER):])
        startups.append(data["imported"] - res.spawned)
        for name, value in data["layers"].items():
            total[name] = total.get(name, 0) + value
    if startups:
        total["cli.startup_s"] = sum(startups) / len(startups)
    return total
