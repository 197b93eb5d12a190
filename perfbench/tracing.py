"""Per-layer timing wrappers for the traced pass of the benchmark.

The program under test is not edited: :func:`install` replaces public entry
points of each layer (methods on its classes, module-level functions) with
wrappers that time the call and restores the originals on
:func:`Tracer.uninstall`.  Time is attributed per thread: every wrapped call
pushes a frame on its thread's stack, and a frame's *self* time is its
duration minus the durations of the wrapped calls it made on the same
thread.  A call with no wrapped caller on its thread is a *root*; each
snapshot lists the roots' wall times beside the self times summed under
them, which the benchmark checks against each other.  Batcher dispatch runs
on its own thread, so its session calls are roots of that thread, not
children of the caller's wait.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

#: ``after(result, args, kwargs, tracer)`` hooks record counts at the same
#: boundary the time is taken.
AfterHook = Callable[[Any, tuple, dict, "Tracer"], None]


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    #: wall time of outermost calls only (a layer re-entered on one thread
    #: is not counted twice)
    incl_s: float = 0.0


@dataclass
class _Frame:
    layer: str
    start: float
    child_s: float = 0.0
    subtree_self_s: float = 0.0


@dataclass
class Snapshot:
    layers: dict[str, LayerTotals]
    counters: dict[str, float]
    roots: list[tuple[float, float]] = field(default_factory=list)

    def minus(self, earlier: "Snapshot") -> "Snapshot":
        layers = {}
        for name, totals in self.layers.items():
            base = earlier.layers.get(name, LayerTotals())
            layers[name] = LayerTotals(
                calls=totals.calls - base.calls,
                self_s=totals.self_s - base.self_s,
                incl_s=totals.incl_s - base.incl_s,
            )
        counters = {
            name: value - earlier.counters.get(name, 0.0)
            for name, value in self.counters.items()
        }
        return Snapshot(layers, counters, self.roots[len(earlier.roots):])

    def layer(self, name: str) -> LayerTotals:
        return self.layers.get(name, LayerTotals())

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


class Tracer:
    """Collects per-layer self/inclusive time and counters across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
        self._counters: dict[str, float] = defaultdict(float)
        #: (root wall seconds, summed self seconds of its subtree)
        self._roots: list[tuple[float, float]] = []
        self._patches: list[tuple[object, str, object]] = []
        #: every session constructed while installed (for cache counters)
        self.sessions: list[Any] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self._counters[name] += value

    def wrap(self, layer: str, func: Callable, after: AfterHook | None = None) -> Callable:
        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            outermost = all(frame.layer != layer for frame in stack)
            frame = _Frame(layer, time.perf_counter())
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame.start
                stack.pop()
                self_s = duration - frame.child_s
                subtree = frame.subtree_self_s + self_s
                if stack:
                    parent = stack[-1]
                    parent.child_s += duration
                    parent.subtree_self_s += subtree
                with self._lock:
                    totals = self._layers[layer]
                    totals.calls += 1
                    totals.self_s += self_s
                    if outermost:
                        totals.incl_s += duration
                    if not stack:
                        self._roots.append((duration, subtree))
            if after is not None:
                after(result, args, kwargs, self)
            return result

        return timed

    def snapshot(self) -> Snapshot:
        with self._lock:
            return Snapshot(
                {
                    name: LayerTotals(t.calls, t.self_s, t.incl_s)
                    for name, t in self._layers.items()
                },
                dict(self._counters),
                list(self._roots),
            )

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_method(
        self, owner: type, name: str, layer: str, after: AfterHook | None = None
    ) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, after))

    def patch_function(
        self, module: Any, name: str, layer: str, after: AfterHook | None = None
    ) -> None:
        """Wrap a module-level function, also where it was imported by name."""
        original = getattr(module, name)
        wrapped = self.wrap(layer, original, after)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, name, None) is original
            ):
                self._patches.append((loaded, name, original))
                setattr(loaded, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


# ----------------------------------------------------------------------
# Count hooks
# ----------------------------------------------------------------------
def _count_probes(result: Any, args: tuple, kwargs: dict, tracer: Tracer) -> None:
    estimates = getattr(result, "estimates", None) or (result,)
    tracer.add("size_search.probes", sum(e.n_probability_evaluations for e in estimates))


def _count_fit(result: Any, args: tuple, kwargs: dict, tracer: Tracer) -> None:
    tracer.add("fit.iterations", result.optimization.n_iterations)


def _count_kernel_ops(result: Any, args: tuple, kwargs: dict, tracer: Tracer) -> None:
    # Multiply-adds of the (k, p) x (p, rows) product, computed from shapes.
    thetas, X = args[1], args[2]
    k, p = (1, thetas.shape[0]) if thetas.ndim == 1 else thetas.shape[:2]
    tracer.add("kernel.ops", float(k) * float(p) * float(X.shape[0]))


def _count_block(result: Any, args: tuple, kwargs: dict, tracer: Tracer) -> None:
    nbytes = result.X.nbytes + (0 if result.y is None else result.y.nbytes)
    tracer.add("store.read_blocks", 1)
    tracer.add("store.bytes", nbytes)


def _count_get_hit(result: Any, args: tuple, kwargs: dict, tracer: Tracer) -> None:
    tracer.add("registry.get_hits", result is not None)


def _collect_session(result: Any, args: tuple, kwargs: dict, tracer: Tracer) -> None:
    with tracer._lock:
        tracer.sessions.append(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see the module docstring)."""
    from repro.core import statistics
    from repro.core.accuracy import ModelAccuracyEstimator
    from repro.core.coordinator import BlinkML
    from repro.core.parameter_sampler import ParameterSampler
    from repro.core.registry import SessionRegistry
    from repro.core.sample_size import SampleSizeEstimator
    from repro.core.session import EstimationSession
    from repro.data.sampling import UniformSampler
    from repro.data.store import ShardedDataset
    from repro.evaluation import streaming
    from repro.models import base
    from repro.models.linear_regression import LinearRegressionSpec
    from repro.models.logistic_regression import LogisticRegressionSpec
    from repro.models.max_entropy import MaxEntropySpec
    from repro.models.poisson_regression import PoissonRegressionSpec
    from repro.models.ppca import PPCASpec
    from repro.serving.batcher import ContractBatcher
    from repro.serving.service import CoalescingService

    def count_pass_rows(result: Any, args: tuple, kwargs: dict, t: Tracer) -> None:
        task = args[0]
        if task.make_accumulator().needs_holdout_blocks:
            t.add("streaming.rows", streaming.as_block_source(task.source).n_rows)

    method_layers: list[tuple[type, str, str, AfterHook | None]] = [
        (CoalescingService, "answer_sync", "service", None),
        (CoalescingService, "train_to_sync", "service", None),
        (ContractBatcher, "answer", "batcher", None),
        (ContractBatcher, "train_to", "batcher", None),
        (SessionRegistry, "get", "registry", _count_get_hit),
        (SessionRegistry, "get_or_create", "registry", None),
        (BlinkML, "train", "coordinator", None),
        (BlinkML, "session", "coordinator", None),
        (BlinkML, "train_full", "coordinator", None),
        (EstimationSession, "__init__", "session.construct", _collect_session),
        (EstimationSession, "answer", "session.answer", None),
        (EstimationSession, "answer_many", "session.answer", None),
        (EstimationSession, "train_to", "session.train_to", None),
        (EstimationSession, "train_to_many", "session.train_to", None),
        (SampleSizeEstimator, "estimate", "size_search", _count_probes),
        (SampleSizeEstimator, "estimate_many", "size_search", _count_probes),
        (ModelAccuracyEstimator, "sorted_differences", "accuracy", None),
        (ModelAccuracyEstimator, "estimate", "accuracy", None),
        (ParameterSampler, "sample_around", "sampler", None),
        (ParameterSampler, "two_stage_samples", "sampler", None),
        (base.BlockSumDiffAccumulator, "update", "kernel.diff_update", None),
        (base.ModelClassSpec, "fit", "fit", _count_fit),
        (UniformSampler, "nested_sample", "sampling", None),
        (ShardedDataset, "read_block", "store", _count_block),
    ]
    for spec_class in (
        base.ModelClassSpec,
        LinearRegressionSpec,
        LogisticRegressionSpec,
        MaxEntropySpec,
        PoissonRegressionSpec,
        PPCASpec,
    ):
        if "predict_many" in spec_class.__dict__:
            method_layers.append(
                (spec_class, "predict_many", "kernel.predict_many", _count_kernel_ops)
            )
    for owner, name, layer, after in method_layers:
        tracer.patch_method(owner, name, layer, after)
    tracer.patch_function(statistics, "compute_statistics", "statistics")
    tracer.patch_function(streaming, "stream_accumulate", "streaming", count_pass_rows)
