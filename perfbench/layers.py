"""Timing wrappers around the program's public entry points (the traced run).

The benchmark measures layers from outside: :class:`Tracer` wraps a
function, method or classmethod where its caller looks it up (for
example ``binary_tournament`` in ``repro.optim.nsga2``, the name the
NSGA-II loop resolves) and records, per layer:

* inclusive time -- wall time inside the outermost active call;
* self time -- inclusive time minus the time spent in nested wrapped
  calls of *other* layers, so the self times of all layers add up to the
  time spent inside any wrapper;
* call counts, plus layer-specific counts taken from arguments or
  results (lanes simulated, Newton iterations, bytes written).

Nothing in ``src/`` changes and the program's own tracing stays at its
default; the wrappers are installed only around the traced operations
and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: ``count(counts, args, kwargs, result)`` adds layer-specific counts.
CountHook = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    """Accumulates inclusive time, self time and counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[Any]] = []  # [layer, time in nested layers]
        self._active: Counter = Counter()

    def wrap(self, layer: str, function: Callable, count: Optional[CountHook] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            tracer._stack.append(frame)
            tracer._active[layer] += 1
            started = tracer.clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - started
                tracer._stack.pop()
                tracer._active[layer] -= 1
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                if not tracer._active[layer]:
                    # Recursion into the same layer is counted once.
                    tracer.total_s[layer] += elapsed
                tracer.self_s[layer] += elapsed - frame[1]
                tracer.calls[layer] += 1
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return timed

    def snapshot(self) -> tuple:
        return dict(self.total_s), dict(self.self_s), Counter(self.calls), Counter(self.counts)

    def restore(self, state: tuple) -> None:
        """Drop what was recorded since :meth:`snapshot` (an operation that raised)."""
        total_s, self_s, calls, counts = state
        self.total_s = defaultdict(float, total_s)
        self.self_s = defaultdict(float, self_s)
        self.calls, self.counts = Counter(calls), Counter(counts)

    def attributed_s(self) -> float:
        """Time spent inside any wrapper (the sum of all self times)."""
        return sum(self.self_s.values())


@dataclass(frozen=True)
class Patch:
    """One entry point: ``module.owner.attribute`` (``owner`` ``None`` = module level)."""

    layer: str
    module: str
    owner: Optional[str]
    attribute: str
    count: Optional[CountHook] = None


@contextmanager
def installed(tracer: Tracer, patches: Sequence[Patch]) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers for ``patches``; restore the originals on exit."""
    restore = []
    try:
        for patch in patches:
            target = importlib.import_module(patch.module)
            if patch.owner is not None:
                target = getattr(target, patch.owner)
            raw = vars(target)[patch.attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(patch.layer, raw.__func__, patch.count))
            else:
                wrapped = tracer.wrap(patch.layer, raw, patch.count)
            setattr(target, patch.attribute, wrapped)
            restore.append((target, patch.attribute, raw))
        yield tracer
    finally:
        for target, attribute, raw in reversed(restore):
            setattr(target, attribute, raw)


# -- count hooks --------------------------------------------------------------------------


def _count_individuals(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["individuals"] += len(result)


def _count_lanes(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["pll_lanes"] += result.n_lanes


def _file_bytes(key: str) -> CountHook:
    def count(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += os.path.getsize(result)

    return count


def _count_failed_lanes(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["lanes_failed"] += sum(1 for lane in result if lane is None)


def _count_newton(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    converged, iterations = result
    active = args[2] if len(args) > 2 else kwargs["active"]
    counts["newton_iters"] += int(iterations.sum())
    counts["newton_unconverged"] += int((active & ~converged).sum())


#: Every entry point the traced run times, patched where callers look it up.
PATCHES = (
    Patch("flow.circuit_stage", "repro.core.flow", "HierarchicalFlow", "circuit_stage"),
    Patch("flow.system_stage", "repro.core.flow", "HierarchicalFlow", "system_stage"),
    Patch("flow.verify_yield", "repro.core.flow", "HierarchicalFlow", "verify_yield"),
    Patch("verification", "repro.core.flow", "HierarchicalFlow", "verification_stage"),
    Patch("variation_model", "repro.core.variation_model", "VariationModel", "from_monte_carlo"),
    Patch("mc.sample", "repro.process.montecarlo", "MonteCarloEngine", "sample_batch"),
    Patch("mismatch.sample", "repro.process.mismatch", "MismatchModel", "sample_from_draws"),
    Patch("mc.eval", "repro.process.montecarlo", "MonteCarloEngine", "run"),
    Patch("mc.eval", "repro.process.montecarlo", "MonteCarloEngine", "run_batch"),
    Patch("nsga2", "repro.optim.nsga2", "NSGA2", "run"),
    Patch("evaluation", "repro.optim.evaluation", "SerialEvaluator", "evaluate", _count_individuals),
    Patch(
        "evaluation", "repro.optim.evaluation", "VectorisedEvaluator", "evaluate", _count_individuals
    ),
    Patch("operators", "repro.optim.nsga2", None, "binary_tournament"),
    Patch("operators", "repro.optim.operators", "SBXCrossover", "__call__"),
    Patch("operators", "repro.optim.operators", "PolynomialMutation", "__call__"),
    Patch("sorting", "repro.optim.nsga2", None, "fast_non_dominated_sort"),
    Patch("sorting", "repro.optim.nsga2", None, "crowding_distance"),
    Patch("system_problem", "repro.core.system_stage", "PllSystemProblem", "evaluate_batch"),
    Patch("system_problem", "repro.core.system_stage", "PllSystemProblem", "evaluate"),
    Patch("pll.simulate", "repro.behavioural.pll", "BehaviouralPll", "simulate"),
    # ``evaluate_batch`` runs the lane transient without going through
    # ``simulate_batch``; both reach it through ``_simulate_lanes``.
    Patch(
        "pll.simulate_batch", "repro.behavioural.pll", "BehaviouralPll", "_simulate_lanes", _count_lanes
    ),
    Patch(
        "cache.partial_store",
        "repro.experiments.cache",
        "CacheEntry",
        "store_partial",
        _file_bytes("partial_bytes"),
    ),
    Patch("cache.partial_load", "repro.experiments.cache", "CacheEntry", "load_partial"),
    Patch(
        "cache.stage_store", "repro.experiments.cache", "CacheEntry", "store", _file_bytes("stage_bytes")
    ),
    Patch(
        "spice.lane_run", "repro.spice.transient", "LaneTransientAnalysis", "run", _count_failed_lanes
    ),
    Patch("spice.assemble", "repro.spice.plan", "LaneSystem", "assemble"),
    Patch("spice.newton", "repro.spice.transient", None, "lane_newton", _count_newton),
    Patch("spice.newton", "repro.spice.plan", None, "lane_newton", _count_newton),
    Patch("spice.compile", "repro.spice.transient", None, "compile_circuits"),
    Patch("spice.compile", "repro.spice.plan", None, "compile_circuits"),
)

#: Per-layer metric -> how it is read off a tracer: ("self" | "total" |
#: "calls", layer) or ("count", key).
LAYER_METRICS = {
    "core.flow.circuit_stage_s": ("self", "flow.circuit_stage"),
    "core.flow.system_stage_s": ("self", "flow.system_stage"),
    "core.flow.verify_yield_s": ("self", "flow.verify_yield"),
    "core.flow.circuit_stage_total_s": ("total", "flow.circuit_stage"),
    "core.flow.system_stage_total_s": ("total", "flow.system_stage"),
    "core.flow.verify_yield_total_s": ("total", "flow.verify_yield"),
    "core.variation_model.build_s": ("self", "variation_model"),
    "process.montecarlo.sample_s": ("self", "mc.sample"),
    "process.montecarlo.sample_calls": ("calls", "mc.sample"),
    "process.mismatch.sample_s": ("self", "mismatch.sample"),
    "process.mismatch.sample_calls": ("calls", "mismatch.sample"),
    "process.montecarlo.eval_s": ("self", "mc.eval"),
    "optim.nsga2.run_s": ("self", "nsga2"),
    "optim.evaluation.evaluate_s": ("self", "evaluation"),
    "optim.evaluation.individuals": ("count", "individuals"),
    "optim.operators.s": ("self", "operators"),
    "optim.operators.calls": ("calls", "operators"),
    "optim.sorting.s": ("self", "sorting"),
    "core.system_stage.evaluate_s": ("self", "system_problem"),
    "behavioural.pll.simulate_s": ("self", "pll.simulate"),
    "behavioural.pll.simulate_calls": ("calls", "pll.simulate"),
    "behavioural.pll.simulate_batch_s": ("self", "pll.simulate_batch"),
    "behavioural.pll.lanes": ("count", "pll_lanes"),
    "experiments.cache.partial_store_s": ("self", "cache.partial_store"),
    "experiments.cache.partial_store_calls": ("calls", "cache.partial_store"),
    "experiments.cache.partial_bytes": ("count", "partial_bytes"),
    "experiments.cache.partial_load_s": ("self", "cache.partial_load"),
    "experiments.cache.partial_load_calls": ("calls", "cache.partial_load"),
    "experiments.cache.stage_store_s": ("self", "cache.stage_store"),
    "experiments.cache.stage_bytes": ("count", "stage_bytes"),
    "core.verification.verify_s": ("self", "verification"),
    "core.verification.verify_total_s": ("total", "verification"),
    "spice.transient.lane_run_s": ("self", "spice.lane_run"),
    "spice.transient.lanes_failed": ("count", "lanes_failed"),
    "spice.plan.assemble_s": ("self", "spice.assemble"),
    "spice.plan.assemble_calls": ("calls", "spice.assemble"),
    "spice.plan.newton_s": ("total", "spice.newton"),
    "spice.plan.solve_s": ("self", "spice.newton"),
    "spice.plan.newton_iters": ("count", "newton_iters"),
    "spice.plan.newton_unconverged": ("count", "newton_unconverged"),
    "spice.plan.compile_s": ("self", "spice.compile"),
}


def layer_values(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value per traced operation (0 for idle layers)."""
    values = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "self":
            total = tracer.self_s.get(key, 0.0)
        elif kind == "total":
            total = tracer.total_s.get(key, 0.0)
        elif kind == "calls":
            total = tracer.calls.get(key, 0)
        else:
            total = tracer.counts.get(key, 0)
        values[metric] = total / n_ops
    return values
