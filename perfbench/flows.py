"""The in-process workloads: cold flows and SPICE verification.

``table2-vec`` (paper scale, vectorised) and ``vco-sweep-5-serial``
(medium budget, serial) run one cold flow per scenario seed through
:class:`~repro.experiments.runner.ExperimentRunner` (fresh cache
directory, the runner's checkpointing on, as ``repro run`` does).
``verify-spice`` re-verifies one ``table2`` combined model against the
transistor-level lane engine through
:meth:`~repro.core.flow.HierarchicalFlow.verification_stage`.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import pickle
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
import layers

#: Stage pickles a ``table2`` flow writes; the backends must agree on their bytes.
FLOW_STAGES = ("circuit", "system", "yield")

#: The five performances of a verification report, in report order.
VERIFIED = ("kvco", "jitter", "current", "fmin", "fmax")

#: Relative tolerance against recorded SPICE values (repeats within a run
#: must match bit for bit; the recording may come from another CPU).
RECORDED_RTOL = 1e-9

RECORDED_PATH = Path(__file__).resolve().parent / "recorded.json"

#: ``verify-spice`` model seeds cycle through ``0, 1000, ...`` up to this
#: many, all recorded in ``recorded.json``, so every workload seed's
#: measured values are checked against a recording.
VERIFY_MODELS = 12

#: Longest a set-up child may take to print ``READY``.
SETUP_TIMEOUT_S = 120.0


def load_recorded() -> dict:
    with open(RECORDED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- scenarios ----------------------------------------------------------------------------


#: In-process flow workloads: (registered scenario, evaluation backend).
FLOW_WORKLOADS = {
    "table2-vec": ("table2", "vectorised"),
    "vco-sweep-5-serial": ("vco-sweep-5", "serial"),
}


def flow_scenario(workload: str, seed: int, evaluation: Optional[str] = None):
    from repro.experiments.registry import get_scenario

    name, default = FLOW_WORKLOADS[workload]
    return get_scenario(name).with_overrides(seed=seed, evaluation=evaluation or default)


def verify_scenario(seed: int):
    from repro.experiments.registry import get_scenario

    return get_scenario("table2").with_overrides(
        seed=seed, evaluation="vectorised", spice_engine="lanes", n_workers=1
    )


def probe_setup(workload: str, seed: int, out: Optional[str]) -> None:
    """Child side of one set-up measurement (``run.py --probe-setup``).

    For the flows that is imports plus scenario resolution.  For
    ``verify-spice`` it also builds the combined model (the circuit stage)
    and pickles it to ``out`` for the parent to verify.
    """
    from repro.core.flow import HierarchicalFlow
    from repro.experiments.runner import ExperimentRunner  # noqa: F401 - part of set-up

    if workload == "verify-spice":
        flow = HierarchicalFlow.from_scenario(verify_scenario(seed))
        model = flow.circuit_stage().model
        with open(out, "wb") as handle:
            pickle.dump(model, handle, protocol=pickle.HIGHEST_PROTOCOL)
    else:
        scenario = flow_scenario(workload, seed)
        scenario.config_hash()
        HierarchicalFlow.from_scenario(scenario)


def measure_setup(workload: str, seed: int, work: Path, children: harness.Children) -> List[float]:
    """Run :func:`probe_setup` ``harness.SETUP_REPEATS`` times in fresh processes.

    Each time runs from process start to the child's ``READY`` line.
    Raises when a child fails or takes longer than :data:`SETUP_TIMEOUT_S`.
    """
    times = []
    for repeat in range(harness.SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--probe-setup",
                "--workload", workload, "--seed", str(seed),
                "--out", str(work / f"model-{repeat}.pkl")]
        started = time.perf_counter()
        process = children.popen(argv, stdout=subprocess.PIPE, env=harness.child_env())
        try:
            line = harness.read_line(process, SETUP_TIMEOUT_S)
            times.append(time.perf_counter() - started)
            process.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            children.stop(process)
        if line.strip() != b"READY" or process.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
    return times


# -- one cold flow ------------------------------------------------------------------------


@dataclass
class FlowRun:
    seconds: float  # wall time, less the speed probes' own time when sampled
    reference_seconds: float  # the same at the reference host speed (as measured if unsampled)
    probe_seconds: float  # time the speed probes took
    digests: Dict[str, str]
    summary: Dict[str, float]
    stage_seconds: Dict[str, float]
    hypervolume: float
    warnings: List[str] = field(default_factory=list)


def system_hypervolume(system_stage, reference: Dict[str, float]) -> float:
    """Hypervolume of the system-stage front, objectives scaled by ``reference``."""
    from repro.optim.pareto import hypervolume

    front = system_stage.optimisation.front
    columns = [front.raw_objective(name) / scale for name, scale in reference.items()]
    points = [list(point) for point in zip(*columns)]
    if not points:
        return 0.0
    return hypervolume(points, [1.0] * len(reference))


def cold_flow(
    scenario, cache_dir: Path, reference: Dict[str, float], sampled: bool = False
) -> FlowRun:
    """One flow into an empty cache directory, plus what its checks need.

    ``sampled`` runs it under a :class:`~harness.SpeedSampler` (traced runs).
    """
    from repro.experiments.runner import ExperimentRunner

    shutil.rmtree(cache_dir, ignore_errors=True)
    sampler = harness.SpeedSampler()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with sampler if sampled else contextlib.nullcontext():
            started = time.perf_counter()
            result = ExperimentRunner(scenario, cache_dir=cache_dir).run()
            wall = time.perf_counter() - started
    digests = {}
    for stage in FLOW_STAGES:
        path = result.cache_dir / f"{stage}.pkl"
        if path.is_file():
            digests[stage] = hashlib.sha256(path.read_bytes()).hexdigest()
    return FlowRun(
        seconds=wall - sampler.spent,
        reference_seconds=sampler.reference_seconds(wall),
        probe_seconds=sampler.spent,
        digests=digests,
        summary=result.summary(),
        stage_seconds={o.stage: o.seconds for o in result.outcomes if o.source == "computed"},
        hypervolume=system_hypervolume(result.report.system_stage, reference),
        warnings=[f"{w.category.__name__}: {w.message}" for w in caught],
    )


def resume_matches(scenario, cache_dir: Path, cold: FlowRun) -> bool:
    """Rerun on the filled cache: every stage must load, with the cold headline numbers."""
    from repro.experiments.runner import ExperimentRunner

    result = ExperimentRunner(scenario, cache_dir=cache_dir).run()
    sources = result.stage_sources
    loaded = all(sources.get(stage) == "cached" for stage in FLOW_STAGES)
    resumed = result.report.summary()
    return loaded and all(
        _same(resumed[key], value) for key, value in cold.summary.items() if key in resumed
    )


def _same(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)  # NaN headline numbers compare equal


# -- the workloads ------------------------------------------------------------------------


def _check_flow(workload: str, scenario, cache: Path, run: FlowRun, reference) -> Optional[str]:
    """A failed check's description, or ``None`` when the flow's outputs hold."""
    if set(run.digests) != set(FLOW_STAGES):
        return f"stage pickles missing: {sorted(set(FLOW_STAGES) - set(run.digests))}"
    yield_pct = run.summary.get("yield_percent")
    if yield_pct is None or not 0.0 <= yield_pct <= 100.0:
        return f"yield_percent out of range: {yield_pct}"
    if not resume_matches(scenario, cache, run):
        return "resumed run differs from the cold run"
    if scenario.evaluation == "serial":
        # The backend invariant: serial and vectorised write identical bytes.
        vec = cold_flow(flow_scenario(workload, scenario.seed, "vectorised"), cache, reference)
        if vec.digests != run.digests:
            different = sorted(s for s in FLOW_STAGES if vec.digests.get(s) != run.digests.get(s))
            return f"serial stage pickles differ from vectorised: {different}"
    return None


def run_flows(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    children: harness.Children,
    work: Path,
) -> harness.Measured:
    tally = harness.Tally()
    started = time.perf_counter()
    try:
        reference = load_recorded()["hv_reference"]
        setup_s = measure_setup(workload, seed, work, children)
    except Exception as error:  # noqa: BLE001 - a failed set-up is counted too
        return harness.failed_setup(tally, error, time.perf_counter() - started)
    tracer = layers.Tracer()
    op_s: List[float] = []
    ref_op_s: List[float] = []
    traced_s: List[float] = []
    overhead: List[float] = []
    stage_s: Dict[str, List[float]] = {}
    yields: List[float] = []
    volumes: List[float] = []
    warned: Dict[str, List[int]] = {}

    def one_flow(scenario, cache: Path, traced: bool) -> FlowRun:
        # Traced runs sample the host speed around both halves of a pair.
        if not traced:
            return cold_flow(scenario, cache, reference, sampled=trace)
        with layers.installed(tracer, layers.PATCHES):
            return cold_flow(scenario, cache, reference, sampled=True)

    def operation(index: int) -> bool:
        scenario_seed = harness.scenario_seed(seed, index)
        scenario = flow_scenario(workload, scenario_seed)
        cache = work / f"cache-{index}"
        modes = [False] if not trace else ([False, True] if index % 2 == 0 else [True, False])
        before = tracer.snapshot()
        try:
            runs = {}
            for traced in modes:
                runs[traced] = one_flow(scenario, cache / ("traced" if traced else "plain"), traced)
        except Exception as error:  # noqa: BLE001 - every failure is counted, none aborts
            tally.error(f"seed {scenario_seed}: {harness.exception_cause(error)}")
            tracer.restore(before)
            shutil.rmtree(cache, ignore_errors=True)
            return False
        plain = runs[False]
        for message in plain.warnings:
            warned.setdefault(message, []).append(scenario_seed)
        try:
            problem = _check_flow(workload, scenario, cache / "plain", plain, reference)
            if problem is None and trace and runs[True].digests != plain.digests:
                problem = "traced run's stage pickles differ from the untraced run's"
        except Exception as error:  # noqa: BLE001
            problem = f"check raised {harness.exception_cause(error)}"
        shutil.rmtree(cache, ignore_errors=True)
        if problem is None:
            tally.ok()
        else:
            tally.wrong(f"seed {scenario_seed}: {problem}")
        # A completed flow is timed even when a check of its output failed.
        op_s.append(plain.seconds)
        for stage, value in plain.stage_seconds.items():
            stage_s.setdefault(stage, []).append(value)
        yields.append(plain.summary["yield_percent"])
        volumes.append(plain.hypervolume)
        if trace:
            ref_op_s.append(plain.reference_seconds)
            traced = runs[True]
            # Wrapped layers saw the probes too, so the traced wall time keeps them.
            traced_s.append(traced.seconds + traced.probe_seconds)
            overhead.append(
                100.0 * (traced.reference_seconds - plain.reference_seconds)
                / plain.reference_seconds
            )
        return True

    n_ops, window_s = harness.run_window(seconds, operation)
    notes = [f"{workload}: {n_ops} operation(s) in {window_s:.1f} s, seed {seed}"]
    for stage, values in stage_s.items():
        notes.append(f"  untraced {stage} stage: median {harness.median(values):.3f} s")
    for message, seeds in warned.items():
        notes.append(f"  {message} (scenario seeds {sorted(set(seeds))})")
    measured = harness.Measured(
        tally=tally,
        setup_s=setup_s,
        op_s=op_s,
        window_s=window_s,
        throughput_s=sum(op_s),
        peak_rss_mb=harness.peak_rss_mb_self(),
        ref_op_s=ref_op_s,
        quality={
            "quality.yield_pct_mean": sum(yields) / len(yields) if yields else 0.0,
            "quality.system_hv_mean": sum(volumes) / len(volumes) if volumes else 0.0,
            "quality.verify_err_max": 0.0,
        },
        notes=notes,
    )
    if trace:
        measured.layer = _traced_layer_values(tracer, traced_s, overhead, notes, stage_s)
        measured.layer["bench.runtime_warnings"] = float(sum(len(s) for s in warned.values()))
    return measured


def _traced_layer_values(
    tracer: layers.Tracer,
    traced_s: List[float],
    overhead: List[float],
    notes: List[str],
    untraced_stages: Dict[str, List[float]],
) -> Dict[str, float]:
    """Per-operation layer values plus the reconciliation against the op's wall time."""
    n = max(len(traced_s), 1)
    values = layers.layer_values(tracer, n)
    traced_mean = sum(traced_s) / n if traced_s else 0.0
    values["bench.traced_op_s"] = traced_mean
    values["bench.unattributed_s"] = traced_mean - tracer.attributed_s() / n
    values["bench.trace_overhead_pct"] = harness.median(overhead) if overhead else 0.0
    notes.append("  reconciliation per traced operation (inclusive stage time vs untraced):")
    for stage, metric in (("circuit", "core.flow.circuit_stage_total_s"),
                          ("system", "core.flow.system_stage_total_s"),
                          ("yield", "core.flow.verify_yield_total_s")):
        untraced = untraced_stages.get(stage)
        if untraced:
            notes.append(f"    {stage:<8} traced {values[metric]:.3f} s, "
                         f"untraced median {harness.median(untraced):.3f} s")
    notes.append(f"    attributed to wrapped layers {tracer.attributed_s() / n:.3f} s of "
                 f"{traced_mean:.3f} s; unattributed {values['bench.unattributed_s']:.3f} s")
    return values


# -- verify-spice -------------------------------------------------------------------------


def verification_values(report) -> List[List[float]]:
    """Each verified point's measured performances, in :data:`VERIFIED` order."""
    return [[float(point.measured[name]) for name in VERIFIED] for point in report.points]


def check_verification(
    measured: List[List[float]],
    first: Optional[List[List[float]]],
    recorded: Optional[dict],
) -> Optional[str]:
    """A failed check's description, or ``None`` when the verification's outputs hold.

    ``first`` is an earlier verification of the same model in the run;
    ``recorded`` is the model seed's entry in ``recorded.json`` -- without
    one the values cannot be checked, which counts as a failed check.
    """
    if not measured or any(not math.isfinite(v) for row in measured for v in row):
        return "non-finite or missing measured values"
    if first is not None and measured != first:
        return "repeated verification of the same model differs"
    if recorded is None:
        return "no recorded values for this model seed"
    expected = recorded["measured"]
    if len(expected) != len(measured) or any(
        not math.isclose(got, want, rel_tol=RECORDED_RTOL)
        for row, ref in zip(measured, expected)
        for got, want in zip(row, ref)
    ):
        return "measured values differ from the recorded ones"
    return None


def run_verify(
    seed: int,
    seconds: float,
    trace: bool,
    children: harness.Children,
    work: Path,
) -> harness.Measured:
    model_seed = harness.scenario_seed(seed % VERIFY_MODELS, 0)
    tally = harness.Tally()
    started = time.perf_counter()
    try:
        setup_s = measure_setup("verify-spice", model_seed, work, children)
        pickles = [(work / f"model-{k}.pkl").read_bytes() for k in range(harness.SETUP_REPEATS)]
        from repro.core.flow import HierarchicalFlow

        model = pickle.loads(pickles[0])
        flow = HierarchicalFlow.from_scenario(verify_scenario(model_seed))
        recorded = load_recorded()["verify_spice"].get(str(model_seed))
    except Exception as error:  # noqa: BLE001 - a failed set-up is counted too
        return harness.failed_setup(tally, error, time.perf_counter() - started)
    if any(blob != pickles[0] for blob in pickles):
        tally.wrong("set-up model builds differ between processes")
    tracer = layers.Tracer()
    op_s: List[float] = []
    ref_op_s: List[float] = []
    traced_s: List[float] = []
    overhead: List[float] = []
    errors: List[float] = []
    reference_values: List[Optional[List[List[float]]]] = [None]

    def verify(traced: bool) -> Tuple[float, object, harness.SpeedSampler]:
        """(wall seconds, report, the sampler it ran under) of one verification.

        The sampler runs only in traced runs; unsampled, it measures nothing.
        """
        sampler = harness.SpeedSampler()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.enter_context(layers.installed(tracer, layers.PATCHES))
            if trace:
                stack.enter_context(sampler)
            began = time.perf_counter()
            report = flow.verification_stage(model, verification_evaluator=flow.spice_evaluator())
            wall = time.perf_counter() - began
        return wall, report, sampler

    def operation(index: int) -> bool:
        modes = [False] if not trace else ([False, True] if index % 2 == 0 else [True, False])
        before = tracer.snapshot()
        try:
            runs = {traced: verify(traced) for traced in modes}
        except Exception as error:  # noqa: BLE001 - every failure is counted, none aborts
            tally.error(harness.exception_cause(error))
            tracer.restore(before)
            return False
        problem = None
        for traced in modes:
            values = verification_values(runs[traced][1])
            problem = problem or check_verification(values, reference_values[0], recorded)
            if reference_values[0] is None and problem is None:
                reference_values[0] = values
        if problem is None:
            tally.ok()
        else:
            tally.wrong(f"model seed {model_seed}: {problem}")
        wall, report, sampler = runs[False]
        op_s.append(wall - sampler.spent)
        summary = report.summary()
        errors.append(max(summary[f"mean_error_{name}"] for name in VERIFIED))
        if trace:
            plain_s = sampler.reference_seconds(wall)
            ref_op_s.append(plain_s)
            traced_wall, _, traced_sampler = runs[True]
            traced_s.append(traced_wall)
            overhead.append(
                100.0 * (traced_sampler.reference_seconds(traced_wall) - plain_s) / plain_s
            )
        return True

    n_ops, window_s = harness.run_window(seconds, operation)
    notes = [
        f"verify-spice: {n_ops} verification(s) of the model at scenario seed {model_seed} "
        f"in {window_s:.1f} s"
    ]
    measured = harness.Measured(
        tally=tally,
        setup_s=setup_s,
        op_s=op_s,
        window_s=window_s,
        throughput_s=sum(op_s),
        peak_rss_mb=harness.peak_rss_mb_self(),
        ref_op_s=ref_op_s,
        quality={
            "quality.yield_pct_mean": 0.0,
            "quality.system_hv_mean": 0.0,
            "quality.verify_err_max": max(errors) if errors else 0.0,
        },
        notes=notes,
    )
    if trace:
        measured.layer = _traced_layer_values(tracer, traced_s, overhead, notes, {})
        measured.layer["bench.runtime_warnings"] = 0.0
    return measured
