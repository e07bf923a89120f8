"""Batch-evaluation engine benchmark -- serial vs vectorised vs process pool.

The paper's circuit-level stage spends its runtime in 3,000 VCO
evaluations (100 individuals x 30 generations, section 4.2) and the
per-Pareto-point Monte Carlo analyses (section 3.3).  This benchmark runs
the paper-scale NSGA-II sizing run on every batch-evaluation backend of
:mod:`repro.optim.evaluation` and the Monte Carlo engine on both its
serial and batch path, checking two properties:

* **equivalence** -- all backends consume the same seeded RNG stream and
  the vectorised kernels are bit-identical transcriptions of the scalar
  model, so every backend must produce the *identical* Pareto front /
  sample set, and
* **speed** -- the vectorised backend must be at least 3x faster than the
  serial backend on the full 100 x 30 run.
"""

import time

import numpy as np

from benchmarks.conftest import print_header
from repro.circuits import RingVcoAnalyticalEvaluator, VcoDesign, vco_device_geometries
from repro.core.circuit_stage import VcoSizingProblem
from repro.optim import NSGA2, NSGA2Config
from repro.optim.individual import parameters_matrix
from repro.process import TECH_012UM
from repro.process.montecarlo import MonteCarloEngine

#: The paper's circuit-level budget (section 4.2).
PAPER_POPULATION = 100
PAPER_GENERATIONS = 30


def _paper_run(evaluator_name: str, seed: int = 2009, repeats: int = 1):
    """Paper-scale NSGA-II sizing runs on the named backend (best-of timing).

    Comparing the *minimum* of a few runs keeps the speedup assertion
    robust on noisy shared CI runners: a one-off stall inflates a single
    measurement but rarely all of them.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        problem = VcoSizingProblem(RingVcoAnalyticalEvaluator(TECH_012UM))
        config = NSGA2Config(
            population_size=PAPER_POPULATION,
            generations=PAPER_GENERATIONS,
            seed=seed,
            evaluator=evaluator_name,
        )
        start = time.perf_counter()
        result = NSGA2(problem, config).run()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_vectorised_matches_serial_with_3x_speedup(benchmark):
    """The tentpole claim: identical fronts, >= 3x faster on the 100x30 run."""
    serial_result, serial_time = _paper_run("serial", repeats=2)
    vectorised_result, vectorised_time = _paper_run("vectorised", repeats=3)
    speedup = serial_time / vectorised_time
    print_header(
        f"Batch evaluation: paper-scale NSGA-II run "
        f"({PAPER_POPULATION} x {PAPER_GENERATIONS}, "
        f"{serial_result.evaluations} evaluations)"
    )
    print(f"{'backend':>12} {'time [s]':>10} {'front':>6}")
    print(f"{'serial':>12} {serial_time:10.3f} {len(serial_result.front):6d}")
    print(f"{'vectorised':>12} {vectorised_time:10.3f} {len(vectorised_result.front):6d}")
    print(f"speedup: {speedup:.2f}x")
    # Bit-identical Pareto fronts: same objectives AND same parameters.
    assert np.array_equal(
        serial_result.front.objectives, vectorised_result.front.objectives
    )
    assert np.array_equal(
        parameters_matrix(list(serial_result.front)),
        parameters_matrix(list(vectorised_result.front)),
    )
    assert serial_result.evaluations == vectorised_result.evaluations
    assert speedup >= 3.0, f"vectorised speedup {speedup:.2f}x is below the 3x target"
    # Record the vectorised run for the pytest-benchmark report; the ratio
    # feeds the CI regression gate in merge_benchmarks.py.
    benchmark.extra_info["speedup_circuit_vectorised_vs_serial"] = speedup
    benchmark(lambda: _paper_run("vectorised")[0])


def _best_of(repeats: int, function):
    """Result and best-of-``repeats`` wall time of ``function()``."""
    result, best = None, float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_monte_carlo_batch_matches_serial(benchmark):
    """MC batch path: one struct-of-arrays batch, evaluated as one array call.

    ``sample_batch`` draws the 200 samples as model-card and mismatch
    columns; the batch evaluator reads those columns directly.  The
    baseline is a per-sample loop of ``evaluate``: each sample's
    technology and mismatch dict built first, then one one-row kernel
    call per sample.
    """
    evaluator = RingVcoAnalyticalEvaluator(TECH_012UM)
    design = VcoDesign()
    devices = vco_device_geometries(design)
    engine = MonteCarloEngine(TECH_012UM, n_samples=200, seed=2009)
    batch_evaluator = evaluator.monte_carlo_batch_evaluator(design)

    def per_sample_loop(samples):
        return [
            evaluator.evaluate(design, technology=s.technology, mismatch=s.mismatch).as_dict()
            for s in samples
        ]

    # Best-of timings: the recorded ratio feeds the hard CI gate, so a
    # one-off stall on a shared runner must not register as a regression.
    samples, sample_time = _best_of(3, lambda: engine.sample_batch(devices))
    serial, serial_time = _best_of(2, lambda: per_sample_loop(samples))
    batch, batch_time = _best_of(3, lambda: batch_evaluator(samples))
    print_header("Batch evaluation: Monte Carlo engine (200 samples)")
    print(f"sampling {sample_time:.4f}s  serial {serial_time:.3f}s  batch {batch_time:.3f}s  "
          f"speedup {serial_time / batch_time:.2f}x")
    assert batch == serial
    batch_run = engine.run(batch_evaluator, devices=devices)
    assert batch_run.performances == serial
    assert batch_run.nominal == evaluator.evaluate(design).as_dict()
    benchmark.extra_info["speedup_mc_batch_vs_serial"] = serial_time / batch_time
    benchmark(lambda: engine.run(batch_evaluator, devices=devices))


def test_process_pool_matches_serial():
    """The process-pool backend runs the same scalar code, so results match."""
    problem_serial = VcoSizingProblem(RingVcoAnalyticalEvaluator(TECH_012UM))
    problem_pool = VcoSizingProblem(RingVcoAnalyticalEvaluator(TECH_012UM))
    config = dict(population_size=20, generations=4, seed=7)
    serial = NSGA2(problem_serial, NSGA2Config(**config)).run()
    pooled = NSGA2(
        problem_pool, NSGA2Config(**config, evaluator="process", n_workers=2)
    ).run()
    assert np.array_equal(serial.front.objectives, pooled.front.objectives)
    assert serial.evaluations == pooled.evaluations


def test_vectorised_kernel_single_batch(benchmark, evaluator):
    """Time one vectorised batch of the paper's population size."""
    rng = np.random.default_rng(1)
    designs = [
        VcoDesign(
            nmos_width=rng.uniform(10e-6, 100e-6),
            pmos_width=rng.uniform(10e-6, 100e-6),
            tail_nmos_width=rng.uniform(10e-6, 100e-6),
            tail_pmos_width=rng.uniform(10e-6, 100e-6),
            nmos_length=rng.uniform(0.12e-6, 1e-6),
            pmos_length=rng.uniform(0.12e-6, 1e-6),
            tail_length=rng.uniform(0.12e-6, 1e-6),
        )
        for _ in range(PAPER_POPULATION)
    ]
    performances = benchmark(evaluator.evaluate_batch, designs)
    assert len(performances) == PAPER_POPULATION
    assert all(p.fmax > 0.0 for p in performances)
