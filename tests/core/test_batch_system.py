"""Equivalence tests for the batched system stage and yield analysis.

The vectorised backend must reproduce the serial system-level results
bit-for-bit: same objectives, same constraints, same Table-2 metrics,
same selected design.  The yield analysis must reproduce a per-sample
loop of the scalar oracle, sample for sample.
"""

import numpy as np
import pytest

from repro.behavioural.pll import PllDesign
from repro.circuits import vco_device_geometries
from repro.core.flow import HierarchicalFlow
from repro.core.system_stage import PllSystemProblem, SystemLevelOptimisation
from repro.core.yield_analysis import YieldAnalysis
from repro.optim import NSGA2, NSGA2Config
from repro.optim.individual import parameters_matrix
from repro.process import MonteCarloEngine

from tests.circuits.scalar_model import yield_loop


@pytest.fixture(scope="module")
def combined_model(circuit_stage_result):
    return circuit_stage_result.model


def _sample_matrix(problem, n, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([problem.sample(rng) for _ in range(n)])


# -- problem-level equivalence ---------------------------------------------------------


def test_system_problem_evaluate_batch_matches_serial(combined_model):
    problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    matrix = _sample_matrix(problem, 6, seed=5)
    batched = problem.evaluate_batch(matrix)
    serial_problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    for row, evaluation in zip(matrix, batched):
        reference = serial_problem.evaluate_vector(row)
        assert evaluation.objectives == reference.objectives
        assert evaluation.constraints == reference.constraints
        assert evaluation.metrics == reference.metrics
    assert problem.evaluation_count == serial_problem.evaluation_count == 6


def test_behavioural_vco_batch_matches_scalar(combined_model):
    problem = PllSystemProblem(combined_model)
    matrix = _sample_matrix(problem, 5, seed=8)
    kvcos, ivcos = matrix[:, 0], matrix[:, 1]
    batched = combined_model.behavioural_vco_batch(kvcos, ivcos)
    for kvco, ivco, vco in zip(kvcos, ivcos, batched):
        scalar = combined_model.behavioural_vco(float(kvco), float(ivco))
        assert vco.kvco == scalar.kvco
        assert vco.ivco == scalar.ivco
        assert vco.jvco == scalar.jvco
        assert vco.fmin == scalar.fmin
        assert vco.fmax == scalar.fmax
    # All batched blocks share the model's cached variation-table adapter.
    assert len({id(vco.variation) for vco in batched}) == 1


def test_interpolate_batch_matches_scalar(combined_model):
    problem = PllSystemProblem(combined_model)
    matrix = _sample_matrix(problem, 5, seed=13)
    records = combined_model.performance.interpolate_batch(matrix[:, 0], matrix[:, 1])
    for row, record in zip(matrix, records):
        assert record == combined_model.performance.interpolate(row[0], row[1])


# -- optimiser-level equivalence -------------------------------------------------------


def test_system_nsga2_vectorised_front_identical_to_serial(combined_model):
    def run(evaluator_name):
        stage = SystemLevelOptimisation(
            combined_model,
            config=NSGA2Config(
                population_size=8, generations=3, seed=7, evaluator=evaluator_name
            ),
            simulation_time=2e-6,
        )
        return stage.run()

    serial = run("serial")
    vectorised = run("vectorised")
    assert np.array_equal(
        serial.optimisation.front.objectives, vectorised.optimisation.front.objectives
    )
    assert np.array_equal(
        parameters_matrix(list(serial.optimisation.front)),
        parameters_matrix(list(vectorised.optimisation.front)),
    )
    for a, b in zip(serial.optimisation.front, vectorised.optimisation.front):
        assert a.metrics == b.metrics
    assert serial.selected_values == vectorised.selected_values


def test_system_nsga2_direct_problem_vectorised(combined_model):
    serial_problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    vector_problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    config = dict(population_size=8, generations=2, seed=3)
    serial = NSGA2(serial_problem, NSGA2Config(**config)).run()
    vectorised = NSGA2(
        vector_problem, NSGA2Config(**config, evaluator="vectorised")
    ).run()
    assert np.array_equal(serial.front.objectives, vectorised.front.objectives)
    assert serial.evaluations == vectorised.evaluations


# -- yield analysis --------------------------------------------------------------------


def test_yield_analysis_batch_matches_serial(combined_model, analytical_evaluator):
    point = combined_model.performance.point(0)
    selected = {
        "kvco": point["kvco"],
        "ivco": point["current"],
        "c1": 3e-12,
        "c2": 0.6e-12,
        "r1": 2e3,
    }
    analysis = YieldAnalysis(
        combined_model, evaluator=analytical_evaluator, n_samples=40, seed=3,
        simulation_time=2e-6,
    )
    batched = analysis.run(selected)
    vco_design = combined_model.design_parameters_for(selected["kvco"], selected["ivco"])
    pll_design = PllDesign(c1=selected["c1"], c2=selected["c2"], r1=selected["r1"])
    samples = MonteCarloEngine(analytical_evaluator.technology, n_samples=40, seed=3).sample_batch(
        vco_device_geometries(vco_design)
    )
    assert batched.system_samples == yield_loop(analysis, vco_design, pll_design, samples)
    passing = sum(not analysis.specifications.violations(s) for s in batched.system_samples)
    assert batched.yield_fraction == passing / 40


# -- flow plumbing ---------------------------------------------------------------------


def test_flow_vectorised_reaches_system_stage(analytical_evaluator):
    flow = HierarchicalFlow(evaluator=analytical_evaluator, evaluation="vectorised")
    assert flow.circuit_config.evaluator == "vectorised"
    assert flow.system_config.evaluator == "vectorised"


def test_flow_worker_count_sizes_spice_pool():
    from repro.circuits.evaluators import RingVcoSpiceEvaluator

    spice = RingVcoSpiceEvaluator(dt=60e-12, sim_cycles=2)
    flow = HierarchicalFlow(evaluator=spice, evaluation="process", n_workers=3)
    assert flow.evaluator.n_workers == 3
    assert flow.system_config.evaluator == "process"
    # The flow configures a copy; the caller's evaluator is never mutated,
    # so a second flow with a different worker count is not affected.
    assert spice.n_workers is None
    other = HierarchicalFlow(evaluator=spice, n_workers=5)
    assert other.evaluator.n_workers == 5
    # An explicit evaluator worker count is honoured as-is (no copy).
    spice_fixed = RingVcoSpiceEvaluator(dt=60e-12, sim_cycles=2, n_workers=2)
    kept = HierarchicalFlow(evaluator=spice_fixed, n_workers=5)
    assert kept.evaluator is spice_fixed
    assert spice_fixed.n_workers == 2


def test_model_stays_picklable_after_variation_table_cache(combined_model):
    """The cached lambda adapter must not leak into pickles.

    The ``process`` backend ships the system problem (which holds the
    combined model) to its workers; caching ``as_variation_tables``'s
    lambdas on the model would otherwise break pickling after the first
    behavioural-VCO construction in the parent process.
    """
    import pickle

    combined_model.variation.as_variation_tables()  # populate the cache
    problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    problem.evaluate_batch(_sample_matrix(problem, 2, seed=1))
    restored = pickle.loads(pickle.dumps(problem))
    values = restored.decode(restored.clip(_sample_matrix(problem, 1, seed=2)[0]))
    reference = problem.evaluate(values)
    assert restored.evaluate(values).objectives == reference.objectives


def test_system_nsga2_process_backend_matches_serial(combined_model):
    serial_problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    # Populate the lambda cache first to mimic a prior serial/yield run.
    combined_model.variation.as_variation_tables()
    pooled_problem = PllSystemProblem(combined_model, simulation_time=2e-6)
    config = dict(population_size=8, generations=2, seed=3)
    serial = NSGA2(serial_problem, NSGA2Config(**config)).run()
    pooled = NSGA2(
        pooled_problem, NSGA2Config(**config, evaluator="process", n_workers=2)
    ).run()
    assert np.array_equal(serial.front.objectives, pooled.front.objectives)


def test_flow_rejects_bad_worker_count(analytical_evaluator):
    with pytest.raises(ValueError):
        HierarchicalFlow(evaluator=analytical_evaluator, n_workers=0)
