"""Tests for the batch-evaluation backends and their NSGA-II equivalence."""

import numpy as np
import pytest

from repro.circuits import RingVcoAnalyticalEvaluator
from repro.core.circuit_stage import VcoSizingProblem
from repro.optim import (
    NSGA2,
    NSGA2Config,
    Objective,
    Parameter,
    Problem,
    ProcessPoolEvaluator,
    SerialEvaluator,
    VectorisedEvaluator,
    create_evaluator,
)
from repro.optim.evaluation import build_individual
from repro.optim.individual import parameters_matrix
from repro.optim.problem import Evaluation


class SphereProblem(Problem):
    """Two-objective sphere problem (module level so it pickles for pools)."""

    def __init__(self, n_vars=4):
        parameters = [Parameter(f"x{i}", -1.0, 1.0) for i in range(n_vars)]
        objectives = [Objective("near", "min"), Objective("far", "min")]
        super().__init__(parameters, objectives, name="sphere")

    def evaluate(self, values):
        x = np.array([values[f"x{i}"] for i in range(self.n_parameters)])
        near = float(np.sum((x - 0.25) ** 2))
        far = float(np.sum((x + 0.25) ** 2))
        return Evaluation(objectives={"near": near, "far": far})


def _front_signature(result):
    return (
        result.front.objectives,
        parameters_matrix(list(result.front)),
    )


def _run(problem, evaluator_name, **config_overrides):
    config = NSGA2Config(
        population_size=16, generations=6, seed=99, evaluator=evaluator_name,
        **config_overrides,
    )
    return NSGA2(problem, config).run()


# -- factory -------------------------------------------------------------------------


def test_create_evaluator_names():
    assert isinstance(create_evaluator("serial"), SerialEvaluator)
    assert isinstance(create_evaluator("vectorised"), VectorisedEvaluator)
    assert isinstance(create_evaluator("process"), ProcessPoolEvaluator)
    for unknown in ("gpu", "vectorized"):
        with pytest.raises(ValueError):
            create_evaluator(unknown)


def test_process_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ProcessPoolEvaluator(n_workers=0)


def test_build_individual_matches_manual_evaluation():
    problem = SphereProblem()
    vector = np.array([0.1, -0.2, 0.3, 0.9])
    evaluation = problem.evaluate_vector(vector)
    individual = build_individual(problem, vector, evaluation)
    assert individual.is_evaluated
    assert np.array_equal(individual.parameters, problem.clip(vector))
    assert individual.raw_objectives == dict(evaluation.objectives)


# -- default batch path --------------------------------------------------------------


def test_problem_evaluate_batch_default_loops_serial():
    problem = SphereProblem()
    matrix = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 4))
    batched = problem.evaluate_batch(matrix)
    assert len(batched) == 5
    fresh = SphereProblem()
    singles = [fresh.evaluate_vector(row) for row in matrix]
    assert [b.objectives for b in batched] == [s.objectives for s in singles]
    assert problem.evaluation_count == 5


def test_problem_evaluate_batch_rejects_bad_shape():
    problem = SphereProblem()
    with pytest.raises(ValueError):
        problem.evaluate_batch(np.zeros((3, 7)))


# -- backend equivalence on a generic problem ----------------------------------------


def test_serial_and_vectorised_fronts_identical_generic():
    serial = _run(SphereProblem(), "serial")
    vectorised = _run(SphereProblem(), "vectorised")
    for a, b in zip(_front_signature(serial), _front_signature(vectorised)):
        assert np.array_equal(a, b)
    assert serial.evaluations == vectorised.evaluations


def test_serial_and_process_pool_fronts_identical():
    serial = _run(SphereProblem(), "serial")
    pooled = _run(SphereProblem(), "process", n_workers=2)
    for a, b in zip(_front_signature(serial), _front_signature(pooled)):
        assert np.array_equal(a, b)
    assert serial.evaluations == pooled.evaluations


# -- backend equivalence on the (truly vectorised) VCO sizing problem ----------------


@pytest.fixture(scope="module")
def vco_serial_result():
    problem = VcoSizingProblem(RingVcoAnalyticalEvaluator())
    return NSGA2(
        problem, NSGA2Config(population_size=16, generations=5, seed=2009)
    ).run()


def test_vco_vectorised_front_identical_to_serial(vco_serial_result):
    problem = VcoSizingProblem(RingVcoAnalyticalEvaluator())
    vectorised = NSGA2(
        problem,
        NSGA2Config(population_size=16, generations=5, seed=2009, evaluator="vectorised"),
    ).run()
    for a, b in zip(_front_signature(vco_serial_result), _front_signature(vectorised)):
        assert np.array_equal(a, b)
    assert vco_serial_result.evaluations == vectorised.evaluations


def test_vco_process_pool_front_identical_to_serial(vco_serial_result):
    problem = VcoSizingProblem(RingVcoAnalyticalEvaluator())
    pooled = NSGA2(
        problem,
        NSGA2Config(
            population_size=16, generations=5, seed=2009,
            evaluator="process", n_workers=2,
        ),
    ).run()
    for a, b in zip(_front_signature(vco_serial_result), _front_signature(pooled)):
        assert np.array_equal(a, b)


def test_custom_evaluator_instance_is_used_and_not_closed():
    closes = []

    class Recorder(SerialEvaluator):
        def close(self):
            closes.append(True)

    recorder = Recorder()
    result = NSGA2(
        SphereProblem(),
        NSGA2Config(population_size=8, generations=2, seed=1),
        evaluator=recorder,
    ).run()
    assert len(result.front) > 0
    # Injected evaluators stay owned by the caller.
    assert closes == []


# -- config validation ---------------------------------------------------------------


def test_config_rejects_unknown_evaluator():
    with pytest.raises(ValueError):
        NSGA2Config(evaluator="quantum")


def test_config_rejects_bad_n_workers():
    with pytest.raises(ValueError):
        NSGA2Config(n_workers=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1, 1.5])
def test_config_rejects_bad_crossover_probability(value):
    with pytest.raises(ValueError):
        NSGA2Config(crossover_probability=value)


@pytest.mark.parametrize("value", [float("nan"), -0.5, 2.0])
def test_config_rejects_bad_mutation_probability(value):
    with pytest.raises(ValueError):
        NSGA2Config(mutation_probability=value)


@pytest.mark.parametrize("generations", [0, -3])
def test_config_rejects_non_positive_generations(generations):
    with pytest.raises(ValueError):
        NSGA2Config(generations=generations)


@pytest.mark.parametrize("field", ["crossover_eta", "mutation_eta"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_config_rejects_bad_etas(field, value):
    with pytest.raises(ValueError):
        NSGA2Config(**{field: value})
