"""Batch evaluation backends for the population-based optimisers.

The paper's flow spends essentially all of its runtime inside objective
evaluations: 3,000 circuit evaluations per NSGA-II run (section 4.2) plus
hundreds of Monte Carlo re-simulations per Pareto point (section 3.3).
Evaluating one :class:`~repro.optim.individual.Individual` at a time keeps
that cost strictly serial Python, so the optimiser is batch-first instead:
the :class:`~repro.optim.nsga2.NSGA2` driver hands a *whole population* of
parameter vectors to a :class:`BatchEvaluator` and receives the evaluated
individuals back in one call.

Three interchangeable backends are provided:

* :class:`SerialEvaluator` -- one :meth:`Problem.evaluate_vector` call per
  vector.  This is the default.
* :class:`VectorisedEvaluator` -- a single
  :meth:`~repro.optim.problem.Problem.evaluate_batch` call.  Problems that
  implement array-in/array-out evaluation (the VCO sizing problem backed by
  :class:`~repro.circuits.evaluators.RingVcoAnalyticalEvaluator`, the
  behavioural PLL system problem with its lane-parallel transient)
  evaluate the whole population as array math; problems without a native
  batch path fall back to the serial loop transparently.
* :class:`ProcessPoolEvaluator` -- fans the vectors out over a
  ``concurrent.futures`` process pool.  Useful for expensive evaluations
  that are not array math (the transistor-level SPICE test bench).  The
  problem must be picklable; results are identical to the serial backend
  because the exact same code runs in every worker.

The array kernels compute every row independently of the others, so one
row evaluated alone equals the same row inside a batch, bit for bit: all
three backends give identical results for a fixed seed (same arithmetic,
same seeded RNG stream).

Pick a backend by name through :attr:`NSGA2Config.evaluator`
(``"serial"``, ``"vectorised"`` or ``"process"``) or inject a custom
instance into :class:`~repro.optim.nsga2.NSGA2` directly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.optim.individual import Individual
from repro.optim.problem import Evaluation, Problem

__all__ = [
    "EVALUATOR_CHOICES",
    "BatchEvaluator",
    "SerialEvaluator",
    "VectorisedEvaluator",
    "ProcessPoolEvaluator",
    "build_individual",
    "create_evaluator",
    "default_worker_count",
]

#: Backend names accepted by ``NSGA2Config.evaluator`` / :func:`create_evaluator`.
EVALUATOR_CHOICES = ("serial", "vectorised", "process")


def default_worker_count() -> int:
    """Default process-pool size shared by every pooled evaluator.

    CPU count capped at 8: objective evaluations are CPU-bound, so more
    workers than cores only add scheduling overhead.  The SPICE
    evaluator's batch pool reuses this rule so one worker-count convention
    applies across the flow.
    """
    return min(os.cpu_count() or 2, 8)


def build_individual(
    problem: Problem, vector: np.ndarray, evaluation: Evaluation
) -> Individual:
    """Assemble an evaluated :class:`Individual` from a raw evaluation.

    This is the single place where evaluation results become individuals,
    shared by every backend so that serial, vectorised and process-pool
    evaluation produce structurally identical populations.
    """
    individual = Individual(parameters=problem.clip(vector))
    individual.objectives = problem.objective_vector(evaluation)
    individual.constraints = problem.constraint_vector(evaluation)
    individual.raw_objectives = dict(evaluation.objectives)
    individual.metrics = dict(evaluation.metrics)
    return individual


class BatchEvaluator:
    """Strategy interface: evaluate a whole population of vectors at once."""

    #: Human-readable backend name (used in reports and benchmarks).
    name = "batch"

    def evaluate(
        self, problem: Problem, vectors: Sequence[np.ndarray]
    ) -> List[Individual]:
        """Evaluate every parameter vector and return evaluated individuals.

        Parameters
        ----------
        problem:
            The optimisation problem providing the objective functions.
        vectors:
            Parameter vectors to evaluate (one population or offspring
            batch), each of shape ``(n_parameters,)``.

        Returns
        -------
        list of Individual
            One evaluated individual per vector, in input order -- the
            NSGA-II driver relies on order preservation for
            reproducibility.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources held by the backend (worker pools)."""

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialEvaluator(BatchEvaluator):
    """One `evaluate_vector` call per individual (the historical behaviour).

    This is the reference backend: every other backend must reproduce its
    results bit for bit (same arithmetic, same seeded RNG stream), which
    the test suite and benchmarks enforce.
    """

    name = "serial"

    def evaluate(
        self, problem: Problem, vectors: Sequence[np.ndarray]
    ) -> List[Individual]:
        """Evaluate the batch with one Python call per vector."""
        return [
            build_individual(problem, vector, problem.evaluate_vector(vector))
            for vector in vectors
        ]


class VectorisedEvaluator(BatchEvaluator):
    """Array-in/array-out evaluation through ``Problem.evaluate_batch``.

    Problems with a native numpy batch path (the analytical VCO sizing
    problem, the behavioural PLL system problem) evaluate the whole
    population in a handful of array calls; problems without one inherit
    :meth:`Problem.evaluate_batch`'s serial loop and still work.
    """

    name = "vectorised"

    def evaluate(
        self, problem: Problem, vectors: Sequence[np.ndarray]
    ) -> List[Individual]:
        """Evaluate the whole batch in a single ``evaluate_batch`` call.

        Parameters
        ----------
        problem:
            The optimisation problem; its ``evaluate_batch`` receives one
            ``(n_vectors, n_parameters)`` matrix.
        vectors:
            Parameter vectors of the population or offspring batch.

        Returns
        -------
        list of Individual
            Evaluated individuals in input order, bit-identical to the
            serial backend for a correctly vectorised problem.
        """
        matrix = np.asarray(vectors, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        evaluations = problem.evaluate_batch(matrix)
        if len(evaluations) != matrix.shape[0]:
            raise ValueError(
                f"problem {problem.name!r} returned {len(evaluations)} evaluation(s) "
                f"for {matrix.shape[0]} vector(s)"
            )
        return [
            build_individual(problem, row, evaluation)
            for row, evaluation in zip(matrix, evaluations)
        ]


# The worker-side problem is installed once per pool through the executor
# initializer, so each task ships only the (small) parameter vector.
_WORKER_PROBLEM: Optional[Problem] = None


def _initialise_worker(problem: Problem) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem


def _evaluate_in_worker(vector: np.ndarray) -> Evaluation:
    if _WORKER_PROBLEM is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process was not initialised with a problem")
    return _WORKER_PROBLEM.evaluate(
        _WORKER_PROBLEM.decode(_WORKER_PROBLEM.clip(vector))
    )


class ProcessPoolEvaluator(BatchEvaluator):
    """Parallel evaluation over a process pool.

    Parameters
    ----------
    n_workers:
        Number of worker processes; defaults to ``os.cpu_count()`` capped
        at 8 (objective evaluations are CPU-bound, more workers than cores
        only add scheduling overhead).
    """

    name = "process"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.n_workers = n_workers or default_worker_count()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._problem: Optional[Problem] = None

    def evaluate(
        self, problem: Problem, vectors: Sequence[np.ndarray]
    ) -> List[Individual]:
        """Fan the batch out over the worker pool in pickling-friendly chunks.

        Parameters
        ----------
        problem:
            The optimisation problem; shipped to the workers once per pool
            (via the executor initializer), not once per task.
        vectors:
            Parameter vectors of the population or offspring batch.

        Returns
        -------
        list of Individual
            Evaluated individuals in input order; identical to the serial
            backend because each worker runs the same scalar code.
        """
        vectors = [np.asarray(vector, dtype=float) for vector in vectors]
        if not vectors:
            return []
        executor = self._ensure_executor(problem)
        chunksize = max(1, -(-len(vectors) // (self.n_workers * 4)))
        evaluations = list(
            executor.map(_evaluate_in_worker, vectors, chunksize=chunksize)
        )
        # Workers hold copies of the problem; keep the caller's bookkeeping
        # consistent with the serial backend.
        problem.evaluation_count += len(vectors)
        return [
            build_individual(problem, vector, evaluation)
            for vector, evaluation in zip(vectors, evaluations)
        ]

    def _ensure_executor(self, problem: Problem) -> ProcessPoolExecutor:
        if self._executor is not None and self._problem is not problem:
            # A new problem invalidates the workers' cached copy.
            self.close()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                initializer=_initialise_worker,
                initargs=(problem,),
            )
            self._problem = problem
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._problem = None


def create_evaluator(
    name: str = "serial", n_workers: Optional[int] = None
) -> BatchEvaluator:
    """Build a batch-evaluation backend from its configuration name.

    Parameters
    ----------
    name:
        One of :data:`EVALUATOR_CHOICES` (``"serial"``, ``"vectorised"``,
        ``"process"``); case-insensitive.
    n_workers:
        Pool size for the ``"process"`` backend (ignored otherwise);
        defaults to :func:`default_worker_count`.

    Returns
    -------
    BatchEvaluator
        A ready-to-use backend instance.

    Raises
    ------
    ValueError
        If ``name`` is not a known backend.
    """
    key = (name or "serial").lower()
    if key == "serial":
        return SerialEvaluator()
    if key == "vectorised":
        return VectorisedEvaluator()
    if key == "process":
        return ProcessPoolEvaluator(n_workers=n_workers)
    raise ValueError(
        f"unknown evaluator {name!r}; expected one of {', '.join(EVALUATOR_CHOICES)}"
    )
