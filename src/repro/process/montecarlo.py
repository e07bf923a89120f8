"""Monte Carlo analysis engine.

Section 3.3 of the paper: "a MC analysis is run for each of the parameter
solution sets that lies on the Pareto-front.  From this simulation, a set
of performance spreads is obtained."  The engine here provides exactly
that service for any batch evaluator with the signature

    evaluator(sample_batch) -> [{performance_name: value}, ...]

It draws global-variation and mismatch samples with a seeded random
generator (fully reproducible), evaluates the whole batch in one call and
returns a :class:`MonteCarloResult` holding per-sample values, nominal
values and the spread summaries used to build the paper's variation model.

A drawn batch is a :class:`ProcessSampleBatch`: the shifted model-card
parameters and the mismatch deltas as one array per quantity, which batch
evaluators consume whole.  Per-sample :class:`ProcessSample` objects are
built from it only where a consumer asks for one (the transistor-level
test bench runs one netlist per sample).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.process.mismatch import DeviceGeometry, MismatchBatch, MismatchModel, MismatchSample
from repro.process.statistics import (
    PerformanceSpread,
    parametric_yield,
    summarise_samples,
)
from repro.process.technology import Technology, shift_parameters
from repro.process.variation import GlobalVariationModel

__all__ = ["ProcessSample", "ProcessSampleBatch", "MonteCarloResult", "MonteCarloEngine"]

BatchEvaluator = Callable[["ProcessSampleBatch"], Sequence[Mapping[str, float]]]


@dataclass(frozen=True)
class ProcessSample:
    """One drawn combination of global variation and local mismatch."""

    index: int
    technology: Technology
    mismatch: MismatchSample


@dataclass(frozen=True, eq=False)
class ProcessSampleBatch:
    """Drawn process samples as a struct of arrays.

    ``cards[polarity][parameter]`` holds the shifted value of every varied
    model-card parameter, one entry per sample (both polarity keys are
    always present; they are empty without global variation), and
    ``mismatch`` the per-device mismatch deltas.  ``batch[i]`` builds the
    :class:`ProcessSample` a per-sample consumer needs -- its technology
    carries exactly these shifted values as Python floats -- and
    ``batch[start:stop]`` is a sub-batch that keeps the sample indices.
    """

    technology: Technology
    cards: Mapping[str, Mapping[str, np.ndarray]]
    mismatch: MismatchBatch
    indices: range

    @classmethod
    def nominal(cls, technology: Technology) -> "ProcessSampleBatch":
        """One unperturbed sample: no global variation, no mismatch."""
        return cls(technology, {"nmos": {}, "pmos": {}}, MismatchBatch.empty(1), range(1))

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, key):
        if isinstance(key, slice):
            cards = {
                polarity: {name: column[key] for name, column in columns.items()}
                for polarity, columns in self.cards.items()
            }
            return ProcessSampleBatch(
                self.technology, cards, self.mismatch[key], self.indices[key]
            )
        position = range(len(self))[key]
        return ProcessSample(
            index=self.indices[position],
            technology=self._technology(position),
            mismatch=self.mismatch[position],
        )

    def __iter__(self) -> Iterator[ProcessSample]:
        for position in range(len(self)):
            yield self[position]

    def _technology(self, position: int) -> Technology:
        shifted = {
            polarity: self.technology.model(polarity).with_variation(
                **{name: float(column[position]) for name, column in columns.items()}
            )
            for polarity, columns in self.cards.items()
            if columns
        }
        return replace(self.technology, **shifted) if shifted else self.technology


@dataclass
class MonteCarloResult:
    """Per-sample performances plus nominal values and spread summaries."""

    performances: List[Dict[str, float]]
    nominal: Dict[str, float] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        """Number of Monte Carlo samples evaluated."""
        return len(self.performances)

    @property
    def performance_names(self) -> List[str]:
        """Names of the recorded performances."""
        if not self.performances:
            return []
        return list(self.performances[0])

    def values(self, name: str) -> np.ndarray:
        """All sampled values of one performance."""
        return np.array([sample[name] for sample in self.performances])

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """All performances as name -> sample-array mapping."""
        return {name: self.values(name) for name in self.performance_names}

    def spreads(self) -> Dict[str, PerformanceSpread]:
        """Spread summary (mean, sigma, relative spread) per performance."""
        return summarise_samples(self.as_arrays(), self.nominal)

    def spread_percent(self, name: str) -> float:
        """Relative spread of one performance in percent."""
        return self.spreads()[name].spread_percent

    def yield_fraction(self, specifications: Mapping[str, tuple]) -> float:
        """Parametric yield against a specification window set."""
        return parametric_yield(self.as_arrays(), specifications)


class MonteCarloEngine:
    """Seeded Monte Carlo sampling over process variation and mismatch."""

    def __init__(
        self,
        technology: Technology,
        variation: GlobalVariationModel | None = None,
        mismatch: MismatchModel | None = None,
        n_samples: int = 100,
        seed: Optional[int] = 2009,
        include_global: bool = True,
        include_mismatch: bool = True,
    ) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.technology = technology
        self.variation = variation or GlobalVariationModel()
        self.mismatch = mismatch or MismatchModel()
        self.n_samples = n_samples
        self.seed = seed
        self.include_global = include_global
        self.include_mismatch = include_mismatch

    # -- sampling -----------------------------------------------------------------

    def sample_batch(self, devices: Sequence[DeviceGeometry] = ()) -> ProcessSampleBatch:
        """Draw all ``n_samples`` process samples in one bulk RNG call.

        The standard normals of every sample are pulled from the generator
        as a single ``(n_samples, k)`` matrix -- numpy fills it from the
        same sequential stream as one-at-a-time scalar draws, so the
        resulting samples are bit-identical to the historical per-sample
        drawing for any fixed seed.  The matrix is then converted column
        by column: global variation into shifted model-card columns,
        mismatch into per-device delta columns.
        """
        rng = np.random.default_rng(self.seed)
        use_mismatch = self.include_mismatch and bool(devices)
        k_variation = self.variation.n_random_variables if self.include_global else 0
        k_mismatch = self.mismatch.draws_per_sample(devices) if use_mismatch else 0
        width = k_variation + k_mismatch
        draws = (
            rng.standard_normal((self.n_samples, width))
            if width
            else np.zeros((self.n_samples, 0))
        )
        cards: Dict[str, Dict[str, np.ndarray]] = {"nmos": {}, "pmos": {}}
        if self.include_global:
            deltas = self.variation.deltas_from_draws(self.technology, draws[:, :k_variation])
            cards = {
                polarity: shift_parameters(self.technology.model(polarity), deltas[polarity])
                for polarity in cards
            }
        if use_mismatch:
            mismatch = self.mismatch.sample_from_draws(devices, draws[:, k_variation:])
        else:
            mismatch = MismatchBatch.empty(self.n_samples)
        return ProcessSampleBatch(self.technology, cards, mismatch, range(self.n_samples))

    def samples(self, devices: Sequence[DeviceGeometry] = ()) -> Iterator[ProcessSample]:
        """Yield ``n_samples`` process samples (reproducible for a fixed seed)."""
        yield from self.sample_batch(devices)

    # -- evaluation ----------------------------------------------------------------

    def run(
        self,
        evaluator: BatchEvaluator,
        devices: Sequence[DeviceGeometry] = (),
        nominal: Mapping[str, float] | None = None,
    ) -> MonteCarloResult:
        """Evaluate ``evaluator`` on all drawn samples in one call.

        Parameters
        ----------
        evaluator:
            Callable receiving the whole :class:`ProcessSampleBatch` and
            returning one performance dictionary per sample, index-aligned
            (see
            :meth:`~repro.circuits.evaluators.VcoEvaluator.monte_carlo_batch_evaluator`).
        devices:
            Geometries of the matched devices; required for mismatch to be
            applied (an empty sequence disables mismatch).
        nominal:
            Optional nominal performances.  When omitted, the evaluator is
            called once on a one-sample nominal batch to obtain them.
        """
        if nominal is None:
            nominal_results = evaluator(ProcessSampleBatch.nominal(self.technology))
            if len(nominal_results) != 1:
                raise ValueError("batch evaluator returned no nominal result")
            nominal = dict(nominal_results[0])
        samples = self.sample_batch(devices)
        results = evaluator(samples)
        if len(results) != len(samples):
            raise ValueError(
                f"batch evaluator returned {len(results)} result(s) for "
                f"{len(samples)} sample(s)"
            )
        return MonteCarloResult(performances=_performances(results), nominal=dict(nominal))

    # Kept as a second name because external timing wrappers patch both
    # ``run`` and ``run_batch`` by looking them up in the class namespace.
    run_batch = run


def _performances(results: Sequence[Mapping[str, float]]) -> List[Dict[str, float]]:
    """Per-sample performance records as plain ``{name: float}`` dicts."""
    performances: List[Dict[str, float]] = []
    for result in results:
        result = dict(result)
        if not result:
            raise ValueError("evaluator returned an empty performance dictionary")
        performances.append({k: float(v) for k, v in result.items()})
    return performances
