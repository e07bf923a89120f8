"""Process technology, statistical variation and Monte Carlo analysis.

This subpackage replaces the foundry statistical BSim3v3 models used by the
paper with a generic 0.12 um technology description plus the two standard
ingredients of foundry statistical models:

* **global (inter-die) process variation** -- lot-to-lot and wafer-to-wafer
  shifts of threshold voltage, oxide thickness, mobility and geometry that
  affect every device on a die identically
  (:class:`~repro.process.variation.ProcessVariation`);
* **local mismatch** -- device-to-device random variation following the
  Pelgrom area law ``sigma = A / sqrt(W L)``
  (:class:`~repro.process.mismatch.MismatchModel`).

A seeded :class:`~repro.process.montecarlo.MonteCarloEngine` draws samples
from both and applies them to circuit evaluators, and
:mod:`repro.process.statistics` provides the spread / yield measures the
paper reports (relative sigma in percent, parametric yield, Cpk).
"""

from repro.process.corners import Corner, CornerSet, STANDARD_CORNERS
from repro.process.mismatch import MismatchBatch, MismatchModel, MismatchSample
from repro.process.montecarlo import (
    MonteCarloEngine,
    MonteCarloResult,
    ProcessSample,
    ProcessSampleBatch,
)
from repro.process.statistics import (
    PerformanceSpread,
    parametric_yield,
    process_capability,
    spread_percent,
    summarise_samples,
)
from repro.process.technology import (
    TECHNOLOGIES,
    Technology,
    TECH_012UM,
    TECH_065NM,
    technology,
)
from repro.process.variation import GlobalVariationModel, VariationSpec

__all__ = [
    "Technology",
    "TECH_012UM",
    "TECH_065NM",
    "TECHNOLOGIES",
    "technology",
    "Corner",
    "CornerSet",
    "STANDARD_CORNERS",
    "GlobalVariationModel",
    "VariationSpec",
    "MismatchModel",
    "MismatchSample",
    "MismatchBatch",
    "MonteCarloEngine",
    "MonteCarloResult",
    "ProcessSample",
    "ProcessSampleBatch",
    "PerformanceSpread",
    "spread_percent",
    "parametric_yield",
    "process_capability",
    "summarise_samples",
]
