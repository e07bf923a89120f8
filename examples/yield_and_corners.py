"""Design-for-yield analysis: Monte Carlo, corners and spec trade-offs.

This example focuses on the variation side of the paper:

* corner analysis of a VCO design across the slow/fast process corners,
* Monte Carlo analysis with global variation and Pelgrom mismatch,
* parametric yield of a PLL design against the paper's specifications and
  how the yield degrades as the current specification is tightened, plus
  the two registered specification sets (``pll_system`` and the
  ``low-power`` scenario's ``pll_low_power``).

Run with::

    python examples/yield_and_corners.py
"""

from __future__ import annotations

import numpy as np

from repro.behavioural import BehaviouralPll, BehaviouralVco, PllDesign, VcoVariationTables
from repro.circuits import RingVcoAnalyticalEvaluator, VcoDesign
from repro.circuits.ring_vco import vco_device_geometries
from repro.core.specification import SPECIFICATION_SETS
from repro.process import (
    MonteCarloEngine,
    STANDARD_CORNERS,
    TECH_012UM,
    parametric_yield,
)


def corner_analysis(design: VcoDesign) -> None:
    """Evaluate the VCO at every standard process corner."""
    print("Corner analysis of the VCO design:")
    print(
        f"{'corner':>8} {'Kvco [MHz/V]':>13} {'Jvco [ps]':>10} "
        f"{'Ivco [mA]':>10} {'fmax [GHz]':>11}"
    )
    for corner in STANDARD_CORNERS:
        technology = corner.apply(TECH_012UM)
        performance = RingVcoAnalyticalEvaluator(technology).evaluate(design, technology=technology)
        print(
            f"{corner.name:>8} {performance.kvco_mhz_per_v:13.1f} {performance.jitter_ps:10.3f} "
            f"{performance.current_ma:10.2f} {performance.fmax_ghz:11.3f}"
        )


def monte_carlo_analysis(design: VcoDesign, n_samples: int = 100):
    """Monte Carlo spreads of the VCO performances (Table-1 ingredients)."""
    evaluator = RingVcoAnalyticalEvaluator(TECH_012UM)
    engine = MonteCarloEngine(TECH_012UM, n_samples=n_samples, seed=2009)
    result = engine.run(
        evaluator.monte_carlo_batch_evaluator(design), devices=vco_device_geometries(design)
    )
    print(f"\nMonte Carlo analysis ({n_samples} samples, global variation + mismatch):")
    for name, spread in result.spreads().items():
        print(
            f"  {name:>8}: mean = {spread.mean:10.4g}   sigma = {spread.std:10.4g}   "
            f"spread = {spread.spread_percent:6.2f} %"
        )
    return result


def pll_yield_sweep(vco_samples) -> None:
    """Propagate the VCO samples through the PLL and sweep the current spec."""
    pll_design = PllDesign(c1=3e-12, c2=0.6e-12, r1=2e3)
    system_samples = {"lock_time": [], "jitter": [], "current": [], "final_frequency": []}
    for sample in vco_samples.performances:
        vco = BehaviouralVco(
            kvco=max(sample["kvco"], 1e6),
            ivco=max(sample["current"], 1e-6),
            jvco=sample["jitter"],
            fmin=sample["fmin"],
            fmax=max(sample["fmax"], sample["fmin"] * 1.05),
            variation=VcoVariationTables.constant(0.0, 0.0, 0.0, 0.0, 0.0),
        )
        performance = BehaviouralPll(vco, pll_design).evaluate(max_time=3e-6)
        for name in system_samples:
            value = performance.as_dict()[name]
            system_samples[name].append(value if np.isfinite(value) else 1e-3)
    print("\nPLL parametric yield vs current specification (lock < 1 us, 0.5-1.2 GHz output):")
    print(f"{'I_spec [mA]':>12} {'yield [%]':>10}")
    for limit_ma in (20.0, 16.0, 15.0, 14.0, 13.0, 12.0):
        result = parametric_yield(
            system_samples,
            {
                "lock_time": (None, 1.0e-6),
                "current": (None, limit_ma * 1e-3),
                "final_frequency": (500.0e6, 1.2e9),
            },
        )
        print(f"{limit_ma:12.1f} {100.0 * result:10.1f}")
    # The same numbers against the registered scenario specification sets
    # (the windows the `table2` and `low-power` scenarios optimise for).
    print("\nYield against the registered specification sets:")
    for key, specs in SPECIFICATION_SETS.items():
        result = parametric_yield(system_samples, specs.as_windows())
        print(f"  {key:15s}: {100.0 * result:6.1f} %")


def main() -> None:
    # A fast, low-current design point: its tuning range comfortably covers
    # the 0.96 GHz PLL target, so the yield sweep below shows how the
    # current specification (not the frequency range) limits the yield.
    design = VcoDesign(
        nmos_width=15e-6,
        nmos_length=0.15e-6,
        pmos_width=30e-6,
        pmos_length=0.15e-6,
        tail_nmos_width=60e-6,
        tail_pmos_width=90e-6,
        tail_length=0.15e-6,
    )
    corner_analysis(design)
    mc_result = monte_carlo_analysis(design)
    pll_yield_sweep(mc_result)


if __name__ == "__main__":
    main()
