"""Table 1 -- performance and variation values of the Pareto points.

The paper reports, for a selection of Pareto-optimal VCO designs, the gain
Kvco and its relative spread, the jitter Jvco and its relative spread, and
the current Ivco and its relative spread, obtained from a 100-sample Monte
Carlo run per design point.

This benchmark regenerates those rows from the extracted combined model and
times the underlying Monte Carlo kernel.  The comparison with the paper is
about *shape*: Kvco of hundreds to thousands of MHz/V, Jvco of a fraction
of a picosecond, Ivco of a few mA, and a spread ordering
``delta(Jvco) >> delta(Ivco) ~ delta(Kvco)`` (the paper reports 22-26%,
2.6-2.9% and 0.28-0.50% respectively).
"""

import numpy as np

from benchmarks.conftest import print_header
from repro.circuits import VcoDesign
from repro.circuits.ring_vco import vco_device_geometries
from repro.process import MonteCarloEngine, TECH_012UM


def test_table1_rows(benchmark, combined_model, settings):
    """Print the Table-1 style rows and check their shape against the paper."""
    rows = benchmark(combined_model.table1_records, 12)
    print_header(
        "Table 1: Pareto-point performance and variation values "
        f"({settings['mc_samples_per_point']} MC samples per point)"
    )
    print(
        f"{'design':>6} {'Kvco [MHz/V]':>13} {'dKvco [%]':>10} {'Jvco [ps]':>10} "
        f"{'dJvco [%]':>10} {'Ivco [mA]':>10} {'dIvco [%]':>10}"
    )
    for row in rows:
        print(
            f"{row['design']:>6d} {row['kvco_mhz_per_v']:13.1f} {row['kvco_delta_pct']:10.2f} "
            f"{row['jvco_ps']:10.3f} {row['jvco_delta_pct']:10.1f} "
            f"{row['ivco_ma']:10.2f} {row['ivco_delta_pct']:10.2f}"
        )
    assert rows, "the combined model produced no Table-1 rows"
    kvco = np.array([row["kvco_mhz_per_v"] for row in rows])
    jvco = np.array([row["jvco_ps"] for row in rows])
    ivco = np.array([row["ivco_ma"] for row in rows])
    d_jvco = np.array([row["jvco_delta_pct"] for row in rows])
    d_ivco = np.array([row["ivco_delta_pct"] for row in rows])
    d_kvco = np.array([row["kvco_delta_pct"] for row in rows])
    # Magnitudes in the same decade as the paper's Table 1.
    assert 100.0 < np.median(kvco) < 5000.0
    assert 0.01 < np.median(jvco) < 2.0
    assert 1.0 < np.median(ivco) < 20.0
    # Spread ordering: jitter spreads much more than current and gain.
    assert np.median(d_jvco) > 3.0 * np.median(d_ivco)
    assert np.median(d_ivco) < 15.0
    assert np.median(d_kvco) < 15.0


def test_table1_benchmark_monte_carlo_kernel(benchmark, evaluator, settings):
    """Time the per-Pareto-point Monte Carlo analysis (the Table-1 kernel)."""
    design = VcoDesign()

    def run_mc():
        engine = MonteCarloEngine(
            TECH_012UM, n_samples=settings["mc_samples_per_point"], seed=1
        )
        return engine.run(
            evaluator.monte_carlo_batch_evaluator(design),
            devices=vco_device_geometries(design),
        )

    result = benchmark(run_mc)
    assert result.n_samples == settings["mc_samples_per_point"]
    spreads = result.spreads()
    assert spreads["jitter"].spread_percent > spreads["current"].spread_percent
