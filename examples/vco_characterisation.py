"""VCO characterisation: transistor-level simulation vs the analytical model.

This example exercises the circuit substrate directly, without the
optimiser:

* builds the 5-stage current-starved ring-oscillator netlist for a chosen
  design point,
* runs transistor-level (MNA) transient simulations at several control
  voltages to extract the tuning curve, supply current and gain,
* compares the result with the calibrated analytical evaluator used inside
  the genetic-algorithm loop, and
* runs a small Monte Carlo analysis to show the performance spreads that
  feed the paper's variation model (Table 1).

Run with::

    python examples/vco_characterisation.py
"""

from __future__ import annotations

import time


from repro.circuits import (
    RingVcoAnalyticalEvaluator,
    VcoDesign,
    VcoTestbench,
    build_ring_vco,
)
from repro.circuits.ring_vco import vco_device_geometries
from repro.experiments import get_scenario
from repro.process import MonteCarloEngine, TECH_012UM


def tuning_curve(design: VcoDesign, control_voltages) -> None:
    """Measure the transistor-level tuning curve with the MNA engine."""
    bench = VcoTestbench(TECH_012UM, dt=8e-12, sim_cycles=5)
    print(f"{'Vctrl [V]':>10} {'f_osc [GHz]':>12} {'I_dd [mA]':>10} {'oscillates':>11}")
    for vctrl in control_voltages:
        start = time.time()
        measurement = bench.measure_at(design, vctrl)
        print(
            f"{vctrl:10.2f} {measurement.frequency / 1e9:12.3f} "
            f"{measurement.supply_current * 1e3:10.2f} {str(measurement.oscillates):>11} "
            f"   ({time.time() - start:.1f} s)"
        )


def main() -> None:
    # The scenario registry is the single source of truth for technology
    # and ring topology; this example characterises the paper scenario's VCO.
    scenario = get_scenario("table2")
    technology = scenario.resolve_technology()
    design = VcoDesign(
        nmos_width=30e-6,
        nmos_length=0.24e-6,
        pmos_width=60e-6,
        pmos_length=0.24e-6,
        tail_nmos_width=40e-6,
        tail_pmos_width=80e-6,
        tail_length=0.24e-6,
    )
    circuit = build_ring_vco(design, technology, vctrl=0.8, n_stages=scenario.n_stages)
    print(
        f"Transistor-level netlist of the {scenario.n_stages}-stage "
        "current-starved ring VCO:"
    )
    print(f"  {len(circuit)} elements, {circuit.n_nodes} nodes "
          f"({len(circuit.elements_of_type(type(circuit.element('mn0'))))} MOSFETs)")

    print("\nTransistor-level tuning curve (pure-Python MNA transients):")
    tuning_curve(design, [0.5, 0.8, 1.2])

    print("\nFull characterisation with both evaluators:")
    bench = VcoTestbench(technology, dt=8e-12, sim_cycles=5, n_stages=scenario.n_stages)
    spice_perf = bench.run(design)
    analytical_perf = RingVcoAnalyticalEvaluator(
        technology, n_stages=scenario.n_stages
    ).evaluate(design)
    print(f"{'performance':>12} {'transistor level':>18} {'analytical model':>18}")
    rows = [
        (
            "Kvco",
            f"{spice_perf.kvco_mhz_per_v:.0f} MHz/V",
            f"{analytical_perf.kvco_mhz_per_v:.0f} MHz/V",
        ),
        ("jitter", f"{spice_perf.jitter_ps:.3f} ps", f"{analytical_perf.jitter_ps:.3f} ps"),
        ("current", f"{spice_perf.current_ma:.2f} mA", f"{analytical_perf.current_ma:.2f} mA"),
        ("fmin", f"{spice_perf.fmin_ghz:.3f} GHz", f"{analytical_perf.fmin_ghz:.3f} GHz"),
        ("fmax", f"{spice_perf.fmax_ghz:.3f} GHz", f"{analytical_perf.fmax_ghz:.3f} GHz"),
    ]
    for name, spice_value, analytical_value in rows:
        print(f"{name:>12} {spice_value:>18} {analytical_value:>18}")

    print("\nMonte Carlo spreads with the analytical evaluator (30 samples):")
    evaluator = RingVcoAnalyticalEvaluator(TECH_012UM)
    engine = MonteCarloEngine(TECH_012UM, n_samples=30, seed=2009)
    result = engine.run(
        evaluator.monte_carlo_batch_evaluator(design), devices=vco_device_geometries(design)
    )
    for name, spread in result.spreads().items():
        print(f"  {name:>8}: mean = {spread.mean:.4g}, spread = {spread.spread_percent:.2f} %")


if __name__ == "__main__":
    main()
