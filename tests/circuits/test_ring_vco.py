"""Tests for the ring-VCO design point, netlist generator and evaluators."""

import numpy as np
import pytest

from repro.circuits import (
    RingVcoAnalyticalEvaluator,
    RingVcoSpiceEvaluator,
    VcoDesign,
    VcoPerformance,
    build_ring_vco,
    vco_device_geometries,
)
from repro.circuits.ring_vco import N_STAGES
from repro.process import MonteCarloEngine, TECH_012UM
from repro.spice import MOSFET, Capacitor, VoltageSource

from tests.circuits.scalar_model import monte_carlo_loop


# -- design point -------------------------------------------------------------------------


def test_design_has_seven_parameters():
    assert len(VcoDesign.parameter_names()) == 7


def test_design_dict_round_trip():
    design = VcoDesign()
    rebuilt = VcoDesign.from_dict(design.as_dict())
    assert rebuilt == design


def test_design_rejects_unknown_parameter():
    with pytest.raises(KeyError):
        VcoDesign.from_dict({"bogus": 1.0})


def test_design_rejects_non_positive_values():
    with pytest.raises(ValueError):
        VcoDesign(nmos_width=-1e-6)


def test_optimisation_parameters_match_paper_bounds():
    parameters = {p.name: p for p in VcoDesign.optimisation_parameters()}
    assert len(parameters) == 7
    assert parameters["nmos_length"].lower == pytest.approx(0.12e-6)
    assert parameters["nmos_length"].upper == pytest.approx(1.0e-6)
    assert parameters["nmos_width"].lower == pytest.approx(10e-6)
    assert parameters["nmos_width"].upper == pytest.approx(100e-6)


def test_clamped_respects_design_rules():
    design = VcoDesign(nmos_width=500e-6, nmos_length=0.01e-6)
    clamped = design.clamped()
    assert clamped.nmos_width == pytest.approx(100e-6)
    assert clamped.nmos_length == pytest.approx(0.12e-6)


def test_device_geometries_cover_all_stages():
    geometries = vco_device_geometries(VcoDesign())
    names = [g.name for g in geometries]
    assert len(names) == 4 * N_STAGES + 2
    assert "mn0" in names and "mtp4" in names and "mbn" in names


# -- netlist generator ------------------------------------------------------------------------


def test_build_ring_vco_structure():
    circuit = build_ring_vco(VcoDesign(), TECH_012UM, vctrl=0.8)
    mosfets = circuit.elements_of_type(MOSFET)
    capacitors = circuit.elements_of_type(Capacitor)
    sources = circuit.elements_of_type(VoltageSource)
    assert len(mosfets) == 4 * N_STAGES + 2
    assert len(capacitors) == N_STAGES
    assert len(sources) == 2
    circuit.validate()


def test_build_ring_vco_odd_stage_count_required():
    with pytest.raises(ValueError):
        build_ring_vco(VcoDesign(), n_stages=4)
    with pytest.raises(ValueError):
        build_ring_vco(VcoDesign(), n_stages=1)


def test_build_ring_vco_applies_device_overrides():
    overrides = {"mn0": {"vth0": 0.1, "u0_rel": 0.5}}
    circuit = build_ring_vco(VcoDesign(), TECH_012UM, device_overrides=overrides)
    shifted = circuit.element("mn0")
    untouched = circuit.element("mn1")
    assert shifted.model.vth0 == pytest.approx(TECH_012UM.nmos.vth0 + 0.1)
    assert shifted.model.u0 == pytest.approx(TECH_012UM.nmos.u0 * 1.5)
    assert untouched.model.vth0 == pytest.approx(TECH_012UM.nmos.vth0)


def test_build_ring_vco_extra_load():
    circuit = build_ring_vco(VcoDesign(), extra_load=50e-15)
    cap = circuit.element("cl0")
    assert cap.capacitance == pytest.approx(50e-15)


# -- analytical evaluator ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def evaluator():
    return RingVcoAnalyticalEvaluator(TECH_012UM)


def test_analytical_performance_ballpark(evaluator, ):
    performance = evaluator.evaluate(VcoDesign())
    assert 0.1e9 < performance.fmax < 5e9
    assert performance.fmin < performance.fmax
    assert 0.5e-3 < performance.current < 30e-3
    assert 0.01e-12 < performance.jitter < 5e-12
    assert performance.kvco > 0.0


def test_analytical_frequency_increases_with_control_headroom(evaluator):
    # Larger starving transistors deliver more current -> higher frequency.
    small_tail = VcoDesign(tail_nmos_width=15e-6, tail_pmos_width=30e-6)
    big_tail = VcoDesign(tail_nmos_width=90e-6, tail_pmos_width=95e-6)
    assert evaluator.evaluate(big_tail).fmax > evaluator.evaluate(small_tail).fmax


def test_analytical_current_increases_with_tail_width(evaluator):
    small = evaluator.evaluate(VcoDesign(tail_nmos_width=15e-6))
    large = evaluator.evaluate(VcoDesign(tail_nmos_width=90e-6))
    assert large.current > small.current


def test_analytical_longer_channels_are_slower(evaluator):
    fast = evaluator.evaluate(VcoDesign(tail_length=0.15e-6))
    slow = evaluator.evaluate(VcoDesign(tail_length=0.9e-6))
    assert fast.fmax > slow.fmax


def test_analytical_jitter_decreases_with_current(evaluator):
    low_current = evaluator.evaluate(VcoDesign(tail_nmos_width=12e-6, tail_pmos_width=24e-6))
    high_current = evaluator.evaluate(VcoDesign(tail_nmos_width=90e-6, tail_pmos_width=95e-6))
    assert high_current.jitter < low_current.jitter


def test_analytical_mismatch_changes_jitter(evaluator):
    design = VcoDesign()
    devices = vco_device_geometries(design)
    engine = MonteCarloEngine(TECH_012UM, n_samples=10, seed=1)
    result = engine.run(evaluator.monte_carlo_batch_evaluator(design), devices=devices)
    assert result.performances == monte_carlo_loop(
        evaluator, design, engine.sample_batch(devices)
    )
    jitters = result.values("jitter")
    assert np.std(jitters) > 0.0
    assert result.spreads()["jitter"].spread_percent > 1.0


def test_analytical_variation_shape_matches_paper(evaluator):
    """Jitter must spread far more than current and gain (Table 1 shape)."""
    design = VcoDesign()
    engine = MonteCarloEngine(TECH_012UM, n_samples=40, seed=2)
    result = engine.run(
        evaluator.monte_carlo_batch_evaluator(design), devices=vco_device_geometries(design)
    )
    spreads = result.spreads()
    assert spreads["jitter"].spread_percent > 3.0 * spreads["current"].spread_percent
    assert spreads["current"].spread_percent < 10.0


def test_performance_record_conversions():
    performance = VcoPerformance(kvco=1.2e9, jitter=0.25e-12, current=4e-3, fmin=0.5e9, fmax=1.2e9)
    assert performance.kvco_mhz_per_v == pytest.approx(1200.0)
    assert performance.jitter_ps == pytest.approx(0.25)
    assert performance.current_ma == pytest.approx(4.0)
    assert performance.fmin_ghz == pytest.approx(0.5)
    assert performance.tuning_range == pytest.approx(0.7e9)
    assert VcoPerformance.from_dict(performance.as_dict()) == performance
    senses = VcoPerformance.objective_senses()
    assert senses["jitter"] == "min" and senses["kvco"] == "max"


# -- transistor-level evaluator (slow: one full MNA run) ---------------------------------------


def test_spice_evaluator_agrees_with_analytical_within_factor():
    design = VcoDesign()
    spice = RingVcoSpiceEvaluator(TECH_012UM, dt=8e-12, sim_cycles=5)
    analytical = RingVcoAnalyticalEvaluator(TECH_012UM)
    measured = spice.evaluate(design)
    predicted = analytical.evaluate(design)
    assert measured.fmax > 0.0, "transistor-level VCO failed to oscillate"
    assert predicted.fmax / measured.fmax < 3.0
    assert measured.fmax / predicted.fmax < 3.0
    assert predicted.current / measured.current < 3.0
    assert measured.current / predicted.current < 3.0
