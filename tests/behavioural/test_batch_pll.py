"""Bit-exactness tests for the lane-parallel behavioural PLL engine.

Every test here asserts *exact* (bit-for-bit) equality between the scalar
cycle loop and the batched lane engine -- the invariant the vectorised
optimisation backend relies on to reproduce historical seeded Pareto
fronts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavioural import (
    BehaviouralPll,
    BehaviouralVco,
    ChargePump,
    ChargePumpLanes,
    LoopFilter,
    LoopFilterLanes,
    PfdLanes,
    PhaseFrequencyDetector,
    PllDesign,
    VcoLanes,
    VcoVariationTables,
)
from repro.behavioural.vco import VARIANTS, describe_lanes

SEEDS = (None, 2009)


def make_population(n=7, rng_seed=42, shared_variation=None, unlockable_every=None):
    """Random (vco, design) lanes; optionally some lanes that can never lock."""
    rng = np.random.default_rng(rng_seed)
    plls = []
    for index in range(n):
        design = PllDesign(
            c1=float(rng.uniform(1e-12, 6e-12)),
            c2=float(rng.uniform(0.2e-12, 3e-12)),
            r1=float(rng.uniform(0.5e3, 5e3)),
        )
        unlockable = unlockable_every is not None and index % unlockable_every == 0
        # The target is 24 * 40 MHz = 960 MHz; a VCO whose tuning range tops
        # out below it can never lock.
        fmax = 0.90e9 if unlockable else float(rng.uniform(1.1e9, 1.4e9))
        vco = BehaviouralVco(
            kvco=float(rng.uniform(0.5e9, 2e9)),
            ivco=float(rng.uniform(1e-3, 6e-3)),
            jvco=float(rng.uniform(1e-12, 8e-12)),
            fmin=float(rng.uniform(0.6e9, 0.8e9)),
            fmax=fmax,
            variation=shared_variation,
        )
        plls.append(BehaviouralPll(vco, design))
    return plls


def assert_performance_equal(scalar, batched):
    assert scalar.lock_time == batched.lock_time
    assert scalar.jitter == batched.jitter
    assert scalar.current == batched.current
    assert scalar.locked == batched.locked
    assert scalar.final_frequency == batched.final_frequency


# -- transient equivalence ------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_batch_bit_identical_to_scalar(variant, seed):
    plls = make_population()
    batch = BehaviouralPll.simulate_batch(
        plls, variant=variant, max_time=3e-6, seed=seed
    )
    for index, pll in enumerate(plls):
        scalar = pll.simulate(variant=variant, max_time=3e-6, seed=seed)
        assert np.array_equal(batch.time, scalar.time)
        assert np.array_equal(batch.control_voltage[index], scalar.control_voltage)
        assert np.array_equal(batch.frequency[index], scalar.frequency)
        assert np.array_equal(batch.phase_error[index], scalar.phase_error)
        lane = batch.lane(index)
        assert np.array_equal(lane.frequency, scalar.frequency)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_batch_matches_scalar_evaluate(seed):
    plls = make_population()
    for variant in VARIANTS:
        batched = BehaviouralPll.evaluate_batch(
            plls, variant=variant, max_time=3e-6, seed=seed
        )
        for pll, performance in zip(plls, batched):
            scalar = pll.evaluate(variant=variant, max_time=3e-6, seed=seed)
            assert_performance_equal(scalar, performance)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_all_variants_batch_matches_scalar(seed):
    plls = make_population()
    batched = BehaviouralPll.evaluate_all_variants_batch(
        plls, max_time=3e-6, seed=seed
    )
    for pll, variant_map in zip(plls, batched):
        scalar_map = pll.evaluate_all_variants(max_time=3e-6, seed=seed)
        assert set(variant_map) == set(VARIANTS)
        for variant in VARIANTS:
            assert_performance_equal(scalar_map[variant], variant_map[variant])


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_lock_population(seed):
    """Lanes that can never lock coexist with locking lanes in one batch."""
    plls = make_population(n=9, unlockable_every=3)
    performances = BehaviouralPll.evaluate_batch(plls, max_time=3e-6, seed=seed)
    locked_flags = [performance.locked for performance in performances]
    assert any(locked_flags) and not all(locked_flags)
    for index, (pll, performance) in enumerate(zip(plls, performances)):
        scalar = pll.evaluate(max_time=3e-6, seed=seed)
        assert_performance_equal(scalar, performance)
        if index % 3 == 0:
            assert not performance.locked
            assert performance.lock_time == float("inf")


def test_jitter_stream_is_shared_across_lanes():
    """Each lane consumes the same seeded noise stream as its scalar run.

    The lanes have different jitter sigmas, so this fails if the batch
    path drew noise lane-by-lane instead of one bulk block per cycle
    stream (the scalar path re-seeds one generator per lane).
    """
    plls = make_population(n=5, rng_seed=9)
    sigmas = {pll.vco.period_jitter("nominal") for pll in plls}
    assert len(sigmas) == len(plls)  # genuinely distinct lanes
    batch = BehaviouralPll.simulate_batch(plls, max_time=3e-6, seed=77)
    for index, pll in enumerate(plls):
        scalar = pll.simulate(max_time=3e-6, seed=77)
        assert np.array_equal(batch.frequency[index], scalar.frequency)


def test_simulate_batch_rejects_mixed_reference_frequencies():
    plls = make_population(n=2)
    design = PllDesign(reference_frequency=50e6, divide_ratio=24)
    plls[1] = BehaviouralPll(plls[1].vco, design)
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch(plls)


def test_simulate_batch_rejects_empty_and_bad_variant():
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch([])
    plls = make_population(n=2)
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch(plls, variant="typical")
    with pytest.raises(ValueError):
        BehaviouralPll.simulate_batch(plls, variant=["nominal"])


def test_lock_times_batch_matches_scalar_lock_time():
    plls = make_population(n=6, unlockable_every=2)
    transient = BehaviouralPll.simulate_batch(plls, max_time=3e-6)
    lock_times = BehaviouralPll.lock_times_batch(plls, transient)
    for index, pll in enumerate(plls):
        scalar = pll.lock_time(pll.simulate(max_time=3e-6))
        assert lock_times[index] == scalar


# -- shared-variation fast path -------------------------------------------------------


def test_shared_variation_tables_use_identical_lane_constants():
    shared = VcoVariationTables.constant(kvco=1.0, ivco=2.5, jvco=20.0, fmin=1.5, fmax=1.5)
    plls = make_population(shared_variation=shared)
    vcos = [pll.vco for pll in plls]
    for variant in VARIANTS:
        lanes = VcoLanes.from_blocks(vcos, variant)
        for index, vco in enumerate(vcos):
            bounds = vco.frequency_bounds(variant)
            assert lanes.gain[index] == vco.gain(variant)
            assert lanes.fmin[index] == bounds["fmin"]
            assert lanes.fmax[index] == bounds["fmax"]
            assert lanes.period_jitter[index] == vco.period_jitter(variant)
            assert lanes.current[index] == vco.current(variant)


def test_describe_lanes_matches_scalar_describe():
    shared = VcoVariationTables.constant()
    for plls in (make_population(shared_variation=shared), make_population()):
        vcos = [pll.vco for pll in plls]
        assert describe_lanes(vcos) == [vco.describe() for vco in vcos]


def test_shared_variation_batch_simulation_still_bit_identical():
    shared = VcoVariationTables.constant()
    plls = make_population(shared_variation=shared)
    batch = BehaviouralPll.simulate_batch(plls, variant="max", max_time=3e-6)
    for index, pll in enumerate(plls):
        scalar = pll.simulate(variant="max", max_time=3e-6)
        assert np.array_equal(batch.frequency[index], scalar.frequency)


# -- lane-parallel block twins (property-based) ---------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    errors=st.lists(
        st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False), min_size=1, max_size=8
    ),
    dead_zone=st.floats(min_value=0.0, max_value=5e-12),
)
def test_pfd_lanes_match_scalar_compare(errors, dead_zone):
    pfd = PhaseFrequencyDetector(dead_zone=dead_zone)
    lanes = PfdLanes.from_blocks([pfd] * len(errors))
    reference_edge = 1e-6
    feedback = np.array([reference_edge + error for error in errors])
    batched = lanes.compare(reference_edge, feedback)
    for index in range(len(errors)):
        scalar = pfd.compare(reference_edge, float(feedback[index]))
        assert batched.timing_error[index] == scalar.timing_error
        assert batched.up_width[index] == scalar.up_width
        assert batched.down_width[index] == scalar.down_width
        assert batched.net_width[index] == scalar.net_width


@settings(max_examples=50, deadline=None)
@given(
    charges=st.lists(
        st.floats(min_value=-1e-12, max_value=1e-12, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
    c2=st.one_of(st.just(0.0), st.floats(min_value=1e-14, max_value=3e-12)),
    voltage=st.floats(min_value=0.0, max_value=1.2),
)
def test_loop_filter_lanes_match_scalar_apply_charge(charges, c2, voltage):
    interval = 2.5e-8
    filters = [LoopFilter(c1=2e-12, c2=c2, r1=2e3) for _ in charges]
    lanes = LoopFilterLanes.from_blocks(filters)
    state = lanes.initialise(np.full(len(charges), voltage))
    new_state = lanes.apply_charge(state, np.asarray(charges), interval)
    output = lanes.output_voltage(new_state)
    for index, loop_filter in enumerate(filters):
        scalar_state = loop_filter.apply_charge(
            loop_filter.initialise(voltage), charges[index], interval
        )
        assert new_state.v_c1[index] == scalar_state.v_c1
        assert new_state.v_c2[index] == scalar_state.v_c2
        assert output[index] == loop_filter.output_voltage(scalar_state)


def test_loop_filter_lanes_mixed_c2_population():
    """Lanes with and without a ripple capacitor advance side by side."""
    filters = [
        LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3),
        LoopFilter(c1=2e-12, c2=0.0, r1=2e3),
        LoopFilter(c1=3e-12, c2=1.0e-12, r1=1e3),
    ]
    lanes = LoopFilterLanes.from_blocks(filters)
    charge = np.array([1e-13, -2e-13, 5e-14])
    state = lanes.apply_charge(lanes.initialise(np.full(3, 0.6)), charge, 2.5e-8)
    for index, loop_filter in enumerate(filters):
        scalar = loop_filter.apply_charge(
            loop_filter.initialise(0.6), float(charge[index]), 2.5e-8
        )
        assert state.v_c1[index] == scalar.v_c1
        assert state.v_c2[index] == scalar.v_c2


def test_charge_pump_lanes_match_scalar():
    pumps = [
        ChargePump(current=100e-6),
        ChargePump(current=80e-6, mismatch=0.04, leakage=1e-9),
        ChargePump(current=120e-6, mismatch=-0.02),
    ]
    lanes = ChargePumpLanes.from_blocks(pumps)
    pfd = PhaseFrequencyDetector()
    period = 2.5e-8
    errors = [3e-9, -1e-9, 0.0]
    batched_error = PfdLanes.from_blocks([pfd] * 3).compare(
        0.0, np.asarray(errors, dtype=float)
    )
    charge = lanes.charge(batched_error, period)
    supply = lanes.supply_current(batched_error, period)
    for index, (pump, error) in enumerate(zip(pumps, errors)):
        scalar_error = pfd.compare(0.0, error)
        assert charge[index] == pump.charge(scalar_error, period)
        assert supply[index] == pump.supply_current(scalar_error, period)


def test_loop_filter_relaxation_hoisting_is_exact():
    """The hoisted decay factor equals the historical per-cycle expression."""
    loop_filter = LoopFilter(c1=2e-12, c2=0.5e-12, r1=2e3)
    interval = 2.5e-8
    decay = loop_filter.relaxation(interval)
    state = loop_filter.initialise(0.6)
    hoisted = loop_filter.apply_charge(state, 1e-13, interval, decay=decay)
    recomputed = loop_filter.apply_charge(state, 1e-13, interval)
    assert hoisted.v_c1 == recomputed.v_c1
    assert hoisted.v_c2 == recomputed.v_c2


def test_scalar_only_variation_callables_fall_back_to_lane_loop():
    """Shared tables whose callables cannot take arrays still work batched.

    A user-supplied spread callable with a data-dependent branch raises on
    array input; the lane engine must fall back to per-lane scalar calls
    instead of crashing, with identical results.
    """
    scalar_only = VcoVariationTables(
        kvco_delta=lambda v: 5.0 if v > 1e9 else 2.0,
        ivco_delta=lambda v: 3.0,
        jvco_delta=lambda v: 25.0 if v > 4e-12 else 10.0,
        fmin_delta=lambda v: 2.0,
        fmax_delta=lambda v: 2.0,
    )
    plls = make_population(shared_variation=scalar_only)
    vcos = [pll.vco for pll in plls]
    for variant in VARIANTS:
        lanes = VcoLanes.from_blocks(vcos, variant)
        for index, vco in enumerate(vcos):
            assert lanes.gain[index] == vco.gain(variant)
            assert lanes.period_jitter[index] == vco.period_jitter(variant)
    assert describe_lanes(vcos) == [vco.describe() for vco in vcos]
    batch = BehaviouralPll.simulate_batch(plls, max_time=3e-6)
    for index, pll in enumerate(plls):
        assert np.array_equal(batch.frequency[index], pll.simulate(max_time=3e-6).frequency)


def test_vco_lanes_frequency_and_divider_lanes_match_scalar():
    """Parity coverage for the lane twins' public tuning/divider methods."""
    from repro.behavioural import DividerLanes

    plls = make_population(n=5)
    vcos = [pll.vco for pll in plls]
    lanes = VcoLanes.from_blocks(vcos, "nominal")
    vctrl = np.array([0.3, 0.6, 0.9, 1.1, 1.4])  # includes out-of-range lanes
    frequencies = lanes.frequency(vctrl)
    for index, vco in enumerate(vcos):
        assert frequencies[index] == vco.frequency(float(vctrl[index]), "nominal")
    dividers = [pll.divider for pll in plls]
    divider_lanes = DividerLanes.from_blocks(dividers)
    periods = 1.0 / frequencies
    out_periods = divider_lanes.output_period(periods)
    out_frequencies = divider_lanes.output_frequency(frequencies)
    for index, divider in enumerate(dividers):
        assert out_periods[index] == divider.output_period(float(periods[index]))
        assert out_frequencies[index] == divider.output_frequency(float(frequencies[index]))
    with pytest.raises(ValueError):
        divider_lanes.output_period(np.zeros(5))
    with pytest.raises(ValueError):
        divider_lanes.output_frequency(np.zeros(5))


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_frequency_vco_matches_lane_path(seed):
    """A variant clamped to 0 Hz has an infinite period on both paths.

    A 150 % spread on ``fmin`` floors the minimum variant's lower tuning
    limit at zero, so the loop starts at 0 Hz: the lane division gives
    ``inf`` and the scalar loop must give the same instead of raising.
    """
    vco = BehaviouralVco(
        kvco=1e9,
        ivco=1e-3,
        jvco=1e-12,
        fmin=1e8,
        fmax=2e9,
        variation=VcoVariationTables.constant(0.0, 0.0, 0.0, 150.0, 0.0),
    )
    pll = BehaviouralPll(vco, PllDesign())
    assert vco.frequency_bounds("min")["fmin"] == 0.0
    scalar = pll.simulate(variant="min", max_time=1e-6, seed=seed)
    with np.errstate(divide="ignore"):
        batch = BehaviouralPll.simulate_batch([pll], variant="min", max_time=1e-6, seed=seed)
        (lane,) = BehaviouralPll.evaluate_batch([pll], variant="min", max_time=1e-6, seed=seed)
    assert scalar.frequency[0] == 0.0
    for name in ("control_voltage", "frequency", "phase_error"):
        assert np.array_equal(getattr(scalar, name), getattr(batch, name)[0]), name
    assert pll.evaluate(variant="min", max_time=1e-6, seed=seed) == lane
