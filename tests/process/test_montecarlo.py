"""Tests for the Monte Carlo engine and statistics helpers."""

import numpy as np
import pytest

from repro.process import (
    MonteCarloEngine,
    PerformanceSpread,
    TECH_012UM,
    parametric_yield,
    process_capability,
    spread_percent,
    summarise_samples,
)
from repro.process.mismatch import DeviceGeometry, MismatchSample


def _evaluator(technology, mismatch):
    """Toy evaluator: performances depend on the varied model parameters."""
    vth = technology.nmos.vth0
    u0 = technology.nmos.u0
    delta = mismatch.for_device("m1").get("vth0", 0.0) if mismatch else 0.0
    return {"speed": u0 / vth, "offset": delta * 1e3, "constant": 42.0}


def _batch_evaluator(samples):
    """The engine's evaluator form: one result dict per sample of a batch."""
    return [_evaluator(sample.technology, sample.mismatch) for sample in samples]


# -- statistics helpers ---------------------------------------------------------------


def test_spread_percent_basic():
    samples = [9.0, 10.0, 11.0]
    assert spread_percent(samples) == pytest.approx(10.0, rel=0.01)


def test_spread_percent_zero_mean_uses_nominal():
    assert spread_percent([-1.0, 1.0], nominal=10.0) == pytest.approx(
        100.0 * np.std([-1.0, 1.0], ddof=1) / 10.0
    )


def test_spread_percent_empty_raises():
    with pytest.raises(ValueError):
        spread_percent([])


def test_performance_spread_properties():
    spread = PerformanceSpread(
        "kvco", nominal=1e9, mean=1.1e9, std=1.1e7, minimum=1e9, maximum=1.2e9, n_samples=100
    )
    assert spread.spread_percent == pytest.approx(1.0)
    assert spread.lower_bound == pytest.approx(1.1e9 - 1.1e7)
    assert spread.upper_bound == pytest.approx(1.1e9 + 1.1e7)


def test_summarise_samples():
    summary = summarise_samples({"a": [1.0, 2.0, 3.0], "b": [5.0, 5.0]}, {"a": 2.0})
    assert summary["a"].mean == pytest.approx(2.0)
    assert summary["a"].nominal == 2.0
    assert summary["b"].std == 0.0
    with pytest.raises(ValueError):
        summarise_samples({"empty": []})


def test_parametric_yield_all_pass():
    samples = {"x": [1.0, 2.0, 3.0]}
    assert parametric_yield(samples, {"x": (0.0, 5.0)}) == 1.0


def test_parametric_yield_partial():
    samples = {"x": [1.0, 2.0, 3.0, 10.0]}
    assert parametric_yield(samples, {"x": (None, 5.0)}) == pytest.approx(0.75)


def test_parametric_yield_multiple_specs_joint():
    samples = {"x": [1.0, 2.0, 3.0], "y": [10.0, 0.0, 10.0]}
    result = parametric_yield(samples, {"x": (None, 2.5), "y": (5.0, None)})
    assert result == pytest.approx(1.0 / 3.0)


def test_parametric_yield_no_specs_is_one():
    assert parametric_yield({"x": [1.0]}, {}) == 1.0


def test_parametric_yield_missing_performance_raises():
    with pytest.raises(KeyError):
        parametric_yield({"x": [1.0]}, {"y": (0.0, 1.0)})


def test_parametric_yield_mismatched_lengths_raises():
    with pytest.raises(ValueError):
        parametric_yield({"x": [1.0, 2.0], "y": [1.0]}, {"x": (0, 5), "y": (0, 5)})


def test_process_capability():
    samples = np.random.default_rng(0).normal(5.0, 0.5, size=400)
    cpk = process_capability(samples, lower=2.0, upper=8.0)
    assert cpk == pytest.approx(2.0, rel=0.15)
    assert process_capability(samples, upper=8.0) > 0.0
    with pytest.raises(ValueError):
        process_capability(samples)
    with pytest.raises(ValueError):
        process_capability([1.0], lower=0.0)


# -- Monte Carlo engine -----------------------------------------------------------------


def test_engine_validation():
    with pytest.raises(ValueError):
        MonteCarloEngine(TECH_012UM, n_samples=0)


def test_engine_reproducible_with_seed():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    engine_a = MonteCarloEngine(TECH_012UM, n_samples=20, seed=3)
    engine_b = MonteCarloEngine(TECH_012UM, n_samples=20, seed=3)
    result_a = engine_a.run(_batch_evaluator, devices=devices)
    result_b = engine_b.run(_batch_evaluator, devices=devices)
    assert np.allclose(result_a.values("speed"), result_b.values("speed"))
    assert np.allclose(result_a.values("offset"), result_b.values("offset"))


def test_engine_different_seeds_differ():
    result_a = MonteCarloEngine(TECH_012UM, n_samples=10, seed=1).run(_batch_evaluator)
    result_b = MonteCarloEngine(TECH_012UM, n_samples=10, seed=2).run(_batch_evaluator)
    assert not np.allclose(result_a.values("speed"), result_b.values("speed"))


def test_engine_produces_requested_sample_count():
    result = MonteCarloEngine(TECH_012UM, n_samples=17, seed=5).run(_batch_evaluator)
    assert result.n_samples == 17
    assert set(result.performance_names) == {"speed", "offset", "constant"}


def test_engine_nominal_computed_when_not_given():
    result = MonteCarloEngine(TECH_012UM, n_samples=5, seed=6).run(_batch_evaluator)
    expected = _evaluator(TECH_012UM, MismatchSample())
    assert result.nominal["speed"] == pytest.approx(expected["speed"])


def test_engine_spreads_and_yield():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    engine = MonteCarloEngine(TECH_012UM, n_samples=200, seed=7)
    result = engine.run(_batch_evaluator, devices=devices)
    spreads = result.spreads()
    assert spreads["speed"].spread_percent > 0.5
    assert spreads["constant"].spread_percent == 0.0
    assert result.spread_percent("constant") == 0.0
    assert result.yield_fraction({"constant": (0.0, 100.0)}) == 1.0
    assert 0.0 < result.yield_fraction({"offset": (0.0, None)}) < 1.0


def test_engine_without_mismatch_devices_has_zero_offset():
    result = MonteCarloEngine(TECH_012UM, n_samples=10, seed=8).run(_batch_evaluator)
    assert np.allclose(result.values("offset"), 0.0)


def test_engine_disable_global_variation():
    engine = MonteCarloEngine(TECH_012UM, n_samples=10, seed=9, include_global=False)
    result = engine.run(_batch_evaluator)
    assert np.allclose(result.values("speed"), result.nominal["speed"])


def test_engine_empty_evaluator_result_raises():
    engine = MonteCarloEngine(TECH_012UM, n_samples=2, seed=10)
    with pytest.raises(ValueError):
        engine.run(lambda samples: [{} for _ in samples])


def test_engine_samples_iterator_is_reproducible():
    engine = MonteCarloEngine(TECH_012UM, n_samples=5, seed=11)
    first = [s.technology.nmos.vth0 for s in engine.samples()]
    second = [s.technology.nmos.vth0 for s in engine.samples()]
    assert first == second
    assert len(first) == 5


# -- batch evaluation path ---------------------------------------------------------------


def _per_sample_loop(engine, devices=()):
    """Oracle: the toy evaluator on each sample the engine streams, one at a time."""
    return [_evaluator(sample.technology, sample.mismatch) for sample in engine.samples(devices)]


def test_run_batch_matches_run_bitwise():
    # ``run_batch`` is kept as a second name of ``run``.
    assert MonteCarloEngine.run_batch is MonteCarloEngine.run
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    engine = MonteCarloEngine(TECH_012UM, n_samples=50, seed=21)
    batch = engine.run_batch(_batch_evaluator, devices=devices)
    assert batch.performances == _per_sample_loop(engine, devices)
    assert batch.nominal == _evaluator(TECH_012UM, MismatchSample())


def test_run_batch_without_devices_matches_run():
    engine = MonteCarloEngine(TECH_012UM, n_samples=12, seed=22)
    batch = engine.run_batch(_batch_evaluator)
    assert batch.performances == _per_sample_loop(engine)


def test_run_batch_honours_given_nominal():
    engine = MonteCarloEngine(TECH_012UM, n_samples=3, seed=23)
    nominal = {"speed": 1.0, "offset": 0.0, "constant": 42.0}
    result = engine.run_batch(_batch_evaluator, nominal=nominal)
    assert result.nominal == nominal


def test_run_batch_rejects_wrong_result_count():
    engine = MonteCarloEngine(TECH_012UM, n_samples=4, seed=24)
    with pytest.raises(ValueError):
        engine.run_batch(lambda samples: [_evaluator(samples[0].technology, samples[0].mismatch)])


def test_run_batch_rejects_empty_results():
    engine = MonteCarloEngine(TECH_012UM, n_samples=2, seed=25)
    with pytest.raises(ValueError):
        engine.run_batch(lambda samples: [{} for _ in samples])


def test_sample_batch_matches_iterator_stream():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6), DeviceGeometry("m2", 20e-6, 0.24e-6)]
    engine = MonteCarloEngine(TECH_012UM, n_samples=8, seed=26)
    batch = engine.sample_batch(devices)
    streamed = list(engine.samples(devices))
    assert len(batch) == len(streamed) == 8
    for a, b in zip(batch, streamed):
        assert a.technology.nmos.vth0 == b.technology.nmos.vth0
        assert a.mismatch.deltas == b.mismatch.deltas
