"""Self-tests of the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import flows
import harness
import layers
import run


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time ----------------------------------------------------------------------------


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 0.5

    wrapped_middle = tracer.wrap("middle", middle)

    def outer():
        clock.now += 3.0
        wrapped_middle()

    tracer.wrap("outer", outer)()

    assert tracer.total_s == {"leaf": 4.0, "middle": 5.5, "outer": 8.5}
    assert tracer.self_s == {"leaf": 4.0, "middle": 1.5, "outer": 3.0}
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.attributed_s() == pytest.approx(8.5)


def test_recursion_into_one_layer_counts_its_time_once():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def recurse(depth):
        clock.now += 1.0
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap("layer", recurse)
    wrapped(2)

    assert tracer.total_s["layer"] == 3.0
    assert tracer.self_s["layer"] == 3.0
    assert tracer.calls["layer"] == 3


def test_self_time_is_recorded_when_the_call_raises():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def fails():
        clock.now += 1.0
        raise ZeroDivisionError("float division by zero")

    with pytest.raises(ZeroDivisionError):
        tracer.wrap("layer", fails)()
    assert tracer.self_s["layer"] == 1.0
    assert tracer._stack == []


def test_patches_resolve_and_are_restored():
    import repro.optim.nsga2 as nsga2
    from repro.process.montecarlo import MonteCarloEngine
    from repro.core.variation_model import VariationModel

    originals = (nsga2.binary_tournament, MonteCarloEngine.__dict__["sample_batch"],
                 VariationModel.__dict__["from_monte_carlo"])
    with layers.installed(layers.Tracer(), layers.PATCHES):
        assert nsga2.binary_tournament is not originals[0]
        assert isinstance(VariationModel.__dict__["from_monte_carlo"], classmethod)
    assert (nsga2.binary_tournament, MonteCarloEngine.__dict__["sample_batch"],
            VariationModel.__dict__["from_monte_carlo"]) == originals


# -- percentiles --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(1, n + 1)]
    tail = harness.tail_percentile(values)
    if expected is None:
        assert tail is None
    else:
        pct, value = tail
        assert pct == expected
        assert sum(v > value for v in values) >= harness.MIN_TAIL_SAMPLES


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert harness.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


# -- failure accounting -------------------------------------------------------------------


def test_tally_counts_errors_and_wrong_outputs():
    tally = harness.Tally()
    tally.ok()
    tally.error("ZeroDivisionError: float division by zero")
    assert tally.correct
    tally.wrong("stage pickles differ")
    tally.error("ZeroDivisionError: float division by zero")
    assert (tally.attempted, tally.failed, tally.correct) == (4, 3, False)
    assert tally.fail_ratio == 0.75
    assert tally.causes["ZeroDivisionError: float division by zero"] == 2


def test_failed_setup_is_one_counted_failure_with_a_result(tmp_path, monkeypatch):
    def no_setup(*args):
        raise RuntimeError("set-up probe failed (exit 1)")

    monkeypatch.setattr(flows, "measure_setup", no_setup)
    measured = flows.run_flows("table2-vec", 0, 1.0, False, harness.Children(), tmp_path)
    tally = measured.tally
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)
    assert list(tally.causes) == ["set-up: RuntimeError: set-up probe failed (exit 1)"]
    values = run.end_to_end_values(measured)
    assert values["setup_s"] == values["op_s_p50"] > 0.0


def test_emit_prints_unlisted_values_but_keeps_them_out_of_the_result(capsys):
    tally = harness.Tally()
    tally.ok()
    spec = [{"name": "setup_s", "unit": "s"}]
    harness.emit(tally, {"setup_s": 0.5, "behavioural.pll.simulate_s": 1.25}, spec)
    lines = capsys.readouterr().out.splitlines()
    assert any("behavioural.pll.simulate_s" in line for line in lines[:-1])
    result = json.loads(lines[-1])
    assert result == {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    with pytest.raises(KeyError):
        harness.emit(tally, {}, spec)


def test_read_line_gives_up_on_a_silent_child():
    children = harness.Children()
    script = "import sys, time; print('READY', flush=True); time.sleep(60)"
    talker = children.popen([sys.executable, "-c", script], stdout=subprocess.PIPE)
    silent = children.popen([sys.executable, "-c", "import time; time.sleep(60)"],
                            stdout=subprocess.PIPE)
    try:
        assert harness.read_line(talker, 30.0) == b"READY\n"
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            harness.read_line(silent, 0.3)
        assert time.monotonic() - started < 5.0
    finally:
        children.stop_all()
    assert talker.poll() is not None and silent.poll() is not None


def test_run_window_retries_until_one_operation_completes():
    def slow(completes):
        def operation(index):
            time.sleep(0.02)
            return completes

        return operation

    assert harness.run_window(0.01, slow(True))[0] == 1
    assert harness.run_window(0.01, slow(False), max_attempts=3)[0] == 3
    assert harness.run_window(0.01, slow(False), max_attempts=3, hard_limit=0.0)[0] == 1


def test_speed_sampler_rescales_without_its_own_time():
    with harness.SpeedSampler() as sampler:
        started = time.perf_counter()
        while time.perf_counter() - started < 3 * harness.PROBE_INTERVAL_S:
            pass
        wall = time.perf_counter() - started
    assert len(sampler.samples) >= 2
    assert 0.0 < sampler.spent < wall
    expected = (wall - sampler.spent) * harness.PROBE_REFERENCE_S / (
        sum(sampler.samples) / len(sampler.samples)
    )
    assert sampler.reference_seconds(wall) == pytest.approx(expected)
    assert harness.SpeedSampler().reference_seconds(1.5) == 1.5  # never sampled


def test_check_verification():
    first = [[1.0, 2.0, 3.0, 4.0, 5.0]]
    recorded = {"measured": [[1.0, 2.0, 3.0, 4.0, 5.0 * (1 + 1e-12)]]}
    assert flows.check_verification(first, None, recorded) is None
    assert flows.check_verification(first, first, recorded) is None
    assert flows.check_verification([[1.0, 2.0, 3.0, 4.0, 5.0 + 1e-12]], first, recorded)
    assert flows.check_verification([[float("nan")] * 5], None, recorded)
    assert flows.check_verification([[1.0, 2.0, 3.0, 4.0, 5.5]], None, recorded)
    # A model seed without a recording cannot pass as checked.
    assert flows.check_verification(first, None, None)


def test_every_verify_spice_model_seed_is_recorded():
    recorded = flows.load_recorded()["verify_spice"]
    for seed in range(2 * flows.VERIFY_MODELS):
        assert str(harness.scenario_seed(seed % flows.VERIFY_MODELS, 0)) in recorded


# -- traced runs write the untraced run's bytes -------------------------------------------


def test_traced_flow_writes_the_untraced_artefacts(tmp_path):
    from repro.experiments.registry import get_scenario

    scenario = get_scenario("fast-smoke").with_overrides(seed=2009, evaluation="vectorised")
    reference = flows.load_recorded()["hv_reference"]
    plain = flows.cold_flow(scenario, tmp_path / "plain", reference)
    tracer = layers.Tracer()
    with layers.installed(tracer, layers.PATCHES):
        traced = flows.cold_flow(scenario, tmp_path / "traced", reference)
    assert set(plain.digests) == set(flows.FLOW_STAGES)
    assert traced.digests == plain.digests
    assert tracer.calls["flow.circuit_stage"] == 1
    assert tracer.calls["mismatch.sample"] > 0


# -- BENCHMARK.json -----------------------------------------------------------------------


def test_benchmark_json_lists_every_layer_its_workloads_enter():
    spec = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["table2-vec", "verify-spice"]
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    # The scalar PLL simulation runs only on the serial backend, which no
    # workload in BENCHMARK.json uses.
    serial_only = {"behavioural.pll.simulate_s", "behavioural.pll.simulate_calls"}
    assert set(layers.LAYER_METRICS) - serial_only <= per_layer
    assert not serial_only & per_layer
    assert {"bench.fail_ratio", "quality.verify_err_max"} <= per_layer
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_s_p50", "peak_rss_mb"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
