"""Mid-stage yield checkpointing: chunked == unchunked, interrupt == resume."""

import pytest

from repro.behavioural.pll import PllDesign
from repro.circuits import vco_device_geometries
from repro.core.yield_analysis import YieldAnalysis
from repro.experiments.cache import CacheEntry
from repro.experiments.runner import ExperimentRunner, _StagePartial
from repro.process import MonteCarloEngine

from tests.circuits.scalar_model import yield_loop
from tests.experiments.test_runner import TINY, assert_bit_identical


class MemoryCheckpoint:
    """In-memory load/store/clear checkpoint with call bookkeeping."""

    def __init__(self):
        self.state = None
        self.stores = 0
        self.cleared = False

    def load(self):
        return self.state

    def store(self, state):
        self.state = {
            "fingerprint": dict(state["fingerprint"]),
            "samples": list(state["samples"]),
        }
        self.stores += 1

    def clear(self):
        self.state = None
        self.cleared = True


class InterruptingCheckpoint(MemoryCheckpoint):
    """Simulates a crash: raises after ``fail_after`` persisted batches."""

    def __init__(self, fail_after):
        super().__init__()
        self.fail_after = fail_after

    def store(self, state):
        super().store(state)
        if self.stores >= self.fail_after:
            raise KeyboardInterrupt("simulated mid-yield crash")


@pytest.fixture()
def selected(combined_model):
    point = combined_model.performance.point(0)
    return {
        "kvco": point["kvco"],
        "ivco": point["current"],
        "c1": 3e-12,
        "c2": 0.6e-12,
        "r1": 2e3,
    }


def analysis(combined_model, analytical_evaluator):
    return YieldAnalysis(
        combined_model,
        evaluator=analytical_evaluator,
        n_samples=23,
        seed=5,
        simulation_time=2e-6,
    )


def expected_samples(whole, combined_model, analytical_evaluator, selected, scalar_reference):
    """The system samples a yield run must reproduce: those of the unchunked
    batch run ``whole`` or, with ``scalar_reference``, those of the per-sample
    scalar oracle loop over the same Monte Carlo draw."""
    if not scalar_reference:
        return whole.system_samples
    engine = MonteCarloEngine(analytical_evaluator.technology, n_samples=23, seed=5)
    vco_design = whole.vco_design
    pll_design = PllDesign(c1=selected["c1"], c2=selected["c2"], r1=selected["r1"])
    return yield_loop(
        analysis(combined_model, analytical_evaluator),
        vco_design,
        pll_design,
        engine.sample_batch(vco_device_geometries(vco_design)),
    )


@pytest.mark.parametrize("scalar_reference", [False, True])
def test_chunked_equals_unchunked(
    combined_model, analytical_evaluator, selected, scalar_reference
):
    """Every sample is independent, so the batch size cannot change results."""
    whole = analysis(combined_model, analytical_evaluator).run(selected)
    chunked = analysis(combined_model, analytical_evaluator).run(selected, batch_size=5)
    assert whole.system_samples == chunked.system_samples  # exact float equality
    assert whole.yield_fraction == chunked.yield_fraction
    assert whole.violations == chunked.violations
    # One sample per batch agrees as well, and all match the reference.
    one_at_a_time = analysis(combined_model, analytical_evaluator).run(selected, batch_size=1)
    assert one_at_a_time.system_samples == whole.system_samples
    expected = expected_samples(
        whole, combined_model, analytical_evaluator, selected, scalar_reference
    )
    assert whole.system_samples == expected
    assert chunked.system_samples == expected


@pytest.mark.parametrize("scalar_reference", [False, True])
def test_interrupted_yield_resumes_bit_identically(
    combined_model, analytical_evaluator, selected, scalar_reference
):
    full = analysis(combined_model, analytical_evaluator).run(selected)

    crashing = InterruptingCheckpoint(fail_after=2)
    with pytest.raises(KeyboardInterrupt):
        analysis(combined_model, analytical_evaluator).run(
            selected, checkpoint=crashing, batch_size=5
        )
    assert len(crashing.state["samples"]) == 10  # two persisted batches of 5

    resumed_checkpoint = MemoryCheckpoint()
    resumed_checkpoint.state = crashing.state
    resumed = analysis(combined_model, analytical_evaluator).run(
        selected, checkpoint=resumed_checkpoint, batch_size=5
    )
    # Bit-identical to the uninterrupted run, and genuinely resumed: only
    # the remaining 13 samples (3 batches, final one not persisted) ran.
    assert resumed.system_samples == full.system_samples
    assert resumed.system_samples == expected_samples(
        full, combined_model, analytical_evaluator, selected, scalar_reference
    )
    assert resumed.yield_fraction == full.yield_fraction
    assert resumed.violations == full.violations
    assert resumed_checkpoint.stores == 2
    assert resumed_checkpoint.cleared


def test_stale_checkpoint_is_discarded(combined_model, analytical_evaluator, selected):
    """A partial written for different settings must not poison the run."""
    full = analysis(combined_model, analytical_evaluator).run(selected)
    stale = MemoryCheckpoint()
    stale.state = {
        "fingerprint": {"n_samples": 999, "seed": 0, "selected": {}},
        "samples": [{"lock_time": 0.0, "jitter": 0.0, "current": 0.0}],
    }
    report = analysis(combined_model, analytical_evaluator).run(
        selected, checkpoint=stale, batch_size=5
    )
    assert report.system_samples == full.system_samples


def test_runner_consumes_and_clears_partial_yield(tmp_path):
    """End to end through the runner: a partial left by an interrupted yield
    stage is resumed from, and the finished run leaves no partial behind."""
    cold = ExperimentRunner(TINY, cache_dir=tmp_path / "a", yield_batch_size=3).run()

    # Build the interrupted state in a second cache: run circuit+system, then
    # crash the yield stage after one persisted batch through the real
    # cache-entry-backed checkpoint.
    from repro.core.flow import HierarchicalFlow
    from repro.experiments.cache import ArtefactCache

    cache_b = tmp_path / "b"
    no_yield = TINY.with_overrides(run_yield=False)
    ExperimentRunner(no_yield, cache_dir=cache_b).run()
    entry = ArtefactCache(cache_b).entry_for(TINY)  # same hash as no_yield
    assert entry.has("circuit") and entry.has("system")

    flow = HierarchicalFlow.from_scenario(TINY)
    circuit = entry.load("circuit")
    system = entry.load("system")

    class CrashingPartial(_StagePartial):
        def __init__(self, entry, stage):
            super().__init__(entry, stage)
            self.stores = 0

        def store(self, state):
            super().store(state)
            self.stores += 1
            if self.stores >= 1:
                raise KeyboardInterrupt("simulated crash")

    with pytest.raises(KeyboardInterrupt):
        flow.verify_yield(
            circuit.model,
            system.selected_values,
            checkpoint=CrashingPartial(entry, "yield"),
            batch_size=3,
        )
    assert entry.load_partial("yield") is not None

    resumed = ExperimentRunner(TINY, cache_dir=cache_b, yield_batch_size=3).run()
    assert resumed.stage_sources["yield"] == "computed"
    assert_bit_identical(cold, resumed)
    assert entry.load_partial("yield") is None


def test_force_discards_a_stale_partial_yield(tmp_path):
    """--force promises a full recompute: a leftover mid-stage partial --
    even one whose fingerprint matches -- must not be resumed from."""
    from repro.experiments.cache import ArtefactCache

    cold = ExperimentRunner(TINY, cache_dir=tmp_path, yield_batch_size=3).run()
    entry = ArtefactCache(tmp_path).entry_for(TINY)
    selected = cold.report.selected_values
    poisoned = {
        "fingerprint": {
            "n_samples": TINY.yield_samples,
            "seed": TINY.seed + 1,
            "selected": {key: float(value) for key, value in sorted(selected.items())},
        },
        "samples": [{"lock_time": 1.0, "jitter": 1.0, "current": 1.0}] * 4,
    }
    entry.store_partial("yield", poisoned)
    forced = ExperimentRunner(TINY, cache_dir=tmp_path, force=True, yield_batch_size=3).run()
    assert forced.stage_sources["yield"] == "computed"
    assert_bit_identical(cold, forced)  # the poisoned samples never surfaced
    assert (
        forced.report.yield_report.system_samples == cold.report.yield_report.system_samples
    )
    assert entry.load_partial("yield") is None


def test_cache_entry_partial_roundtrip(tmp_path):
    entry = CacheEntry(tmp_path / "abc")
    assert entry.load_partial("yield") is None
    entry.store_partial("yield", {"samples": [1, 2]})
    assert entry.load_partial("yield") == {"samples": [1, 2]}
    # Corrupt partials are treated as absent, never raised.
    (entry.directory / "yield.partial.pkl").write_bytes(b"not a pickle")
    assert entry.load_partial("yield") is None
    entry.clear_partial("yield")
    entry.clear_partial("yield")  # idempotent
    with pytest.raises(ValueError):
        entry.store_partial("netlist", {})
