"""Corner-sweep stage: worst-case selection, flow integration, resume."""

import pickle
from dataclasses import dataclass

import pytest

from repro.circuits.evaluators import VcoEvaluator
from repro.core.corner_sweep import CornerSweepAnalysis, CornerSweepReport
from repro.core.flow import HierarchicalFlow
from repro.experiments.cache import ArtefactCache
from repro.experiments.runner import ExperimentRunner
from repro.process.corners import Corner, CornerSet, corner_set
from repro.process.technology import TECH_012UM

from tests.experiments.test_runner import TINY, assert_bit_identical


@dataclass
class StubPerformance:
    kvco: float
    jitter: float
    current: float
    fmin: float
    fmax: float


@dataclass
class StubDesign:
    index: int

    def as_dict(self):
        return {"index": float(self.index)}


class StubCircuit:
    def __init__(self, designs):
        self.designs = designs


class StubEvaluator(VcoEvaluator):
    """Replays a (corner x design) table of performances in sweep order.

    Only ``evaluate`` is stubbed; the interface's generic ``evaluate_batch``
    loops it, one design after the other.
    """

    def __init__(self, table):
        # table[corner_index][design_index] -> StubPerformance
        self._rows = [performance for per_corner in table for performance in per_corner]
        self._cursor = 0

    def evaluate(self, design, technology=None, mismatch=None):
        performance = self._rows[self._cursor]
        self._cursor += 1
        return performance


def test_worst_case_takes_the_pessimal_value_per_performance():
    corners = CornerSet([Corner("tt"), Corner("ss")])
    # One design: tt is better on jitter/current, ss is better on kvco.
    table = [
        [StubPerformance(kvco=100.0, jitter=1.0, current=2.0, fmin=1.0, fmax=9.0)],
        [StubPerformance(kvco=120.0, jitter=3.0, current=5.0, fmin=2.0, fmax=7.0)],
    ]
    report = CornerSweepAnalysis(
        StubEvaluator(table), TECH_012UM, corners
    ).run(StubCircuit([StubDesign(0)]))
    worst = report.worst_case[0]
    # Smaller is worse for kvco/fmax; larger is worse for jitter/current/fmin.
    assert worst["kvco"] == 100.0 and worst["kvco_corner"] == "tt"
    assert worst["jitter"] == 3.0 and worst["jitter_corner"] == "ss"
    assert worst["current"] == 5.0 and worst["current_corner"] == "ss"
    assert worst["fmin"] == 2.0 and worst["fmin_corner"] == "ss"
    assert worst["fmax"] == 7.0 and worst["fmax_corner"] == "ss"


def test_worst_case_ties_break_deterministically_on_corner_name():
    corners = CornerSet([Corner("tt"), Corner("ss")])
    same = StubPerformance(kvco=100.0, jitter=1.0, current=2.0, fmin=1.0, fmax=9.0)
    report = CornerSweepAnalysis(
        StubEvaluator([[same], [same]]), TECH_012UM, corners
    ).run(StubCircuit([StubDesign(0)]))
    worst = report.worst_case[0]
    # max((value, name)) on equal values picks the lexically larger name,
    # min picks the smaller -- stable regardless of sweep order details.
    assert worst["jitter_corner"] == "tt"
    assert worst["kvco_corner"] == "ss"


def test_worst_case_front_filters_dominated_designs():
    corners = CornerSet([Corner("tt")])
    table = [
        [
            # Design 0 dominates design 1 on every objective.
            StubPerformance(kvco=100.0, jitter=1.0, current=2.0, fmin=1.0, fmax=9.0),
            StubPerformance(kvco=90.0, jitter=2.0, current=3.0, fmin=1.0, fmax=9.0),
            # Design 2 trades kvco for jitter: stays on the front.
            StubPerformance(kvco=120.0, jitter=4.0, current=2.0, fmin=1.0, fmax=9.0),
        ]
    ]
    report = CornerSweepAnalysis(
        StubEvaluator(table), TECH_012UM, corners
    ).run(StubCircuit([StubDesign(i) for i in range(3)]))
    front = report.worst_case_front()
    assert [row["design"] for row in front] == [0, 2]
    assert report.summary() == {
        "n_corners": 1.0,
        "n_designs": 3.0,
        "worst_case_front_size": 2.0,
    }


def test_empty_circuit_front_is_an_error():
    with pytest.raises(ValueError):
        CornerSweepAnalysis(
            StubEvaluator([[]]), TECH_012UM, corner_set("standard")
        ).run(StubCircuit([]))


def test_report_front_lookup():
    corners = CornerSet([Corner("tt")])
    perf = StubPerformance(kvco=1.0, jitter=1.0, current=1.0, fmin=1.0, fmax=1.0)
    report = CornerSweepAnalysis(
        StubEvaluator([[perf]]), TECH_012UM, corners
    ).run(StubCircuit([StubDesign(0)]))
    assert report.front("tt").records[0]["kvco"] == 1.0
    with pytest.raises(KeyError):
        report.front("ff")


# -- through the flow and the runner ------------------------------------------------------

CORNERED = TINY.with_overrides(name="tiny-corners", corners="standard")


def test_flow_corner_stage_sweeps_the_circuit_front():
    flow = HierarchicalFlow.from_scenario(CORNERED)
    circuit = flow.circuit_stage()
    report = flow.corner_stage(circuit, "standard")
    assert isinstance(report, CornerSweepReport)
    assert report.corners == ["tt", "ss", "ff", "sf", "fs"]
    assert report.n_designs == len(circuit.designs)
    assert len(report.worst_case_front()) >= 1
    # Every worst-case value is attributed to a swept corner.
    for row in report.worst_case:
        assert row["jitter_corner"] in report.corners


def test_runner_executes_and_caches_the_corner_stage(tmp_path):
    result = ExperimentRunner(CORNERED, cache_dir=tmp_path).run()
    assert result.stage_sources["corners"] == "computed"
    entry = ArtefactCache(tmp_path).entry_for(CORNERED)
    assert entry.has("corners")
    assert result.report.corner_report is not None
    summary = result.report.summary()
    assert summary["corners_n_corners"] == 5.0
    assert summary["corners_worst_case_front_size"] >= 1.0

    warm = ExperimentRunner(CORNERED, cache_dir=tmp_path).run()
    assert warm.stage_sources["corners"] == "cached"
    assert_bit_identical(result, warm)
    assert pickle.dumps(warm.report.corner_report, protocol=4) == pickle.dumps(
        result.report.corner_report, protocol=4
    )


def test_corner_scenarios_leave_the_circuit_stage_untouched(tmp_path):
    """The corner sweep is a read-only consumer: the circuit artefact of a
    cornered scenario is byte-identical to the plain scenario's."""
    plain = ExperimentRunner(TINY, cache_dir=tmp_path / "plain").run()
    cornered = ExperimentRunner(CORNERED, cache_dir=tmp_path / "corner").run()
    assert plain.config_hash != cornered.config_hash  # corners are hashed
    plain_bytes = pickle.dumps(
        ArtefactCache(tmp_path / "plain").entry_for(TINY).load("circuit"), protocol=4
    )
    corner_bytes = pickle.dumps(
        ArtefactCache(tmp_path / "corner").entry_for(CORNERED).load("circuit"),
        protocol=4,
    )
    assert plain_bytes == corner_bytes
    assert_bit_identical(plain, cornered)


def test_scenario_without_corners_skips_the_stage(tmp_path):
    result = ExperimentRunner(TINY, cache_dir=tmp_path).run()
    assert result.stage_sources.get("corners") in (None, "skipped")
    assert not ArtefactCache(tmp_path).entry_for(TINY).has("corners")
    assert result.report.corner_report is None
