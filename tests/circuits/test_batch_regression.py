"""Regression properties of the analytical kernel, bit for bit.

Random designs (inside and outside the design rules) under random Monte
Carlo batches, for both analytical topologies.  The kernel reads the
batch's model-card and mismatch columns; the scalar oracle
(``tests/circuits/scalar_model.py``) evaluates each materialised sample.
Python's ``x**2`` (C ``pow``) and numpy's ``x*x`` can round differently,
which is the kind of divergence these comparisons catch.  The serial
backend evaluates one row per call, so every row must also equal itself
inside any larger batch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import RingVcoAnalyticalEvaluator, VcoDesign, vco_device_geometries
from repro.circuits.evaluators import VcoEvaluator
from repro.circuits.pseudodiff import (
    PseudoDiffAnalyticalEvaluator,
    PseudoDiffVcoDesign,
    pseudodiff_device_geometries,
)
from repro.process import TECH_012UM, TECH_065NM, MonteCarloEngine

from tests.circuits.scalar_model import monte_carlo_loop, scalar_evaluate

TOPOLOGIES = {
    "ring": (RingVcoAnalyticalEvaluator, VcoDesign, vco_device_geometries),
    "pseudodiff": (
        PseudoDiffAnalyticalEvaluator,
        PseudoDiffVcoDesign,
        pseudodiff_device_geometries,
    ),
}

_WIDTH = st.floats(5e-6, 120e-6)
_LENGTH = st.floats(0.05e-6, 1.2e-6)


def _design(design_cls, draw):
    values = {
        name: draw(_LENGTH if name.endswith("length") else _WIDTH)
        for name in design_cls.parameter_names()
    }
    return design_cls(**values)


@st.composite
def cases(draw):
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    evaluator_cls, design_cls, geometries = TOPOLOGIES[topology]
    technology = draw(st.sampled_from((TECH_012UM, TECH_065NM)))
    evaluator = evaluator_cls(technology, n_stages=draw(st.sampled_from((3, 5, 7))))
    design = _design(design_cls, draw)
    # The geometry list may cover fewer or more stages than the evaluator
    # has: devices the batch lacks carry no mismatch on either path.
    devices = geometries(design, n_stages=draw(st.sampled_from((3, 5, 7))))
    engine = MonteCarloEngine(
        technology,
        n_samples=draw(st.integers(1, 24)),
        seed=draw(st.integers(0, 2**32 - 1)),
        include_global=draw(st.booleans()),
        include_mismatch=draw(st.booleans()),
    )
    return evaluator, design, engine.sample_batch(devices)


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_evaluate_batch_equals_scalar_evaluate_per_sample(case):
    evaluator, design, samples = case
    batch = evaluator.evaluate_batch([design], samples=samples)
    assert len(batch) == len(samples)
    for sample, performance in zip(samples, batch):
        scalar = scalar_evaluate(evaluator, design, sample.technology, sample.mismatch)
        assert performance.as_dict() == scalar.as_dict()
        one_row = evaluator.evaluate(
            design, technology=sample.technology, mismatch=sample.mismatch
        )
        assert one_row.as_dict() == scalar.as_dict()


@settings(max_examples=50, deadline=None)
@given(case=cases())
def test_monte_carlo_adapters_agree(case):
    evaluator, design, samples = case
    batch = evaluator.monte_carlo_batch_evaluator(design)(samples)
    generic = VcoEvaluator.evaluate_batch(evaluator, [design], samples=samples)
    assert batch == [performance.as_dict() for performance in generic]
    assert batch == monte_carlo_loop(evaluator, design, samples)


@settings(max_examples=50, deadline=None)
@given(case=cases(), n_designs=st.integers(2, 6), data=st.data())
def test_one_sample_broadcasts_against_many_designs(case, n_designs, data):
    evaluator, _, samples = case
    sample = samples[:1]
    designs = [_design(evaluator.design_cls, data.draw) for _ in range(n_designs)]
    batch = evaluator.evaluate_batch(designs, samples=sample)
    for design, performance in zip(designs, batch):
        scalar = scalar_evaluate(
            evaluator, design, sample[0].technology, sample[0].mismatch
        )
        assert performance.as_dict() == scalar.as_dict()


@settings(max_examples=100, deadline=None)
@given(case=cases(), n_designs=st.integers(2, 6), data=st.data())
def test_rows_are_independent_of_their_batch(case, n_designs, data):
    """Row i of a batch == the same row evaluated alone, for designs and samples."""
    evaluator, design, samples = case
    designs = [_design(evaluator.design_cls, data.draw) for _ in range(n_designs)]
    technology = samples.technology
    batch = evaluator.evaluate_batch(designs, technology=technology)
    for i, performance in enumerate(batch):
        (alone,) = evaluator.evaluate_batch([designs[i]], technology=technology)
        assert performance.as_dict() == alone.as_dict()
    batch = evaluator.evaluate_batch([design], samples=samples)
    for i, performance in enumerate(batch):
        (alone,) = evaluator.evaluate_batch([design], samples=samples[i : i + 1])
        assert performance.as_dict() == alone.as_dict()


def test_jitter_squares_round_like_the_kernel():
    """Sample 20 of seed 39 rounds ``x**2`` (C ``pow``) and ``x*x`` differently."""
    evaluator = RingVcoAnalyticalEvaluator(TECH_012UM)
    design = VcoDesign()
    samples = MonteCarloEngine(TECH_012UM, n_samples=21, seed=39).sample_batch(
        vco_device_geometries(design)
    )
    sample = samples[20]
    (performance,) = evaluator.evaluate_batch([design], samples=samples[20:])
    scalar = scalar_evaluate(evaluator, design, sample.technology, sample.mismatch)
    assert performance.jitter == scalar.jitter
    one_row = evaluator.evaluate(design, technology=sample.technology, mismatch=sample.mismatch)
    assert one_row.jitter == scalar.jitter
