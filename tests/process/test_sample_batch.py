"""Property tests: a Monte Carlo batch as arrays equals the per-sample construction.

``MonteCarloEngine.sample_batch`` keeps its samples as columns (shifted
model-card parameters, per-device mismatch deltas).  The oracle below is
the per-sample construction the columns replaced: one row of the same
bulk draw matrix at a time, scalar clipping, a dict of per-device deltas
and one shifted model card per sample.  Every materialised value must be
``==`` to the oracle's, and a Python ``float``.
"""

import pickle
from dataclasses import fields
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.process import TECH_012UM, TECH_065NM, MonteCarloEngine
from repro.process.mismatch import DeviceGeometry, MismatchModel, MismatchSample
from repro.process.montecarlo import ProcessSample
from repro.process.variation import GlobalVariationModel, VariationSpec

# -- the per-sample oracle ------------------------------------------------------------


def _oracle_mismatch(model: MismatchModel, devices, row) -> MismatchSample:
    sample = MismatchSample()
    for index, device in enumerate(devices):
        z_vth = float(np.clip(row[2 * index], -model.truncation, model.truncation))
        z_beta = float(np.clip(row[2 * index + 1], -model.truncation, model.truncation))
        sample.deltas[device.name] = {
            "vth0": z_vth * model.sigma_vth(device.width, device.length),
            "u0_rel": z_beta * model.sigma_beta(device.width, device.length),
        }
    return sample


def _oracle_deltas(variation: GlobalVariationModel, technology, row) -> Dict[str, Dict]:
    cursor = 0
    group_draws: Dict[str, float] = {}
    deltas: Dict[str, Dict[str, float]] = {"nmos": {}, "pmos": {}}
    for polarity, spec_list in variation.specs.items():
        model = technology.model(polarity)
        for spec in spec_list:
            if spec.correlation_group is not None:
                if spec.correlation_group not in group_draws:
                    group_draws[spec.correlation_group] = float(row[cursor])
                    cursor += 1
                z = group_draws[spec.correlation_group]
            else:
                z = float(row[cursor])
                cursor += 1
            if spec.truncation > 0.0:
                z = float(np.clip(z, -spec.truncation, spec.truncation))
            nominal = getattr(model, spec.parameter)
            sigma_abs = spec.sigma * abs(nominal) if spec.relative else spec.sigma
            deltas[polarity][spec.parameter] = (
                deltas[polarity].get(spec.parameter, 0.0) + z * sigma_abs
            )
    return deltas


def _oracle_card(model, deltas):
    if not deltas:
        return model
    overrides = {}
    for attribute, delta in deltas.items():
        current = getattr(model, attribute)
        shifted = current + delta
        if attribute in ("tox", "u0", "phi", "n_sub", "e_crit"):
            shifted = max(shifted, 0.05 * current)
        overrides[attribute] = shifted
    return model.with_variation(**overrides)


def oracle_samples(engine: MonteCarloEngine, devices):
    """The per-sample construction: one ``ProcessSample`` per draw-matrix row."""
    rng = np.random.default_rng(engine.seed)
    use_mismatch = engine.include_mismatch and bool(devices)
    k_variation = engine.variation.n_random_variables if engine.include_global else 0
    k_mismatch = 2 * len(devices) if use_mismatch else 0
    width = k_variation + k_mismatch
    draws = (
        rng.standard_normal((engine.n_samples, width))
        if width
        else np.zeros((engine.n_samples, 0))
    )
    samples = []
    for index in range(engine.n_samples):
        row = draws[index]
        technology = engine.technology
        if engine.include_global:
            deltas = _oracle_deltas(engine.variation, technology, row[:k_variation])
            technology = technology.__class__(
                **{
                    **{f.name: getattr(technology, f.name) for f in fields(technology)},
                    "nmos": _oracle_card(technology.nmos, deltas["nmos"]),
                    "pmos": _oracle_card(technology.pmos, deltas["pmos"]),
                }
            )
        if use_mismatch:
            mismatch = _oracle_mismatch(engine.mismatch, devices, row[k_variation:])
        else:
            mismatch = MismatchSample()
        samples.append(ProcessSample(index=index, technology=technology, mismatch=mismatch))
    return samples


def assert_same_sample(sample: ProcessSample, expected: ProcessSample) -> None:
    assert sample.index == expected.index
    for polarity in ("nmos", "pmos"):
        card = sample.technology.model(polarity)
        expected_card = expected.technology.model(polarity)
        for item in fields(card):
            value = getattr(card, item.name)
            assert value == getattr(expected_card, item.name), (polarity, item.name)
            if isinstance(getattr(expected_card, item.name), float):
                assert type(value) is float, (polarity, item.name)
    assert sample.technology == expected.technology
    assert pickle.dumps(sample.technology) == pickle.dumps(expected.technology)
    assert list(sample.mismatch.deltas) == list(expected.mismatch.deltas)
    for name, deltas in expected.mismatch.deltas.items():
        actual = sample.mismatch.for_device(name)
        assert actual == deltas, name
        assert all(type(value) is float for value in actual.values())


# -- strategies -----------------------------------------------------------------------

_NAMES = ("mn0", "mp0", "mtn0", "mtp0", "m1", "m2")
_PARAMETERS = ("vth0", "tox", "u0", "ld", "lambda_", "gamma", "phi", "n_sub", "e_crit")

devices_strategy = st.lists(
    st.builds(
        DeviceGeometry,
        name=st.sampled_from(_NAMES),
        width=st.floats(1e-7, 1e-4),
        length=st.floats(1e-8, 1e-5),
        polarity=st.sampled_from(("nmos", "pmos")),
    ),
    max_size=6,
)
truncation_strategy = st.one_of(st.just(0.0), st.floats(0.1, 5.0))
spec_strategy = st.builds(
    VariationSpec,
    parameter=st.sampled_from(_PARAMETERS),
    # Relative sigmas up to 2 push parameters through the positivity floor.
    sigma=st.floats(0.0, 2.0),
    relative=st.booleans(),
    truncation=truncation_strategy,
    correlation_group=st.sampled_from((None, None, "a", "b")),
)
variation_strategy = st.one_of(
    st.just(GlobalVariationModel()),
    st.builds(
        lambda nmos, pmos: GlobalVariationModel({"nmos": nmos, "pmos": pmos}),
        st.lists(spec_strategy, min_size=1, max_size=5),
        st.lists(spec_strategy, max_size=5),
    ),
)
engine_strategy = st.builds(
    MonteCarloEngine,
    technology=st.sampled_from((TECH_012UM, TECH_065NM)),
    variation=variation_strategy,
    mismatch=st.builds(MismatchModel, truncation=truncation_strategy),
    n_samples=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    include_global=st.booleans(),
    include_mismatch=st.booleans(),
)


# -- properties -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(engine=engine_strategy, devices=devices_strategy)
def test_sample_batch_equals_per_sample_oracle(engine, devices):
    batch = engine.sample_batch(devices)
    expected = oracle_samples(engine, devices)
    assert len(batch) == len(expected) == engine.n_samples
    for sample, reference in zip(batch, expected):
        assert_same_sample(sample, reference)


@settings(max_examples=100, deadline=None)
@given(
    engine=engine_strategy,
    devices=devices_strategy,
    start=st.one_of(st.none(), st.integers(-14, 14)),
    stop=st.one_of(st.none(), st.integers(-14, 14)),
    step=st.one_of(st.none(), st.integers(1, 4), st.integers(-4, -1)),
)
def test_slicing_a_batch_equals_slicing_its_samples(engine, devices, start, stop, step):
    batch = engine.sample_batch(devices)
    key = slice(start, stop, step)
    sliced = batch[key]
    expected = list(batch)[key]
    assert len(sliced) == len(expected)
    for sample, reference in zip(sliced, expected):
        assert_same_sample(sample, reference)


@settings(max_examples=100, deadline=None)
@given(
    devices=devices_strategy,
    truncation=truncation_strategy,
    seed=st.integers(0, 2**32 - 1),
)
def test_mismatch_sample_is_first_row_of_sample_from_draws(devices, truncation, seed):
    model = MismatchModel(truncation=truncation)
    sample = model.sample(devices, np.random.default_rng(seed))
    draws = np.random.default_rng(seed).standard_normal((1, model.draws_per_sample(devices)))
    assert sample == model.sample_from_draws(devices, draws)[0]
    row = np.random.default_rng(seed).standard_normal(model.draws_per_sample(devices))
    assert sample.deltas == _oracle_mismatch(model, devices, row).deltas


@settings(max_examples=100, deadline=None)
@given(
    variation=variation_strategy,
    technology=st.sampled_from((TECH_012UM, TECH_065NM)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_deltas_equal_per_sample_oracle(variation, technology, seed):
    deltas = variation.sample_deltas(technology, np.random.default_rng(seed))
    row = np.random.default_rng(seed).standard_normal(variation.n_random_variables)
    assert deltas == _oracle_deltas(variation, technology, row)
    assert all(type(value) is float for group in deltas.values() for value in group.values())


def test_correlation_groups_share_one_column():
    variation = GlobalVariationModel(
        {
            "nmos": [VariationSpec("tox", 0.01, relative=True, correlation_group="g")],
            "pmos": [
                VariationSpec("vth0", 0.01),
                VariationSpec("tox", 0.01, relative=True, correlation_group="g"),
            ],
        }
    )
    assert variation.n_random_variables == 2
    draws = np.array([[1.0, 2.0], [-0.5, 0.25]])
    deltas = variation.deltas_from_draws(TECH_012UM, draws)
    nmos_sigma = 0.01 * TECH_012UM.nmos.tox
    pmos_sigma = 0.01 * TECH_012UM.pmos.tox
    assert deltas["nmos"]["tox"].tolist() == [1.0 * nmos_sigma, -0.5 * nmos_sigma]
    assert deltas["pmos"]["vth0"].tolist() == [2.0 * 0.01, 0.25 * 0.01]
    assert deltas["pmos"]["tox"].tolist() == [1.0 * pmos_sigma, -0.5 * pmos_sigma]


def test_draw_blocks_of_the_wrong_shape_are_rejected():
    devices = [DeviceGeometry("m1", 10e-6, 0.12e-6)]
    with pytest.raises(ValueError):
        MismatchModel().sample_from_draws(devices, np.zeros(2))
    with pytest.raises(ValueError):
        MismatchModel().sample_from_draws(devices, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        GlobalVariationModel().deltas_from_draws(TECH_012UM, np.zeros((2, 1)))


def test_batch_without_variation_shares_the_nominal_technology():
    engine = MonteCarloEngine(TECH_012UM, n_samples=3, seed=4, include_global=False)
    batch = engine.sample_batch()
    assert batch.cards == {"nmos": {}, "pmos": {}}
    assert all(sample.technology is TECH_012UM for sample in batch)
    assert all(sample.mismatch.deltas == {} for sample in batch)


def test_sub_batches_keep_sample_indices():
    batch = MonteCarloEngine(TECH_012UM, n_samples=10, seed=5).sample_batch()
    assert [sample.index for sample in batch[3:7]] == [3, 4, 5, 6]
    assert [sample.index for sample in batch[3:7][1:]] == [4, 5, 6]
    assert batch[-1].index == 9
    with pytest.raises(IndexError):
        batch[10]
