"""The lane Newton iteration against its oracles.

Production evaluates the MOSFET bias and its four finite-difference
probes in one stacked ``drain_current`` pass and adds every diode and
MOSFET stamp with one scatter; :mod:`tests.spice.oracles` keeps the
five-call and four-scatter forms.  Both must agree bit for bit, on
random lane parameters, on ring VCOs with mismatch and on random parser
netlists.  The last property checks the compiled stamps against the
reference engine's on random parser netlists, to a tolerance (the plan
folds the 1e-12 conditioning shunts into the residual, see
:mod:`repro.spice.plan`).
"""

from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.ring_vco import VcoDesign, build_ring_vco
from repro.process.technology import TECH_012UM
from repro.spice import MOSFET, LaneSystem, compile_circuits, parse_netlist
from repro.spice.mna import NewtonSolver
from repro.spice.mosfet import MOSFETArrays
from tests.spice.oracles import FourScatterLaneSystem, five_call_currents_and_derivatives
from tests.spice.test_engines import NETLISTS

# -- random parser netlists ---------------------------------------------------------------

_NODES = ("0", "a", "b", "c", "d")

#: A resistor ring giving every node two connections, so any drawn
#: elements on top make a netlist that passes ``Circuit.validate``.
_SKELETON = "Ra a b 1k\nRb b c 2k\nRc c d 1.5k\nRd d 0 3k\nRe a 0 4k\n"

_MODELS = (
    ".model nch nmos (vto=0.4 lambda=0.1)\n"
    ".model pch pmos (vto=0.45)\n"
    ".model dd d (is=1e-14 n=1.5)\n"
)


@st.composite
def _element_card(draw, index: int, kinds: str = "RCLVIEGDM") -> str:
    kind = draw(st.sampled_from(kinds))
    two = draw(st.lists(st.sampled_from(_NODES), min_size=2, max_size=2, unique=True))
    four = draw(st.lists(st.sampled_from(_NODES), min_size=4, max_size=4))
    value = draw(st.floats(0.1, 10.0))
    nodes = " ".join(two)
    if kind == "R":
        return f"R{index} {nodes} {value:.6g}k"
    if kind == "C":
        return f"C{index} {nodes} {value:.6g}p"
    if kind == "L":
        return f"L{index} {nodes} {value:.6g}n"
    if kind == "V":
        return f"V{index} {nodes} {value / 5:.6g}"
    if kind == "I":
        return f"I{index} {nodes} {value:.6g}u"
    if kind == "E":
        return f"E{index} {nodes} {' '.join(four[:2])} {value:.6g}"
    if kind == "G":
        return f"G{index} {nodes} {' '.join(four[:2])} {value:.6g}m"
    if kind == "D":
        return f"D{index} {nodes} dd"
    model = draw(st.sampled_from(["nch", "pch"]))
    return f"M{index} {' '.join(four)} {model} W={value:.6g}u L=0.24u"


@st.composite
def _netlists(draw, required: str = "") -> str:
    """Random netlists; ``required`` names element kinds drawn once each on top."""
    count = draw(st.integers(1, 6))
    cards = [draw(_element_card(index)) for index in range(count)]
    cards += [draw(_element_card(count + k, kind)) for k, kind in enumerate(required)]
    return _MODELS + _SKELETON + "\n".join(cards) + "\n"


# -- one stacked MOSFET probe pass --------------------------------------------------------

#: Softplus regimes of a drawn device: ratio = vov / n_vt above 40, below -40, between.
STRONG, SUBTHRESHOLD, MODERATE = 0, 1, 2


def _random_arrays(rng: np.random.Generator, n_lanes: int, n_devices: int) -> MOSFETArrays:
    shape = (n_lanes, n_devices)
    phi = rng.uniform(0.6, 1.0, shape)
    return MOSFETArrays(
        polarity=rng.choice([-1, 1], n_devices),
        beta=rng.uniform(1e-5, 1e-2, shape),
        vth0=rng.uniform(0.1, 0.6, shape),
        gamma=rng.uniform(0.0, 0.6, shape),
        phi=phi,
        sqrt_phi=np.sqrt(phi),
        n_vt=rng.uniform(0.03, 0.05, shape),
        theta=rng.uniform(0.0, 5.0, shape),
        lambda_=rng.uniform(0.0, 0.2, shape),
    )


def _terminals(
    arrays: MOSFETArrays,
    rng: np.random.Generator,
    regime: np.ndarray,
    reverse: np.ndarray,
) -> np.ndarray:
    """(4, L, M) drain/gate/source/bulk voltages placing each device in a regime.

    The bias is built in the NMOS-normalised frame of
    :meth:`MOSFETArrays.drain_current` around the terminal that acts as
    the source (the drain when ``reverse``, i.e. ``vds < 0``), then mapped
    to real voltages through the polarity.
    """
    shape = arrays.beta.shape
    v_ref = rng.uniform(-0.5, 0.5, shape)
    vds = rng.uniform(0.01, 1.5, shape)
    vbs = rng.uniform(-1.0, 0.3, shape)
    vth = arrays.vth0 + arrays.gamma * (
        np.sqrt(np.maximum(arrays.phi - vbs, 1e-6)) - arrays.sqrt_phi
    )
    ratio = np.select(
        [regime == STRONG, regime == SUBTHRESHOLD],
        [rng.uniform(41.0, 120.0, shape), rng.uniform(-120.0, -41.0, shape)],
        rng.uniform(-39.0, 39.0, shape),
    )
    v_gate = v_ref + vth + ratio * arrays.n_vt
    v_drain = np.where(reverse, v_ref, v_ref + vds)
    v_source = np.where(reverse, v_ref + vds, v_ref)
    return arrays.polarity * np.stack([v_drain, v_gate, v_source, v_ref + vbs])


def _assert_probe_pass_equals_oracle(arrays: MOSFETArrays, terminals: np.ndarray) -> None:
    stacked = arrays.currents_and_derivatives(terminals)
    oracle = five_call_currents_and_derivatives(arrays, *terminals)
    assert stacked.shape == (5,) + arrays.beta.shape
    for got, want in zip(stacked, oracle):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    n_lanes=st.integers(1, 4),
    n_devices=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_probe_pass_equals_five_calls(n_lanes, n_devices, seed):
    rng = np.random.default_rng(seed)
    arrays = _random_arrays(rng, n_lanes, n_devices)
    shape = (n_lanes, n_devices)
    terminals = _terminals(
        arrays, rng, rng.integers(0, 3, shape), rng.random(shape) < 0.5
    )
    _assert_probe_pass_equals_oracle(arrays, terminals)


def test_probe_pass_covers_every_regime():
    # Every (polarity, direction, softplus regime) combination in one
    # block, checked to really land where it should, at (1, M) and (L, M).
    combos = [
        (polarity, reverse, regime)
        for polarity in (1, -1)
        for reverse in (False, True)
        for regime in (STRONG, SUBTHRESHOLD, MODERATE)
    ]
    polarity, reverse, regime = (np.array(column) for column in zip(*combos))
    for n_lanes in (1, 3):
        rng = np.random.default_rng(n_lanes)
        arrays = _random_arrays(rng, n_lanes, len(combos))
        arrays.polarity = polarity
        shape = (n_lanes, len(combos))
        terminals = _terminals(
            arrays, rng, np.broadcast_to(regime, shape), np.broadcast_to(reverse, shape)
        )
        nvd, nvg, nvs, nvb = polarity * terminals
        assert np.array_equal(nvd < nvs, np.broadcast_to(reverse, shape))
        v_ref = np.where(nvd < nvs, nvd, nvs)
        vth = arrays.vth0 + arrays.gamma * (
            np.sqrt(np.maximum(arrays.phi - (nvb - v_ref), 1e-6)) - arrays.sqrt_phi
        )
        ratio = (nvg - v_ref - vth) / arrays.n_vt
        assert np.all((ratio > 40.0) == (regime == STRONG))
        assert np.all((ratio < -40.0) == (regime == SUBTHRESHOLD))
        _assert_probe_pass_equals_oracle(arrays, terminals)


# -- one scatter per assembly -------------------------------------------------------------


def _ring_circuits(rng: np.random.Generator, n_lanes: int) -> List:
    """Same-topology ring VCOs with per-lane designs, control voltages and mismatch."""
    names = [
        element.name
        for element in build_ring_vco(VcoDesign(), TECH_012UM, vctrl=0.8).elements
        if isinstance(element, MOSFET)
    ]
    circuits = []
    for _ in range(n_lanes):
        design = VcoDesign(
            nmos_width=float(rng.uniform(10e-6, 40e-6)),
            pmos_width=float(rng.uniform(20e-6, 80e-6)),
        )
        overrides = {
            name: {"vth0": float(rng.normal(0.0, 0.01)), "u0_rel": float(rng.normal(0.0, 0.02))}
            for name in names
        }
        circuits.append(
            build_ring_vco(
                design,
                TECH_012UM,
                vctrl=float(rng.uniform(0.5, 1.2)),
                device_overrides=overrides,
            )
        )
    return circuits


def _assert_assembly_equals_oracle(circuits, rng: np.random.Generator) -> None:
    plan = compile_circuits(circuits)
    L, n, P = plan.n_lanes, plan.n_unknowns, plan.pad_size

    def padded() -> np.ndarray:
        # Random node voltages and branch currents; the ground pad stays 0.
        x = np.zeros((L, P))
        x[:, :n] = rng.uniform(-0.2, 1.4, (L, n))
        return x

    system, oracle = LaneSystem(plan), FourScatterLaneSystem(plan)
    x_prev = padded()
    cap_i_prev = rng.uniform(-1e-4, 1e-4, (L, plan.n_caps))
    begins = [
        ("begin_dc", dict(gmin=1e-12)),
        ("begin_dc", dict(gmin=1e-4, source_scale=0.3)),
    ] + [
        (
            "begin_tran",
            dict(
                time=rng.uniform(0.0, 10e-9, L),
                dt=rng.uniform(1e-12, 1e-10, L),
                x_prev=x_prev,
                integrator=integrator,
                cap_i_prev=cap_i_prev,
                gmin=1e-12,
            ),
        )
        for integrator in ("be", "trap")
    ]
    for begin, kwargs in begins:
        getattr(system, begin)(**kwargs)
        getattr(oracle, begin)(**kwargs)
        for _ in range(3):
            x = padded()
            res, jac = system.assemble(x)
            want_res, want_jac = oracle.assemble(x)
            assert np.array_equal(res[:, :n], want_res[:, :n]), begin
            assert np.array_equal(jac[:, :n, :n], want_jac[:, :n, :n]), begin


@settings(max_examples=15, deadline=None)
@given(n_lanes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_ring_vco_assembly_equals_four_scatters(n_lanes, seed):
    rng = np.random.default_rng(seed)
    _assert_assembly_equals_oracle(_ring_circuits(rng, n_lanes), rng)


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(sorted(NETLISTS)),
    n_lanes=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_netlist_assembly_equals_four_scatters(name, n_lanes, seed):
    # Includes the diode clamp, the current source (vccs_rc) and the
    # inductor (rlc_tank) paths of begin_dc / begin_tran.
    circuits = [parse_netlist(NETLISTS[name]) for _ in range(n_lanes)]
    _assert_assembly_equals_oracle(circuits, np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(
    netlist=_netlists(required="DMDM"),
    n_lanes=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_netlist_assembly_equals_four_scatters(netlist, n_lanes, seed):
    # Diodes and MOSFETs sharing nodes: the single scatter must keep the
    # diode-then-MOSFET order of additions into every shared entry.
    circuits = [parse_netlist(netlist) for _ in range(n_lanes)]
    _assert_assembly_equals_oracle(circuits, np.random.default_rng(seed))


# -- plan stamps against the reference engine ---------------------------------------------

def _assert_stamps_close(got: np.ndarray, want: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9 * scale)


@settings(max_examples=60, deadline=None)
@given(netlist=_netlists(), seed=st.integers(0, 2**32 - 1))
def test_plan_stamps_match_reference_engine(netlist, seed):
    circuit = parse_netlist(netlist)
    n = circuit.n_unknowns
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 1.2, n)
    x_prev = rng.uniform(-0.5, 1.2, n)
    time, dt = 3e-9, 5e-11
    system = LaneSystem(compile_circuits([circuit]))
    solver = NewtonSolver(circuit)

    def pad(values: np.ndarray) -> np.ndarray:
        return np.append(values, 0.0)[None, :]

    for analysis in ("dc", "tran"):
        if analysis == "dc":
            system.begin_dc(gmin=solver.options.gmin)
            reference = solver.assemble(x, analysis="dc")
        else:
            system.begin_tran(
                time=np.array([time]),
                dt=np.array([dt]),
                x_prev=pad(x_prev),
                integrator="be",
                cap_i_prev=None,
                gmin=solver.options.gmin,
            )
            reference = solver.assemble(
                x, analysis="tran", time=time, dt=dt, x_prev=x_prev, integrator="be", state={}
            )
        res, jac = system.assemble(pad(x))
        _assert_stamps_close(res[0, :n], reference.residual)
        _assert_stamps_close(jac[0, :n, :n], reference.jacobian)
