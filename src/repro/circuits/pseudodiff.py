"""Pseudo-differential multi-phase VCO (the second registered topology).

Two identical current-starved rings (``a`` and ``b``) share one bias
mirror and are locked in anti-phase by a weak cross-coupled keeper
inverter pair between every output pair ``(a_j, b_j)``: the keeper from
``b_j`` drives ``a_j`` and vice versa, so the latch forces the two rings
180 degrees apart and the oscillator provides ``2 N`` evenly spaced
phases instead of ``N``.  This is the classic pseudo-differential
multi-phase arrangement (cf. ordec's ``vco_pseudodiff`` demo) and the
first non-ring demonstrator of the hierarchical flow: everything above
the :mod:`repro.circuits.topology` seam -- model build, system NSGA-II,
yield analysis, bottom-up SPICE verification -- runs unchanged.

The design space is the ring's seven parameters plus ``cross_width``,
the keeper NMOS width (the keeper PMOS is twice as wide, the usual 2:1
mobility ratio).  Ring ``a`` reuses the ring topology's device names
(``mn0`` ...), so the analytical stage-bias model and the mismatch
machinery apply verbatim to one ring; the ``b`` ring and the keepers get
suffixed names and their own mismatch geometries for the transistor-level
Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.circuits.evaluators import (
    RingVcoAnalyticalEvaluator,
    RingVcoSpiceEvaluator,
)
from repro.circuits.performance import VcoPerformance
from repro.circuits.testbench import VcoTestbench
from repro.optim.problem import Parameter
from repro.process.mismatch import DeviceGeometry
from repro.process.technology import TECH_012UM, Technology
from repro.spice.elements import Capacitor, VoltageSource
from repro.spice.mosfet import MOSFET
from repro.spice.netlist import Circuit

__all__ = [
    "PseudoDiffVcoDesign",
    "build_pseudodiff_vco",
    "pseudodiff_device_geometries",
    "PseudoDiffAnalyticalEvaluator",
    "PseudoDiffSpiceEvaluator",
    "PseudoDiffTestbench",
]

_SQRT2 = math.sqrt(2.0)

#: Keeper channel-length multiplier.  The keepers must be weak enough not
#: to pin the starved rings at the low end of the control-voltage window
#: (a full-strength latch wins against the starving current and kills the
#: oscillation); stretching their channels 4x keeps the latch action while
#: restoring oscillation across the whole vctrl window.
_KEEPER_LENGTH_FACTOR = 4.0


@dataclass(frozen=True)
class PseudoDiffVcoDesign:
    """Designable parameters of the pseudo-differential VCO (metres).

    The first seven mirror :class:`~repro.circuits.ring_vco.VcoDesign`
    (both rings are sized identically); ``cross_width`` sizes the
    cross-coupled keeper inverters that lock the rings in anti-phase.
    """

    nmos_width: float = 30e-6
    nmos_length: float = 0.24e-6
    pmos_width: float = 60e-6
    pmos_length: float = 0.24e-6
    tail_nmos_width: float = 40e-6
    tail_pmos_width: float = 80e-6
    tail_length: float = 0.24e-6
    cross_width: float = 12e-6

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if value <= 0.0:
                raise ValueError(
                    f"pseudo-differential VCO design parameter {item.name!r} must be positive"
                )

    # -- conversions ----------------------------------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """Parameter name -> value mapping (metres)."""
        return {item.name: float(getattr(self, item.name)) for item in fields(self)}

    @classmethod
    def from_dict(cls, values: Dict[str, float]) -> "PseudoDiffVcoDesign":
        """Build a design point from a name -> value mapping."""
        names = {item.name for item in fields(cls)}
        unknown = set(values) - names
        if unknown:
            raise KeyError(
                f"unknown pseudo-differential VCO design parameter(s): {sorted(unknown)}"
            )
        return cls(**{name: float(values[name]) for name in names if name in values})

    @classmethod
    def parameter_names(cls) -> List[str]:
        """The designable parameter names, in declaration order."""
        return [item.name for item in fields(cls)]

    @classmethod
    def optimisation_parameters(cls, technology: Technology = TECH_012UM) -> List[Parameter]:
        """Designable parameters with the technology's design-rule bounds."""
        w_lo, w_hi = technology.min_width, technology.max_width
        l_lo, l_hi = technology.min_length, technology.max_length
        bounds = {
            "nmos_width": (w_lo, w_hi),
            "nmos_length": (l_lo, l_hi),
            "pmos_width": (w_lo, w_hi),
            "pmos_length": (l_lo, l_hi),
            "tail_nmos_width": (w_lo, w_hi),
            "tail_pmos_width": (w_lo, w_hi),
            "tail_length": (l_lo, l_hi),
            "cross_width": (w_lo, w_hi),
        }
        return [
            Parameter(name, lower, upper, unit="m") for name, (lower, upper) in bounds.items()
        ]

    def clamped(self, technology: Technology = TECH_012UM) -> "PseudoDiffVcoDesign":
        """Return a copy with every parameter clamped into the design rules."""
        values = self.as_dict()
        for name in (
            "nmos_width",
            "pmos_width",
            "tail_nmos_width",
            "tail_pmos_width",
            "cross_width",
        ):
            values[name] = technology.clamp_width(values[name])
        for name in ("nmos_length", "pmos_length", "tail_length"):
            values[name] = technology.clamp_length(values[name])
        return PseudoDiffVcoDesign.from_dict(values)


def pseudodiff_device_geometries(
    design: PseudoDiffVcoDesign, n_stages: int = 5
) -> List[DeviceGeometry]:
    """Geometries of every matched transistor (for the mismatch model).

    Ring ``a`` keeps the ring topology's device names so the analytical
    evaluator's per-stage mismatch lookups apply unchanged; ring ``b``
    and the keepers use suffixed names matching
    :func:`build_pseudodiff_vco`.
    """
    geometries: List[DeviceGeometry] = []
    for stage in range(n_stages):
        geometries.extend(
            [
                DeviceGeometry(f"mp{stage}", design.pmos_width, design.pmos_length, "pmos"),
                DeviceGeometry(f"mn{stage}", design.nmos_width, design.nmos_length, "nmos"),
                DeviceGeometry(
                    f"mtp{stage}", design.tail_pmos_width, design.tail_length, "pmos"
                ),
                DeviceGeometry(
                    f"mtn{stage}", design.tail_nmos_width, design.tail_length, "nmos"
                ),
                DeviceGeometry(f"mpb{stage}", design.pmos_width, design.pmos_length, "pmos"),
                DeviceGeometry(f"mnb{stage}", design.nmos_width, design.nmos_length, "nmos"),
                DeviceGeometry(
                    f"mtpb{stage}", design.tail_pmos_width, design.tail_length, "pmos"
                ),
                DeviceGeometry(
                    f"mtnb{stage}", design.tail_nmos_width, design.tail_length, "nmos"
                ),
                DeviceGeometry(
                    f"mkpa{stage}",
                    2.0 * design.cross_width,
                    _KEEPER_LENGTH_FACTOR * design.pmos_length,
                    "pmos",
                ),
                DeviceGeometry(
                    f"mkna{stage}",
                    design.cross_width,
                    _KEEPER_LENGTH_FACTOR * design.nmos_length,
                    "nmos",
                ),
                DeviceGeometry(
                    f"mkpb{stage}",
                    2.0 * design.cross_width,
                    _KEEPER_LENGTH_FACTOR * design.pmos_length,
                    "pmos",
                ),
                DeviceGeometry(
                    f"mknb{stage}",
                    design.cross_width,
                    _KEEPER_LENGTH_FACTOR * design.nmos_length,
                    "nmos",
                ),
            ]
        )
    geometries.append(DeviceGeometry("mbn", design.tail_nmos_width, design.tail_length, "nmos"))
    geometries.append(DeviceGeometry("mbp", design.tail_pmos_width, design.tail_length, "pmos"))
    return geometries


def build_pseudodiff_vco(
    design: PseudoDiffVcoDesign,
    technology: Technology = TECH_012UM,
    vctrl: float = 0.8,
    n_stages: int = 5,
    extra_load: float | None = None,
    device_overrides: Dict[str, Dict[str, float]] | None = None,
) -> Circuit:
    """Transistor-level netlist of the pseudo-differential multi-phase VCO.

    Two ``n_stages``-stage current-starved rings with outputs ``a0..`` and
    ``b0..`` share one bias mirror; a weak cross-coupled inverter pair per
    stage latches ``a_j`` and ``b_j`` in anti-phase, yielding ``2 n_stages``
    phases.
    """
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError(
            "a pseudo-differential ring pair needs an odd number of stages >= 3 per ring"
        )
    overrides = device_overrides or {}
    load = technology.stage_load_capacitance if extra_load is None else float(extra_load)

    def model_for(device_name: str, polarity: str):
        base = technology.model(polarity)
        deltas = overrides.get(device_name)
        if not deltas:
            return base
        updates = {}
        for key, delta in deltas.items():
            if key == "u0_rel":
                updates["u0"] = base.u0 * (1.0 + delta)
            elif hasattr(base, key):
                updates[key] = getattr(base, key) + delta
        return base.with_variation(**updates) if updates else base

    circuit = Circuit(f"pseudodiff_vco_{n_stages}stage")
    circuit.add(VoltageSource("vdd", "vdd", "0", technology.vdd))
    circuit.add(VoltageSource("vc", "vctrl", "0", vctrl))
    # Shared bias mirror (identical to the single ring).
    circuit.add(
        MOSFET(
            "mbn",
            "vbp",
            "vctrl",
            "0",
            "0",
            model_for("mbn", "nmos"),
            design.tail_nmos_width,
            design.tail_length,
        )
    )
    circuit.add(
        MOSFET(
            "mbp",
            "vbp",
            "vbp",
            "vdd",
            "vdd",
            model_for("mbp", "pmos"),
            design.tail_pmos_width,
            design.tail_length,
        )
    )

    def add_ring(prefix: str, suffix: str) -> None:
        for stage in range(n_stages):
            node_in = f"{prefix}{stage}"
            node_out = f"{prefix}{(stage + 1) % n_stages}"
            node_top = f"sp{suffix}{stage}"
            node_bot = f"sn{suffix}{stage}"
            circuit.add(
                MOSFET(
                    f"mtp{suffix}{stage}",
                    node_top,
                    "vbp",
                    "vdd",
                    "vdd",
                    model_for(f"mtp{suffix}{stage}", "pmos"),
                    design.tail_pmos_width,
                    design.tail_length,
                )
            )
            circuit.add(
                MOSFET(
                    f"mp{suffix}{stage}",
                    node_out,
                    node_in,
                    node_top,
                    "vdd",
                    model_for(f"mp{suffix}{stage}", "pmos"),
                    design.pmos_width,
                    design.pmos_length,
                )
            )
            circuit.add(
                MOSFET(
                    f"mn{suffix}{stage}",
                    node_out,
                    node_in,
                    node_bot,
                    "0",
                    model_for(f"mn{suffix}{stage}", "nmos"),
                    design.nmos_width,
                    design.nmos_length,
                )
            )
            circuit.add(
                MOSFET(
                    f"mtn{suffix}{stage}",
                    node_bot,
                    "vctrl",
                    "0",
                    "0",
                    model_for(f"mtn{suffix}{stage}", "nmos"),
                    design.tail_nmos_width,
                    design.tail_length,
                )
            )
            circuit.add(Capacitor(f"cl{suffix or 'a'}{stage}", node_out, "0", load))

    # Ring "a" keeps the plain ring device names (mn0, mtp0, ...); ring "b"
    # is suffixed.  This mirrors the mismatch geometry naming above.
    add_ring("a", "")
    add_ring("b", "b")

    # Cross-coupled keeper inverters: b_j drives a_j and a_j drives b_j,
    # latching the rings in anti-phase.
    for stage in range(n_stages):
        node_a = f"a{stage}"
        node_b = f"b{stage}"
        circuit.add(
            MOSFET(
                f"mkpa{stage}",
                node_a,
                node_b,
                "vdd",
                "vdd",
                model_for(f"mkpa{stage}", "pmos"),
                2.0 * design.cross_width,
                _KEEPER_LENGTH_FACTOR * design.pmos_length,
            )
        )
        circuit.add(
            MOSFET(
                f"mkna{stage}",
                node_a,
                node_b,
                "0",
                "0",
                model_for(f"mkna{stage}", "nmos"),
                design.cross_width,
                _KEEPER_LENGTH_FACTOR * design.nmos_length,
            )
        )
        circuit.add(
            MOSFET(
                f"mkpb{stage}",
                node_b,
                node_a,
                "vdd",
                "vdd",
                model_for(f"mkpb{stage}", "pmos"),
                2.0 * design.cross_width,
                _KEEPER_LENGTH_FACTOR * design.pmos_length,
            )
        )
        circuit.add(
            MOSFET(
                f"mknb{stage}",
                node_b,
                node_a,
                "0",
                "0",
                model_for(f"mknb{stage}", "nmos"),
                design.cross_width,
                _KEEPER_LENGTH_FACTOR * design.nmos_length,
            )
        )
    return circuit


class PseudoDiffTestbench(VcoTestbench):
    """MNA test bench of the pseudo-differential VCO.

    Reuses the ring bench's measurement loop through the ``_build_circuit``
    /``measure_node`` seam; the kick seeds the two rings with complementary
    initial conditions so the anti-phase latch settles immediately.
    """

    measure_node = "a0"

    def _build_circuit(
        self,
        design: PseudoDiffVcoDesign,
        technology: Technology,
        vctrl: float,
        device_overrides: Optional[Dict[str, Dict[str, float]]] = None,
    ) -> Circuit:
        return build_pseudodiff_vco(
            design,
            technology,
            vctrl=vctrl,
            n_stages=self.n_stages,
            device_overrides=device_overrides,
        )

    def _kick_conditions(self, vdd: float) -> Dict[str, float]:
        # Complementary kicks: ring "b" starts as the inverse of ring "a",
        # matching the anti-phase operating point of the keeper latch.
        initial: Dict[str, float] = {}
        for stage in range(self.n_stages):
            high = vdd if stage % 2 == 0 else 0.0
            initial[f"a{stage}"] = high
            initial[f"b{stage}"] = vdd - high
        initial[f"a{self.n_stages - 1}"] = vdd / 2.0
        initial[f"b{self.n_stages - 1}"] = vdd / 2.0
        return initial

    def _stage_capacitance(
        self, design: PseudoDiffVcoDesign, technology: Optional[Technology] = None
    ) -> float:
        tech = technology or self.technology
        base = super()._stage_capacitance(design, tech)
        return base + _keeper_capacitance(design, tech)

    def estimate_jitter(
        self,
        design: PseudoDiffVcoDesign,
        frequency: float,
        supply_current: float,
        technology: Optional[Technology] = None,
    ) -> float:
        # The measured supply current feeds both rings; each edge is driven
        # by one ring's share, and averaging the differential pair divides
        # the period jitter by sqrt(2).
        single = super().estimate_jitter(
            design, frequency, supply_current / 2.0, technology=technology
        )
        if not math.isfinite(single):
            return single
        return single / _SQRT2


def _keeper_capacitance(design: PseudoDiffVcoDesign, technology: Technology) -> float:
    """Gate + junction load one keeper inverter pair adds to a stage output."""
    nmos = technology.nmos
    pmos = technology.pmos
    keeper = nmos.cox * design.cross_width * (_KEEPER_LENGTH_FACTOR * design.nmos_length)
    keeper += pmos.cox * (2.0 * design.cross_width) * (
        _KEEPER_LENGTH_FACTOR * design.pmos_length
    )
    keeper += nmos.cj * design.cross_width * nmos.drain_extension
    keeper += pmos.cj * (2.0 * design.cross_width) * pmos.drain_extension
    return keeper


class PseudoDiffAnalyticalEvaluator(RingVcoAnalyticalEvaluator):
    """First-order performance model of the pseudo-differential VCO.

    One ring's stage-bias model applies verbatim (ring ``a`` reuses the
    ring device names); the keeper loading enters through the stage
    capacitance, and :meth:`_finalise_performance` applies the
    pseudo-differential corrections -- both rings draw supply current,
    and averaging the anti-phase pair improves jitter by ``sqrt(2)``.
    """

    topology_name = "pseudodiff-vco"
    design_cls = PseudoDiffVcoDesign
    _WIDTH_PARAMS = (
        "nmos_width",
        "pmos_width",
        "tail_nmos_width",
        "tail_pmos_width",
        "cross_width",
    )

    def _batch_stage_capacitance(self, params, nmos, pmos, technology: Technology):
        # The ring's stage load plus one keeper pair, in the operation
        # order of :func:`_keeper_capacitance`.
        from repro.spice.mosfet import _EPS_OX

        base = super()._batch_stage_capacitance(params, nmos, pmos, technology)
        cox_n = _EPS_OX / nmos["tox"]
        cox_p = _EPS_OX / pmos["tox"]
        keeper = cox_n * params["cross_width"] * (
            _KEEPER_LENGTH_FACTOR * params["nmos_length"]
        )
        keeper = keeper + cox_p * (2.0 * params["cross_width"]) * (
            _KEEPER_LENGTH_FACTOR * params["pmos_length"]
        )
        keeper = keeper + nmos["cj"] * params["cross_width"] * nmos["drain_extension"]
        keeper = keeper + pmos["cj"] * (2.0 * params["cross_width"]) * pmos["drain_extension"]
        return base + keeper

    def _finalise_performance(self, performance: VcoPerformance) -> VcoPerformance:
        return VcoPerformance(
            kvco=performance.kvco,
            jitter=performance.jitter / _SQRT2,
            current=performance.current * 2.0,
            fmin=performance.fmin,
            fmax=performance.fmax,
        )


class PseudoDiffSpiceEvaluator(RingVcoSpiceEvaluator):
    """Transistor-level evaluator of the pseudo-differential VCO."""

    topology_name = "pseudodiff-vco"
    design_cls = PseudoDiffVcoDesign
    testbench_cls = PseudoDiffTestbench
