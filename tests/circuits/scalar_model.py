"""Scalar transcription of the analytical VCO model: the test oracle.

Production evaluates the analytical model only as numpy array math
(:meth:`RingVcoAnalyticalEvaluator.evaluate_batch`; a single evaluation
is a one-row batch).  This module keeps the per-device, per-stage scalar
formulation of the same first-order model, written with Python floats and
the scalar :class:`~repro.spice.mosfet.MOSFET` equations, so the tests can
check the kernel against an independent implementation bit for bit.  It
also holds the per-sample loops the Monte Carlo and yield tests compare
the batch paths against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.behavioural.pll import PllDesign
from repro.circuits.evaluators import _BOLTZMANN, RingVcoAnalyticalEvaluator
from repro.circuits.performance import VcoPerformance
from repro.circuits.pseudodiff import PseudoDiffAnalyticalEvaluator, _keeper_capacitance
from repro.process.mismatch import MismatchSample
from repro.process.technology import Technology
from repro.spice.mosfet import MOSFET

__all__ = ["ScalarVcoModel", "scalar_evaluate", "monte_carlo_loop", "yield_loop"]


class ScalarVcoModel:
    """The analytical model of ``evaluator``, one device and one stage at a time."""

    def __init__(self, evaluator: RingVcoAnalyticalEvaluator) -> None:
        self.evaluator = evaluator
        self.vctrl_min = evaluator.vctrl_min
        self.vctrl_max = evaluator.vctrl_max
        self.n_stages = evaluator.n_stages
        self.frequency_scale = evaluator.frequency_scale
        self.current_scale = evaluator.current_scale
        self.jitter_scale = evaluator.jitter_scale

    # -- device helpers --------------------------------------------------------------

    def _device(
        self,
        name: str,
        polarity: str,
        width: float,
        length: float,
        technology: Technology,
        mismatch: Optional[MismatchSample],
    ) -> MOSFET:
        model = technology.model(polarity)
        if mismatch is not None:
            deltas = mismatch.for_device(name)
            if deltas:
                updates = {}
                if "vth0" in deltas:
                    updates["vth0"] = model.vth0 + deltas["vth0"]
                if "u0_rel" in deltas:
                    updates["u0"] = model.u0 * (1.0 + deltas["u0_rel"])
                model = model.with_variation(**updates)
        return MOSFET(name, "d", "g", "s", "b", model, width, length)

    def _stage_current(
        self,
        stage: int,
        design,
        vctrl: float,
        technology: Technology,
        mismatch: Optional[MismatchSample],
    ) -> float:
        """Starving current of one inverter stage."""
        vdd = technology.vdd
        half = vdd / 2.0
        # NMOS starving transistor sets the discharge current.
        tail_n = self._device(
            f"mtn{stage}", "nmos", design.tail_nmos_width, design.tail_length, technology, mismatch
        )
        i_tail_n = tail_n.drain_current(half, vctrl, 0.0, 0.0)
        # The PMOS starving transistor mirrors the bias branch current.
        tail_p = self._device(
            f"mtp{stage}", "pmos", design.tail_pmos_width, design.tail_length, technology, mismatch
        )
        # Mirror bias: the diode-connected PMOS carries the bias-branch
        # current; assume the mirror output sits near |Vgs| of the diode.
        i_tail_p = abs(tail_p.drain_current(half, half - vdd + half, vdd, vdd))
        # The inverter devices limit the current if they are smaller than the tails.
        inv_n = self._device(
            f"mn{stage}", "nmos", design.nmos_width, design.nmos_length, technology, mismatch
        )
        i_inv_n = inv_n.drain_current(half, vdd, 0.0, 0.0)
        inv_p = self._device(
            f"mp{stage}", "pmos", design.pmos_width, design.pmos_length, technology, mismatch
        )
        i_inv_p = abs(inv_p.drain_current(half, 0.0 - 0.0, vdd, vdd))
        pull_down = min(i_tail_n, i_inv_n)
        pull_up = min(max(i_tail_p, 0.3 * i_tail_n), i_inv_p)
        current = 0.5 * (pull_down + pull_up)
        return max(current, 1e-9)

    def _stage_capacitance(self, design, technology: Technology) -> float:
        nmos = technology.nmos
        pmos = technology.pmos
        gate = nmos.cox * design.nmos_width * design.nmos_length
        gate += pmos.cox * design.pmos_width * design.pmos_length
        overlap = nmos.cgso * design.nmos_width + pmos.cgso * design.pmos_width
        junction = nmos.cj * design.nmos_width * nmos.drain_extension
        junction += pmos.cj * design.pmos_width * pmos.drain_extension
        junction += nmos.cj * design.tail_nmos_width * nmos.drain_extension * 0.5
        junction += pmos.cj * design.tail_pmos_width * pmos.drain_extension * 0.5
        load = gate + overlap + junction + technology.stage_load_capacitance
        if isinstance(self.evaluator, PseudoDiffAnalyticalEvaluator):
            load = load + _keeper_capacitance(design, technology)
        return load

    # -- frequency / current / jitter ---------------------------------------------------

    def _frequency(self, currents: List[float], load: float, technology: Technology) -> float:
        # Each half period charges/discharges the load across ~Vdd/2.
        delays = [load * (technology.vdd / 2.0) / current for current in currents]
        period = 2.0 * sum(delays)
        if period <= 0.0:
            return 0.0
        return self.frequency_scale / period

    def _supply_current(
        self, currents: List[float], load: float, frequency: float, technology: Technology
    ) -> float:
        mean_current = sum(currents) / len(currents)
        c_total = sum(load for _ in currents)
        dynamic = c_total * technology.vdd * frequency
        # During each transition roughly one pull-up and one pull-down path
        # conduct simultaneously for a fraction of the period (crowbar).
        crowbar = 0.8 * mean_current
        bias_branch = mean_current  # the vctrl-to-vbp mirror branch
        return self.current_scale * (dynamic + crowbar + bias_branch)

    def _jitter(self, currents: List[float], load: float, technology: Technology) -> float:
        kT = _BOLTZMANN * technology.temperature
        # Thermal noise: per-edge first-crossing error accumulated over 2N edges.
        sigma_edges = []
        delays = []
        for current in currents:
            sigma_v = math.sqrt(2.0 * kT / load)
            slope = current / load
            sigma_edges.append(sigma_v / slope)
            delays.append(load * (technology.vdd / 2.0) / current)
        thermal = math.sqrt(2.0 * sum(s * s for s in sigma_edges))
        # Mismatch between stages converts into deterministic period error
        # through the spread of the stage delays (one-sigma estimate).
        mean_delay = sum(delays) / len(delays)
        if len(delays) > 1:
            # Squares are written as products: Python's ``x**2`` calls C
            # ``pow``, which can differ from numpy's ``x*x`` in the last bit.
            variance = sum((d - mean_delay) * (d - mean_delay) for d in delays) / (
                len(delays) - 1
            )
            deterministic = math.sqrt(variance)
        else:
            deterministic = 0.0
        return self.jitter_scale * math.sqrt(
            thermal * thermal + deterministic * deterministic
        )

    # -- public API -----------------------------------------------------------------------

    def evaluate(
        self,
        design,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """Evaluate the five performances of one design point analytically."""
        tech = technology or self.evaluator.technology
        design = design.clamped(tech)
        load = self._stage_capacitance(design, tech)
        currents_min, currents_max = [
            [
                self._stage_current(stage, design, vctrl, tech, mismatch)
                for stage in range(self.n_stages)
            ]
            for vctrl in (self.vctrl_min, self.vctrl_max)
        ]
        fmin = self._frequency(currents_min, load, tech)
        fmax = self._frequency(currents_max, load, tech)
        span = self.vctrl_max - self.vctrl_min
        kvco = max(fmax - fmin, 0.0) / span
        current = self._supply_current(currents_max, load, fmax, tech)
        jitter = self._jitter(currents_max, load, tech)
        return self.evaluator._finalise_performance(
            VcoPerformance(kvco=kvco, jitter=jitter, current=current, fmin=fmin, fmax=fmax)
        )


def scalar_evaluate(evaluator, design, technology=None, mismatch=None) -> VcoPerformance:
    """The oracle's performances of ``design`` under ``evaluator``'s settings."""
    return ScalarVcoModel(evaluator).evaluate(design, technology=technology, mismatch=mismatch)


# -- per-sample loops ----------------------------------------------------------------------


def monte_carlo_loop(evaluator, design, samples) -> List[Dict[str, float]]:
    """Monte Carlo one sample at a time: the oracle on every materialised sample."""
    model = ScalarVcoModel(evaluator)
    return [
        model.evaluate(design, technology=sample.technology, mismatch=sample.mismatch).as_dict()
        for sample in samples
    ]


def yield_loop(analysis, vco_design, pll_design: PllDesign, samples) -> List[Dict[str, float]]:
    """Yield one sample at a time: each oracle VCO through its own scalar PLL transient."""
    return [
        analysis._finalise(
            analysis._sample_pll(vco, pll_design).evaluate(max_time=analysis.simulation_time)
        )
        for vco in monte_carlo_loop(analysis.evaluator, vco_design, samples)
    ]
