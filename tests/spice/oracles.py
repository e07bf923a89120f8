"""Test oracles for the lane SPICE engine's Newton iteration.

These are the straightforward forms of two hot loops of
:mod:`repro.spice.plan`, kept here so the production versions can be
pinned to them bit for bit:

* :func:`five_call_currents_and_derivatives` evaluates the MOSFET drain
  current once at the bias and once per ``+1e-6`` terminal probe (five
  :meth:`~repro.spice.mosfet.MOSFETArrays.drain_current` calls);
* :class:`FourScatterLaneSystem` assembles the residual and the Jacobian
  in separate buffers, with one ``np.add.at`` per element group and
  target (diode and MOSFET, each into the residual and the Jacobian), and
  keeps every stamp that lands on the ground pad.

Both run the same IEEE operations on the same operands, in the same order
per target entry, as production; only the number of numpy calls differs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.spice.mosfet import MOSFETArrays
from repro.spice.plan import CircuitPlan


def five_call_currents_and_derivatives(
    arrays: MOSFETArrays, vd: np.ndarray, vg: np.ndarray, vs: np.ndarray, vb: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Drain currents plus the four finite-difference derivatives, one call each."""
    delta = 1e-6
    ids = arrays.drain_current(vd, vg, vs, vb)
    did_dvd = (arrays.drain_current(vd + delta, vg, vs, vb) - ids) / delta
    did_dvg = (arrays.drain_current(vd, vg + delta, vs, vb) - ids) / delta
    did_dvs = (arrays.drain_current(vd, vg, vs + delta, vb) - ids) / delta
    did_dvb = (arrays.drain_current(vd, vg, vs, vb + delta) - ids) / delta
    return ids, did_dvd, did_dvg, did_dvs, did_dvb


class FourScatterLaneSystem:
    """Lane assembly with separate residual/Jacobian buffers and per-group scatters."""

    def __init__(self, plan: CircuitPlan) -> None:
        self.plan = plan
        L, P = plan.n_lanes, plan.pad_size
        self.a_step = np.zeros((L, P, P))
        self.b_step = np.zeros((L, P))
        self.jacobian = np.zeros((L, P, P))
        self.residual = np.zeros((L, P))
        self._lane = np.arange(L)[:, None]
        self._node_diag = np.arange(plan.n_nodes)
        a, b = plan.cap_a, plan.cap_b
        self.cap_jac_idx = np.concatenate([a * P + a, b * P + b, a * P + b, b * P + a])
        self.cap_res_rows = np.concatenate([a, b])
        self.is_res_rows = np.concatenate([plan.is_a, plan.is_b])
        a, b = plan.d_a, plan.d_b
        self.d_jac_idx = np.concatenate([a * P + a, b * P + b, a * P + b, b * P + a])
        self.d_res_rows = np.concatenate([a, b])
        nd, ng, ns, nb = plan.mos_terminals
        self.mos_jac_idx = np.concatenate(
            [
                nd * P + nd, nd * P + ng, nd * P + ns, nd * P + nb,
                ns * P + nd, ns * P + ng, ns * P + ns, ns * P + nb,
            ]
        )
        self.mos_res_rows = np.concatenate([nd, ns])

    def _begin(self, gmin: float) -> None:
        self.a_step[:] = self.plan.a_static
        if gmin > 0.0:
            self.a_step[:, self._node_diag, self._node_diag] += gmin
        self.b_step[:] = 0.0

    def begin_dc(self, gmin: float, source_scale: float = 1.0) -> None:
        plan = self.plan
        self._begin(gmin)
        if plan.n_vsources:
            self.b_step[:, plan.vs_k] -= source_scale * plan.vs_table.dc_values
        if plan.n_isources:
            values = source_scale * plan.is_table.dc_values
            np.add.at(
                self.b_step,
                (self._lane, self.is_res_rows),
                np.concatenate([values, -values], axis=1),
            )

    def begin_tran(
        self,
        time: np.ndarray,
        dt: np.ndarray,
        x_prev: np.ndarray,
        integrator: str,
        cap_i_prev: Optional[np.ndarray],
        gmin: float,
        source_scale: float = 1.0,
    ) -> None:
        plan = self.plan
        self._begin(gmin)
        dt_col = dt[:, None]
        if plan.n_caps:
            factor = 2.0 if integrator == "trap" else 1.0
            geq = factor * plan.cap_c / dt_col
            np.add.at(
                self.a_step.reshape(plan.n_lanes, -1),
                (self._lane, self.cap_jac_idx),
                np.concatenate([geq, geq, -geq, -geq], axis=1),
            )
            v_prev = x_prev[:, plan.cap_a] - x_prev[:, plan.cap_b]
            const = -geq * v_prev
            if integrator == "trap" and cap_i_prev is not None:
                const = const - cap_i_prev
            np.add.at(
                self.b_step,
                (self._lane, self.cap_res_rows),
                np.concatenate([const, -const], axis=1),
            )
        if plan.n_inductors:
            req = plan.ind_l / dt_col
            self.a_step[:, plan.ind_k, plan.ind_k] -= req
            self.b_step[:, plan.ind_k] += req * x_prev[:, plan.ind_k]
        if plan.n_vsources:
            self.b_step[:, plan.vs_k] -= source_scale * plan.vs_table.values(time)
        if plan.n_isources:
            values = source_scale * plan.is_table.values(time)
            np.add.at(
                self.b_step,
                (self._lane, self.is_res_rows),
                np.concatenate([values, -values], axis=1),
            )

    def assemble(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        plan = self.plan
        jac = self.jacobian
        res = self.residual
        jac[:] = self.a_step
        res[:] = np.matmul(self.a_step, x[:, :, None])[:, :, 0]
        res += self.b_step
        jac_flat = jac.reshape(plan.n_lanes, -1)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            if plan.n_diodes:
                v = x[:, plan.d_a] - x[:, plan.d_b]
                n_vt = plan.d_nvt
                v_limited = np.minimum(v, 40.0 * n_vt)
                exp_term = np.exp(v_limited / n_vt)
                current = plan.d_isat * (exp_term - 1.0)
                conductance = plan.d_isat * exp_term / n_vt
                current = np.where(
                    v > v_limited, current + conductance * (v - v_limited), current
                )
                np.add.at(
                    res,
                    (self._lane, self.d_res_rows),
                    np.concatenate([current, -current], axis=1),
                )
                np.add.at(
                    jac_flat,
                    (self._lane, self.d_jac_idx),
                    np.concatenate(
                        [conductance, conductance, -conductance, -conductance], axis=1
                    ),
                )
            if plan.n_mosfets:
                vd, vg, vs, vb = (x[:, nodes] for nodes in plan.mos_terminals)
                ids, gd, gg, gs, gb = five_call_currents_and_derivatives(
                    plan.mos_arrays, vd, vg, vs, vb
                )
                np.add.at(
                    res,
                    (self._lane, self.mos_res_rows),
                    np.concatenate([ids, -ids], axis=1),
                )
                np.add.at(
                    jac_flat,
                    (self._lane, self.mos_jac_idx),
                    np.concatenate([gd, gg, gs, gb, -gd, -gg, -gs, -gb], axis=1),
                )
        return res, jac
