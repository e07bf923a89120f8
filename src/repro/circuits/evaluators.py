"""VCO performance evaluators.

Two evaluators implement the same interface (:class:`VcoEvaluator`):

* :class:`RingVcoSpiceEvaluator` runs the transistor-level test bench of
  :mod:`repro.circuits.testbench` on the MNA engine.  It is the
  ground-truth engine used for bottom-up verification and spot checks, but
  a single evaluation costs a few seconds of pure-Python transient
  simulation.

* :class:`RingVcoAnalyticalEvaluator` computes the same five performances
  from first-order device physics (starving current from the shared MOSFET
  model equations, delay = C V / I, thermal-noise jitter, dynamic +
  crowbar supply current).  The model exists once, as numpy array math
  over a batch of designs or process samples; a single evaluation is a
  one-row batch.  That makes the paper's 3,000-sample NSGA-II run and the
  per-Pareto-point Monte Carlo analysis laptop-scale.  Its calibration
  factors were fitted against the SPICE evaluator so that both engines
  agree on trends and roughly on magnitude (see
  ``examples/vco_characterisation.py`` and the unit tests).

Both evaluators take a batch of process samples (``evaluate_batch``) or a
technology override plus one mismatch sample (``evaluate``), which is how
the Monte Carlo engine injects global process variation and local device
mismatch.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.performance import VcoPerformance
from repro.circuits.ring_vco import N_STAGES, VcoDesign
from repro.circuits.testbench import VcoTestbench
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.process.mismatch import MismatchBatch, MismatchSample
from repro.process.montecarlo import ProcessSampleBatch
from repro.process.technology import TECH_012UM, Technology
from repro.spice.mosfet import _ELECTRON_CHARGE, _EPS_OX, MOSFETModel

__all__ = ["VcoEvaluator", "RingVcoAnalyticalEvaluator", "RingVcoSpiceEvaluator"]

_BOLTZMANN = 1.380649e-23

#: VCO evaluations performed, labelled by evaluator backend.
EVALUATIONS = obs_metrics.get_registry().counter(
    "repro_evaluations_total",
    "VCO evaluations performed, by evaluator backend",
    ("backend",),
)

#: Batch adapter signature used by ``MonteCarloEngine.run``: a drawn Monte
#: Carlo batch in, one performance dictionary per sample out.
BatchMonteCarloEvaluator = Callable[[ProcessSampleBatch], List[Dict[str, float]]]


class VcoEvaluator:
    """Interface shared by the analytical and the SPICE evaluator."""

    technology: Technology

    def evaluate(
        self,
        design: VcoDesign,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """Evaluate the five performances of one design point."""
        raise NotImplementedError

    def evaluate_batch(
        self,
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        samples: Optional[ProcessSampleBatch] = None,
    ) -> List[VcoPerformance]:
        """Evaluate many designs, or designs under many process samples, at once.

        Without ``samples`` every design is evaluated under ``technology``
        (the NSGA-II population shape).  With a Monte Carlo batch each
        sample's shifted technology and mismatch replace ``technology``,
        and a single design broadcasts against the samples (the Monte Carlo
        shape).  The base implementation builds each sample and loops
        :meth:`evaluate`; the analytical evaluator overrides it with numpy
        array math on the batch's columns.
        """
        tasks = _batch_tasks(designs, self._samples_or_nominal(technology, samples))
        return [
            self.evaluate(design, technology=tech, mismatch=mismatch)
            for design, tech, mismatch in tasks
        ]

    def _samples_or_nominal(
        self, technology: Optional[Technology], samples: Optional[ProcessSampleBatch]
    ) -> ProcessSampleBatch:
        """``samples``, or else one nominal sample of ``technology`` (or the default)."""
        if samples is not None:
            return samples
        return ProcessSampleBatch.nominal(technology or self.technology)

    def monte_carlo_batch_evaluator(self, design: VcoDesign) -> BatchMonteCarloEvaluator:
        """Batch adapter for ``MonteCarloEngine.run``: ``design`` under every sample."""

        def _evaluate(samples: ProcessSampleBatch) -> List[Dict[str, float]]:
            performances = self.evaluate_batch([design], samples=samples)
            return [performance.as_dict() for performance in performances]

        return _evaluate


def _batch_size(designs: Sequence, samples: ProcessSampleBatch) -> int:
    """Length of a design x sample batch (a length-1 side broadcasts)."""
    n = max(len(designs), len(samples))
    for name, size in (("designs", len(designs)), ("samples", len(samples))):
        if size not in (1, n):
            raise ValueError(f"batch input {name!r} has length {size}, expected 1 or {n}")
    return n


def _batch_tasks(designs: Sequence, samples: ProcessSampleBatch) -> List[Tuple]:
    """Per-element ``(design, technology, mismatch)`` triples of a batch."""
    n = _batch_size(designs, samples)
    designs = list(designs) * n if len(designs) == 1 else list(designs)
    processes = list(samples) * n if len(samples) == 1 else list(samples)
    return [
        (design, sample.technology, sample.mismatch)
        for design, sample in zip(designs, processes)
    ]


def _softplus_overdrive(vov: np.ndarray, n_vt: np.ndarray) -> np.ndarray:
    """Elementwise smoothed overdrive, bit-identical to the scalar MOSFET model.

    This is the softplus transition of
    :meth:`~repro.spice.mosfet.MOSFET._channel_current`.
    It deliberately calls ``math.exp`` / ``math.log1p`` per element instead
    of the numpy ufuncs: numpy's SIMD transcendentals can differ from libm
    by an ulp, which is enough to push a seeded NSGA-II run onto a
    different trajectory.  Everything around this helper is IEEE-exact
    array arithmetic, so the per-element loop here is what buys exact
    serial/vectorised equivalence.
    """
    vov_b, nvt_b = np.broadcast_arrays(np.asarray(vov, float), np.asarray(n_vt, float))
    out = np.empty(vov_b.shape, dtype=float)
    flat = out.ravel()
    for index, (v, nvt) in enumerate(zip(vov_b.ravel().tolist(), nvt_b.ravel().tolist())):
        ratio = v / nvt
        if ratio > 40.0:
            flat[index] = v
        elif ratio < -40.0:
            flat[index] = nvt * math.exp(ratio)
        else:
            flat[index] = nvt * math.log1p(math.exp(ratio))
    return out


@dataclass
class _DeviceArrays:
    """Model-card and geometry parameters of one device type, as arrays.

    Every field mirrors an attribute consumed by the scalar
    :meth:`~repro.spice.mosfet.MOSFET._channel_current`; values are either
    scalars or length-N arrays (N = batch size), so the same expressions
    evaluate the whole batch at once.
    """

    polarity: int
    width: np.ndarray
    length: np.ndarray
    vth0: np.ndarray
    u0: np.ndarray
    tox: np.ndarray
    lambda_: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    n_sub: np.ndarray
    e_crit: np.ndarray
    ld: np.ndarray
    temperature: np.ndarray

    def channel_current(self, vgs: float, vds: float, vbs: float) -> np.ndarray:
        """Vectorised transcription of :meth:`~repro.spice.mosfet.MOSFET._channel_current`.

        The expressions below keep the scalar code's operation order so
        results stay bit-identical (IEEE arithmetic is deterministic for a
        fixed evaluation order).
        """
        effective_length = np.maximum(self.length - 2.0 * self.ld, 1.0e-9)
        cox = _EPS_OX / self.tox
        kp = self.u0 * cox
        beta = kp * self.width / effective_length
        phi_minus_vbs = np.maximum(self.phi - vbs, 1e-6)
        vth = self.vth0 + self.gamma * (np.sqrt(phi_minus_vbs) - np.sqrt(self.phi))
        vov = vgs - vth
        thermal_voltage = _BOLTZMANN * self.temperature / _ELECTRON_CHARGE
        n_vt = self.n_sub * thermal_voltage
        vov_eff = _softplus_overdrive(vov, n_vt)
        theta = 1.0 / (self.e_crit * effective_length)
        vov_eff = vov_eff / (1.0 + theta * vov_eff)
        vdsat = np.maximum(vov_eff, 1e-9)
        clm = 1.0 + self.lambda_ * vds
        triode = beta * (vov_eff * vds - 0.5 * vds * vds) * clm
        saturation = 0.5 * beta * vov_eff * vov_eff * clm
        ids = np.where(vds < vdsat, triode, saturation)
        return np.maximum(ids, 0.0)

    def drain_current(self, vd: float, vg: float, vs: float, vb: float) -> np.ndarray:
        """Vectorised transcription of :meth:`~repro.spice.mosfet.MOSFET.drain_current`.

        Bias voltages are scalars in every call site, so the source/drain
        swap resolves to one branch for the whole batch.
        """
        p = self.polarity
        nvd, nvg, nvs, nvb = p * vd, p * vg, p * vs, p * vb
        if nvd >= nvs:
            ids = self.channel_current(nvg - nvs, nvd - nvs, nvb - nvs)
            return p * ids
        ids = self.channel_current(nvg - nvd, nvs - nvd, nvb - nvd)
        return -p * ids


#: Model-card attributes consumed by the vectorised kernel.
_CARD_ATTRIBUTES = (
    "vth0",
    "u0",
    "tox",
    "lambda_",
    "gamma",
    "phi",
    "n_sub",
    "e_crit",
    "ld",
    "cgso",
    "cj",
    "drain_extension",
    "temperature",
)


def _card_values(card: MOSFETModel, columns: Dict[str, np.ndarray]) -> Dict:
    """Kernel view of one model card: a batch column where the parameter
    varies across samples, the card's scalar everywhere else."""
    values = {
        attr: columns[attr] if attr in columns else getattr(card, attr)
        for attr in _CARD_ATTRIBUTES
    }
    values["polarity"] = card.polarity
    return values


def _device_arrays(card: Dict, width, length, deltas) -> _DeviceArrays:
    """Build the batch device parameters, applying mismatch deltas if given.

    ``deltas`` is a device's ``(vth0, u0_rel)`` columns: an additive
    threshold shift and a relative mobility change.
    """
    vth0 = card["vth0"]
    u0 = card["u0"]
    if deltas is not None:
        delta_vth0, delta_u0 = deltas
        vth0 = vth0 + delta_vth0
        u0 = u0 * (1.0 + delta_u0)
    return _DeviceArrays(
        polarity=card["polarity"],
        width=width,
        length=length,
        vth0=vth0,
        u0=u0,
        tox=card["tox"],
        lambda_=card["lambda_"],
        gamma=card["gamma"],
        phi=card["phi"],
        n_sub=card["n_sub"],
        e_crit=card["e_crit"],
        ld=card["ld"],
        temperature=card["temperature"],
    )


class RingVcoAnalyticalEvaluator(VcoEvaluator):
    """Calibrated first-order performance model of the current-starved ring VCO.

    Parameters
    ----------
    technology:
        Nominal process description.
    vctrl_min / vctrl_max:
        Control-voltage window over which gain and tuning range are defined
        (matches the SPICE test bench defaults).
    frequency_scale / current_scale / jitter_scale:
        Calibration factors multiplying the first-order expressions.  The
        defaults (0.42 / 0.52 / 3.0) were fitted against
        :class:`RingVcoSpiceEvaluator` on the default design point so both
        engines agree on magnitude; trends with respect to the designable
        parameters agree by construction because both use the same device
        equations.  Use :meth:`calibrate` to re-fit for a different
        technology.
    """

    #: Topology hooks consumed by :mod:`repro.circuits.topology`: the seam
    #: resolves an evaluator back to its registered topology through
    #: ``topology_name``, and the vectorised kernel reads the design space
    #: from ``design_cls`` instead of hardcoding the ring parameters.
    #: Class attributes keep pickled instances byte-identical (they never
    #: enter ``__dict__``).
    topology_name = "ring-vco"
    design_cls = VcoDesign
    _WIDTH_PARAMS = ("nmos_width", "pmos_width", "tail_nmos_width", "tail_pmos_width")
    _LENGTH_PARAMS = ("nmos_length", "pmos_length", "tail_length")

    def __init__(
        self,
        technology: Technology = TECH_012UM,
        vctrl_min: float = 0.5,
        vctrl_max: float | None = None,
        n_stages: int = N_STAGES,
        frequency_scale: float = 0.42,
        current_scale: float = 0.52,
        jitter_scale: float = 3.0,
    ) -> None:
        self.technology = technology
        self.vctrl_min = vctrl_min
        self.vctrl_max = technology.vdd if vctrl_max is None else vctrl_max
        self.n_stages = n_stages
        self.frequency_scale = frequency_scale
        self.current_scale = current_scale
        self.jitter_scale = jitter_scale

    # -- calibration -----------------------------------------------------------------

    @classmethod
    def calibrate(
        cls,
        spice_evaluator: "RingVcoSpiceEvaluator",
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        **kwargs,
    ) -> "RingVcoAnalyticalEvaluator":
        """Fit the calibration factors against the transistor-level evaluator.

        The scale factors are the geometric-mean ratios of the SPICE
        measurements to the uncalibrated analytical predictions over the
        given design sample.  This is how the default factors were obtained.
        """
        if not designs:
            raise ValueError("calibration needs at least one design point")
        tech = technology or spice_evaluator.technology
        raw = cls(
            technology=tech,
            vctrl_min=spice_evaluator.vctrl_min,
            vctrl_max=spice_evaluator.vctrl_max,
            n_stages=spice_evaluator.n_stages,
            frequency_scale=1.0,
            current_scale=1.0,
            jitter_scale=1.0,
        )
        freq_ratios, current_ratios, jitter_ratios = [], [], []
        for design in designs:
            reference = spice_evaluator.evaluate(design)
            prediction = raw.evaluate(design)
            if reference.fmax > 0.0 and prediction.fmax > 0.0:
                freq_ratios.append(reference.fmax / prediction.fmax)
            if reference.current > 0.0 and prediction.current > 0.0:
                current_ratios.append(reference.current / prediction.current)
            if (
                math.isfinite(reference.jitter)
                and reference.jitter > 0.0
                and prediction.jitter > 0.0
            ):
                jitter_ratios.append(reference.jitter / prediction.jitter)

        def geometric_mean(ratios: Sequence[float], fallback: float) -> float:
            if not ratios:
                return fallback
            return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

        return cls(
            technology=tech,
            vctrl_min=spice_evaluator.vctrl_min,
            vctrl_max=spice_evaluator.vctrl_max,
            n_stages=spice_evaluator.n_stages,
            frequency_scale=geometric_mean(freq_ratios, 0.42),
            current_scale=geometric_mean(current_ratios, 0.52),
            jitter_scale=geometric_mean(jitter_ratios, 3.0),
            **kwargs,
        )

    # -- evaluation -----------------------------------------------------------------------

    def _finalise_performance(self, performance: VcoPerformance) -> VcoPerformance:
        """Topology-specific post-processing of one evaluated design point.

        The ring is the identity.  Subclasses (e.g. the pseudo-differential
        topology) apply their per-topology corrections here, once per
        evaluated batch element.
        """
        return performance

    def evaluate(
        self,
        design: VcoDesign,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """Evaluate the five performances of one design point analytically.

        A one-row :meth:`evaluate_batch` call: ``technology`` becomes a
        one-sample batch and ``mismatch`` its one-row mismatch columns.
        """
        samples = ProcessSampleBatch.nominal(technology or self.technology)
        if mismatch is not None:
            samples = replace(samples, mismatch=MismatchBatch.from_sample(mismatch))
        return self.evaluate_batch([design], samples=samples)[0]

    def evaluate_batch(
        self,
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        samples: Optional[ProcessSampleBatch] = None,
    ) -> List[VcoPerformance]:
        """Array-in/array-out evaluation of a whole batch.

        The first-order model is written as numpy expressions over the
        batch axis.  Every row is computed independently of the others, so
        a row's result does not depend on the batch it travels in: a
        seeded NSGA-II run or Monte Carlo analysis gives the same numbers
        whether it evaluates one row per call or the whole batch at once.
        Supports the two batch shapes of the flow: N designs under one
        technology (optimisation) and one design under a Monte Carlo
        batch, whose model-card and mismatch columns enter the array
        expressions directly.
        """
        samples = self._samples_or_nominal(technology, samples)
        n = _batch_size(designs, samples)
        EVALUATIONS.inc(n, backend="analytical")
        designs_b = list(designs) * n if len(designs) == 1 else list(designs)
        # Global variation shifts model cards only, so every sample shares
        # the batch technology's supply, temperature and design rules.
        reference = samples.technology
        nmos = _card_values(reference.nmos, samples.cards["nmos"])
        pmos = _card_values(reference.pmos, samples.cards["pmos"])
        mismatch = samples.mismatch if samples.mismatch.devices else None
        params = self._design_arrays(designs_b, reference)
        load = self._batch_stage_capacitance(params, nmos, pmos, reference)

        def stage_biases(vctrl: float) -> List[np.ndarray]:
            if mismatch is None:
                current = self._batch_stage_current(params, nmos, pmos, reference, vctrl, None, 0)
                return [current] * self.n_stages
            return [
                self._batch_stage_current(params, nmos, pmos, reference, vctrl, mismatch, stage)
                for stage in range(self.n_stages)
            ]

        def frequency(currents: List[np.ndarray]) -> np.ndarray:
            delays = [load * (reference.vdd / 2.0) / current for current in currents]
            period = 2.0 * sum(delays)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(period > 0.0, self.frequency_scale / period, 0.0)

        currents_min = stage_biases(self.vctrl_min)
        currents_max = stage_biases(self.vctrl_max)
        fmin = frequency(currents_min)
        fmax = frequency(currents_max)
        span = self.vctrl_max - self.vctrl_min
        kvco = np.maximum(fmax - fmin, 0.0) / span
        # Supply current at the fmax bias point: dynamic switching, the
        # crowbar current of each transition and the vctrl-to-vbp mirror
        # branch.
        mean_current = sum(currents_max) / len(currents_max)
        c_total = sum([load] * self.n_stages)
        dynamic = c_total * reference.vdd * fmax
        crowbar = 0.8 * mean_current
        bias_branch = mean_current
        current = self.current_scale * (dynamic + crowbar + bias_branch)
        # Jitter: thermal first-crossing noise accumulated over 2N edges,
        # plus the stage-delay spread that mismatch turns into period error.
        kT = _BOLTZMANN * reference.temperature
        sigma_edges = []
        delays = []
        for stage_current in currents_max:
            sigma_v = np.sqrt(2.0 * kT / load)
            slope = stage_current / load
            sigma_edges.append(sigma_v / slope)
            delays.append(load * (reference.vdd / 2.0) / stage_current)
        thermal = np.sqrt(2.0 * sum(s * s for s in sigma_edges))
        mean_delay = sum(delays) / len(delays)
        # Squares are written as products: on a one-row batch the operands
        # are numpy scalars, whose ``x**2`` calls C ``pow`` and can differ
        # from the array path's ``x*x`` in the last bit.
        if len(delays) > 1:
            variance = sum((d - mean_delay) * (d - mean_delay) for d in delays) / (
                len(delays) - 1
            )
            deterministic = np.sqrt(variance)
        else:
            deterministic = 0.0
        jitter = self.jitter_scale * np.sqrt(thermal * thermal + deterministic * deterministic)

        columns = [
            np.broadcast_to(np.asarray(column, dtype=float), (n,))
            for column in (kvco, jitter, current, fmin, fmax)
        ]
        return [
            self._finalise_performance(
                VcoPerformance(
                    kvco=float(columns[0][i]),
                    jitter=float(columns[1][i]),
                    current=float(columns[2][i]),
                    fmin=float(columns[3][i]),
                    fmax=float(columns[4][i]),
                )
            )
            for i in range(n)
        ]

    def _design_arrays(self, designs: Sequence[VcoDesign], technology: Technology) -> Dict:
        """Clamped design parameters as batch arrays (scalars when shared)."""
        names = self.design_cls.parameter_names()
        if all(design is designs[0] for design in designs):
            values = {name: getattr(designs[0], name) for name in names}
        else:
            values = {
                name: np.array([getattr(design, name) for design in designs])
                for name in names
            }
        for name in self._WIDTH_PARAMS:
            values[name] = np.clip(values[name], technology.min_width, technology.max_width)
        for name in self._LENGTH_PARAMS:
            values[name] = np.clip(values[name], technology.min_length, technology.max_length)
        return values

    def _batch_stage_capacitance(self, params, nmos, pmos, technology: Technology):
        """Load on one stage output: inverter gate, overlap and junction
        capacitance, half of each tail drain, and the fixed wiring load."""
        cox_n = _EPS_OX / nmos["tox"]
        cox_p = _EPS_OX / pmos["tox"]
        gate = cox_n * params["nmos_width"] * params["nmos_length"]
        gate = gate + cox_p * params["pmos_width"] * params["pmos_length"]
        overlap = nmos["cgso"] * params["nmos_width"] + pmos["cgso"] * params["pmos_width"]
        junction = nmos["cj"] * params["nmos_width"] * nmos["drain_extension"]
        junction = junction + pmos["cj"] * params["pmos_width"] * pmos["drain_extension"]
        junction = junction + nmos["cj"] * params["tail_nmos_width"] * nmos["drain_extension"] * 0.5
        junction = junction + pmos["cj"] * params["tail_pmos_width"] * pmos["drain_extension"] * 0.5
        return gate + overlap + junction + technology.stage_load_capacitance

    def _batch_stage_current(
        self,
        params,
        nmos,
        pmos,
        technology: Technology,
        vctrl,
        mismatch: Optional[MismatchBatch],
        stage: int,
    ) -> np.ndarray:
        """Starving current of one inverter stage.

        The NMOS tail sets the discharge current; the PMOS tail mirrors the
        bias branch, whose diode-connected device is assumed to sit near
        its own ``|Vgs|``; the inverter devices limit the current when they
        are smaller than the tails.  A device without mismatch columns
        keeps its card values.
        """

        def deltas(name: str):
            return mismatch.column(name) if mismatch is not None else None

        vdd = technology.vdd
        half = vdd / 2.0
        tail_n = _device_arrays(
            nmos, params["tail_nmos_width"], params["tail_length"], deltas(f"mtn{stage}")
        )
        i_tail_n = tail_n.drain_current(half, vctrl, 0.0, 0.0)
        tail_p = _device_arrays(
            pmos, params["tail_pmos_width"], params["tail_length"], deltas(f"mtp{stage}")
        )
        i_tail_p = np.abs(tail_p.drain_current(half, half - vdd + half, vdd, vdd))
        inv_n = _device_arrays(
            nmos, params["nmos_width"], params["nmos_length"], deltas(f"mn{stage}")
        )
        i_inv_n = inv_n.drain_current(half, vdd, 0.0, 0.0)
        inv_p = _device_arrays(
            pmos, params["pmos_width"], params["pmos_length"], deltas(f"mp{stage}")
        )
        i_inv_p = np.abs(inv_p.drain_current(half, 0.0 - 0.0, vdd, vdd))
        pull_down = np.minimum(i_tail_n, i_inv_n)
        pull_up = np.minimum(np.maximum(i_tail_p, 0.3 * i_tail_n), i_inv_p)
        current = 0.5 * (pull_down + pull_up)
        return np.maximum(current, 1e-9)


def _device_overrides(mismatch: Optional[MismatchSample]) -> Optional[Dict]:
    """Per-device model-card overrides of a mismatch sample (``None`` if empty)."""
    if mismatch is None or not mismatch.devices():
        return None
    return {name: mismatch.for_device(name) for name in mismatch.devices()}


# The worker-side evaluator is installed once per pool through the executor
# initializer (mirroring repro.optim.evaluation), so each task ships only
# one (design, technology, mismatch) triple instead of the whole evaluator.
_SPICE_WORKER_EVALUATOR: Optional["RingVcoSpiceEvaluator"] = None


def _initialise_spice_worker(evaluator: "RingVcoSpiceEvaluator") -> None:
    global _SPICE_WORKER_EVALUATOR
    _SPICE_WORKER_EVALUATOR = evaluator


def _evaluate_spice_chunk(
    payload: Tuple[Sequence[Tuple[VcoDesign, Technology, MismatchSample]], Optional[dict], int],
) -> Tuple[List[VcoPerformance], List[dict]]:
    """Evaluate one chunk of tasks inside a pool worker.

    The child process cannot see the parent's trace, so when the parent
    ships a :func:`~repro.obs.trace.trace_context` the chunk span is
    recorded into a throwaway trace and its records travel back with the
    results; the parent merges them.  Spans never touch the numbers.
    """
    tasks, context, chunk_index = payload
    evaluator = _SPICE_WORKER_EVALUATOR
    if evaluator is None:  # pragma: no cover - defensive
        raise RuntimeError("worker process was not initialised with an evaluator")
    with obs_trace.collect_spans(context) as spans:
        results = evaluator.evaluate_chunk(tasks, chunk_index)
    return results, spans


class RingVcoSpiceEvaluator(VcoEvaluator):
    """Transistor-level evaluator running the MNA test bench.

    Parameters
    ----------
    n_workers:
        Size of the process pool used by :meth:`evaluate_batch`; ``None``
        (the default) applies the same rule as the optimiser's ``process``
        backend (:func:`repro.optim.evaluation.default_worker_count`), and
        ``HierarchicalFlow(n_workers=...)`` fills it in when unset.
    engine:
        ``"reference"`` (per-element Python engine, byte-stable default),
        ``"compiled"`` (vectorised stamp plan per transient) or ``"lanes"``
        (compiled plus lane-parallel batching: :meth:`evaluate_batch`
        advances ``lane_width`` tasks per in-process batch, and chunks of
        lanes still fan out over the process pool).  The compiled engines
        are tolerance-equivalent to the reference, not byte-identical.
    lane_width:
        Number of (design, technology, mismatch) tasks simulated together
        per lane batch when ``engine="lanes"`` (each task contributes two
        transient lanes, one per control voltage).
    """

    #: Topology hooks (see :class:`RingVcoAnalyticalEvaluator`): subclasses
    #: swap the test-bench class and design space to reuse the pooled batch
    #: machinery for a different circuit.
    topology_name = "ring-vco"
    design_cls = VcoDesign
    testbench_cls = VcoTestbench

    def __init__(
        self,
        technology: Technology = TECH_012UM,
        vctrl_min: float = 0.5,
        vctrl_max: float | None = None,
        n_stages: int = N_STAGES,
        dt: float = 4e-12,
        sim_cycles: float = 8.0,
        n_workers: Optional[int] = None,
        engine: str = "reference",
        lane_width: int = 8,
    ) -> None:
        from repro.spice.plan import ENGINES

        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        if lane_width < 1:
            raise ValueError("lane_width must be at least 1")
        self.technology = technology
        self.vctrl_min = vctrl_min
        self.vctrl_max = technology.vdd if vctrl_max is None else vctrl_max
        self.n_stages = n_stages
        self.dt = dt
        self.sim_cycles = sim_cycles
        self.n_workers = n_workers
        self.engine = engine
        self.lane_width = lane_width

    def _testbench(self, technology: Technology) -> VcoTestbench:
        return self.testbench_cls(
            technology=technology,
            vctrl_min=self.vctrl_min,
            vctrl_max=self.vctrl_max,
            n_stages=self.n_stages,
            dt=self.dt,
            sim_cycles=self.sim_cycles,
            engine=self.engine,
        )

    def evaluate(
        self,
        design: VcoDesign,
        technology: Optional[Technology] = None,
        mismatch: Optional[MismatchSample] = None,
    ) -> VcoPerformance:
        """Evaluate the five performances with transistor-level transients."""
        tech = technology or self.technology
        return self._testbench(tech).run(
            design.clamped(tech), device_overrides=_device_overrides(mismatch)
        )

    def evaluate_batch(
        self,
        designs: Sequence[VcoDesign],
        technology: Optional[Technology] = None,
        samples: Optional[ProcessSampleBatch] = None,
    ) -> List[VcoPerformance]:
        """Fan a batch of transistor-level evaluations out over a process pool.

        One MNA transient costs seconds of pure Python, so unlike the
        analytical evaluator the batch here parallelises across processes:
        the pool is initialised once with the (picklable) evaluator, the
        (design, technology, mismatch) triples are mapped in chunks, and
        order is preserved.  The ``lanes`` engine cuts ``lane_width``-sized
        chunks, each one lane-parallel transient, composing the two levels
        of parallelism (vectorised lanes inside a process, pool across
        processes); the other engines cut about four chunks per worker and
        run the exact same scalar :meth:`evaluate`, so the results are
        identical to the serial loop.  A single chunk (or ``n_workers=1``)
        is evaluated in-process.
        """
        tasks = _batch_tasks(designs, self._samples_or_nominal(technology, samples))
        n_tasks = len(tasks)
        EVALUATIONS.inc(n_tasks, backend=f"spice-{self.engine}")
        if self.engine == "lanes":
            chunksize = self.lane_width
        else:
            chunksize = max(1, -(-n_tasks // (min(self.pool_size(), n_tasks) * 4)))
        chunks = [tasks[start : start + chunksize] for start in range(0, n_tasks, chunksize)]
        n_workers = min(self.pool_size(), len(chunks))
        if n_workers < 2:
            return [
                result
                for index, chunk in enumerate(chunks)
                for result in self.evaluate_chunk(chunk, index)
            ]
        with obs_trace.span(
            "spice.evaluate_batch", n_tasks=n_tasks, n_workers=n_workers, n_chunks=len(chunks)
        ):
            context = obs_trace.trace_context()
            with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_initialise_spice_worker,
                initargs=(self,),
            ) as executor:
                results: List[VcoPerformance] = []
                for chunk_results, spans in executor.map(
                    _evaluate_spice_chunk,
                    [(chunk, context, index) for index, chunk in enumerate(chunks)],
                ):
                    results.extend(chunk_results)
                    obs_trace.merge_spans(spans)
                return results

    def evaluate_chunk(
        self,
        tasks: Sequence[Tuple[VcoDesign, Technology, MismatchSample]],
        chunk_index: int = 0,
    ) -> List[VcoPerformance]:
        """Evaluate one chunk of tasks: one lane-parallel transient for the
        ``lanes`` engine, the scalar :meth:`evaluate` loop otherwise.

        The chunk runs inside a ``spice.lane_chunk`` (``lanes``) or
        ``spice.chunk`` span, in a pool worker or in-process alike.  A lane
        chunk's span carries its numerical health as attributes:
        ``newton_iterations``, ``step_halvings`` and ``lanes_failed``.
        """
        name = "spice.lane_chunk" if self.engine == "lanes" else "spice.chunk"
        with obs_trace.span(name, chunk=chunk_index, n_tasks=len(tasks)) as attrs:
            if self.engine != "lanes":
                return [
                    self.evaluate(design, technology=tech, mismatch=mismatch)
                    for design, tech, mismatch in tasks
                ]
            prepared = [
                (design.clamped(tech), tech, _device_overrides(mismatch))
                for design, tech, mismatch in tasks
            ]
            bench = self._testbench(self.technology)
            results = bench.run_batch(prepared)
            if attrs is not None:
                attrs.update(bench.health)
            return results

    def pool_size(self) -> int:
        """Worker count of the batch pool (configured or the shared default)."""
        if self.n_workers is not None:
            return self.n_workers
        from repro.optim.evaluation import default_worker_count

        return default_worker_count()
