"""Local (intra-die) mismatch model.

Device-to-device mismatch follows the Pelgrom area law: the standard
deviation of a parameter difference between two identically drawn devices
is ``A / sqrt(W L)``, with ``A`` the technology mismatch coefficient.  The
paper's Monte Carlo runs use the foundry "variation and mismatch models"
(section 4.3); this module supplies the mismatch half of that pair.

A :class:`MismatchSample` maps device names to per-device parameter deltas
so the circuit evaluators can perturb each transistor individually, which
is what makes jitter and gain spread with device area in a physically
plausible way.  A Monte Carlo batch keeps the same deltas as
``(n_samples, n_devices)`` arrays (:class:`MismatchBatch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MismatchModel", "MismatchSample", "MismatchBatch", "DeviceGeometry"]


@dataclass(frozen=True)
class DeviceGeometry:
    """Width/length (in metres) of one matched device."""

    name: str
    width: float
    length: float
    polarity: str = "nmos"

    @property
    def area(self) -> float:
        """Gate area ``W * L`` in m^2."""
        return self.width * self.length


@dataclass
class MismatchSample:
    """Per-device additive parameter deltas drawn for one Monte Carlo sample."""

    deltas: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def for_device(self, name: str) -> Dict[str, float]:
        """Deltas of one device (empty dict when the device is unknown)."""
        return self.deltas.get(name, {})

    def devices(self) -> Sequence[str]:
        """Names of all devices carrying mismatch deltas."""
        return list(self.deltas)


@dataclass(frozen=True, eq=False)
class MismatchBatch:
    """Mismatch deltas of a whole Monte Carlo batch, one column per device.

    ``vth0[i, j]`` and ``u0_rel[i, j]`` are sample ``i``'s deltas of device
    ``devices[j]``.  Vectorised evaluators read a device's columns with
    :meth:`column`; ``batch[i]`` builds sample ``i`` as a
    :class:`MismatchSample` of Python floats for scalar consumers, and
    ``batch[start:stop]`` is a sub-batch.
    """

    devices: Tuple[str, ...]
    vth0: np.ndarray
    u0_rel: np.ndarray

    def __post_init__(self) -> None:
        # A repeated device name keeps its last column, like the dict of
        # a materialised sample.
        index = {name: column for column, name in enumerate(self.devices)}
        object.__setattr__(self, "_index", index)

    @classmethod
    def empty(cls, n_samples: int) -> "MismatchBatch":
        """A batch of ``n_samples`` samples without mismatch."""
        return cls(devices=(), vth0=np.zeros((n_samples, 0)), u0_rel=np.zeros((n_samples, 0)))

    @classmethod
    def from_sample(cls, sample: MismatchSample) -> "MismatchBatch":
        """One-row batch of ``sample``; a device lacking a key gets an exact 0.0 delta."""
        devices = tuple(sample.deltas)
        return cls(
            devices=devices,
            vth0=np.array([[sample.deltas[name].get("vth0", 0.0) for name in devices]]),
            u0_rel=np.array([[sample.deltas[name].get("u0_rel", 0.0) for name in devices]]),
        )

    def __len__(self) -> int:
        return self.vth0.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return MismatchBatch(self.devices, self.vth0[key], self.u0_rel[key])
        vth0 = self.vth0[key].tolist()
        u0_rel = self.u0_rel[key].tolist()
        return MismatchSample(
            {
                name: {"vth0": delta_vth0, "u0_rel": delta_u0}
                for name, delta_vth0, delta_u0 in zip(self.devices, vth0, u0_rel)
            }
        )

    def column(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(vth0, u0_rel)`` columns of one device; ``None`` when it has no deltas."""
        index = self._index.get(name)
        if index is None:
            return None
        return self.vth0[:, index], self.u0_rel[:, index]


@dataclass(frozen=True)
class MismatchModel:
    """Pelgrom-style mismatch coefficients.

    ``a_vth`` is in V*m (so that ``a_vth / sqrt(WL)`` is in volts) and
    ``a_beta`` is dimensionless*m (relative current-factor mismatch).
    Typical 0.12 um values are ``a_vth = 3.5 mV.um`` and
    ``a_beta = 1 %.um``.
    """

    a_vth: float = 3.5e-3 * 1e-6
    a_beta: float = 0.01 * 1e-6
    truncation: float = 4.0

    def sigma_vth(self, width: float, length: float) -> float:
        """Threshold-voltage mismatch sigma for a device of the given geometry."""
        area = max(width * length, 1e-18)
        return self.a_vth / np.sqrt(area)

    def sigma_beta(self, width: float, length: float) -> float:
        """Relative current-factor mismatch sigma for the given geometry."""
        area = max(width * length, 1e-18)
        return self.a_beta / np.sqrt(area)

    def draws_per_sample(self, devices: Sequence[DeviceGeometry]) -> int:
        """Number of standard-normal draws one sample consumes."""
        return 2 * len(devices)

    def sample(
        self,
        devices: Sequence[DeviceGeometry],
        rng: np.random.Generator,
    ) -> MismatchSample:
        """Draw one mismatch sample for a set of devices.

        Each device receives an independent threshold-voltage delta
        (``vth0`` key) and a relative mobility delta (``u0_rel`` key, to be
        multiplied by the nominal mobility by the consumer).
        """
        draws = rng.standard_normal((1, self.draws_per_sample(devices)))
        return self.sample_from_draws(devices, draws)[0]

    def sample_from_draws(
        self, devices: Sequence[DeviceGeometry], draws: np.ndarray
    ) -> MismatchBatch:
        """Build the mismatch deltas of a whole batch from pre-drawn normals.

        ``draws`` is the ``(n_samples, 2 * n_devices)`` block of standard
        normals; each row holds ``(z_vth, z_beta)`` pairs in device order,
        the consumption order of :meth:`sample`, so the Monte Carlo engine
        can draw every sample's normals in one bulk call without changing
        the seeded value stream.  The draws are clipped to ``truncation``
        and scaled by each device's Pelgrom sigma as two array operations.
        """
        draws = np.asarray(draws, dtype=float)
        width = self.draws_per_sample(devices)
        if draws.ndim != 2 or draws.shape[1] != width:
            raise ValueError(
                f"expected an (n_samples, {width}) draw block, got shape {draws.shape}"
            )
        z = np.clip(draws, -self.truncation, self.truncation)
        sigma_vth = np.array([self.sigma_vth(d.width, d.length) for d in devices], dtype=float)
        sigma_beta = np.array([self.sigma_beta(d.width, d.length) for d in devices], dtype=float)
        return MismatchBatch(
            devices=tuple(device.name for device in devices),
            vth0=z[:, 0::2] * sigma_vth,
            u0_rel=z[:, 1::2] * sigma_beta,
        )

    def sigma_summary(self, devices: Sequence[DeviceGeometry]) -> Dict[str, Dict[str, float]]:
        """Per-device 1-sigma values for reporting."""
        return {
            device.name: {
                "vth0": self.sigma_vth(device.width, device.length),
                "u0_rel": self.sigma_beta(device.width, device.length),
            }
            for device in devices
        }
