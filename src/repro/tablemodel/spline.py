"""One-dimensional spline interpolators.

These are the numerical workhorses behind the table models.  Three
interpolation degrees are supported, matching the three spline types offered
by the Verilog-A ``$table_model`` function (section 2.2 of the paper):

* :class:`LinearInterpolator1D` -- piecewise linear,
* :class:`QuadraticSpline1D` -- piecewise quadratic with continuous first
  derivative,
* :class:`CubicSpline1D` -- natural cubic spline with continuous first and
  second derivatives (equation (3) of the paper).

All interpolators pass exactly through every sample point ("the number of
fitting parameters ... matches the number of samples", section 3.3) and
gracefully degrade to lower orders when fewer samples are available than the
order requires.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tablemodel.control_string import ExtrapolationMode, InterpolationMethod

__all__ = [
    "Interpolator1D",
    "LinearInterpolator1D",
    "QuadraticSpline1D",
    "CubicSpline1D",
    "make_interpolator",
]


class InterpolationError(ValueError):
    """Raised when an interpolator cannot be constructed from the samples."""


def _validate_samples(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or y_arr.ndim != 1:
        raise InterpolationError("sample abscissae and ordinates must be one dimensional")
    if x_arr.size != y_arr.size:
        raise InterpolationError(
            f"sample count mismatch: {x_arr.size} abscissae vs {y_arr.size} ordinates"
        )
    if x_arr.size == 0:
        raise InterpolationError("at least one sample point is required")
    if not np.all(np.isfinite(x_arr)) or not np.all(np.isfinite(y_arr)):
        raise InterpolationError("sample points must be finite")
    order = np.argsort(x_arr, kind="stable")
    x_arr = x_arr[order]
    y_arr = y_arr[order]
    if x_arr.size > 1:
        # Collapse duplicates and near-duplicates (closer than a relative
        # epsilon of the sampled span) by averaging their ordinates,
        # otherwise the tridiagonal spline system becomes singular or
        # numerically explosive.  All-identical abscissae collapse to one
        # averaged point: a constant, like any one-point table.
        span = float(x_arr[-1] - x_arr[0])
        tolerance = max(span * 1e-12, 1e-300)
        groups = np.concatenate(([0], np.cumsum(np.diff(x_arr) > tolerance)))
        n_groups = int(groups[-1]) + 1
        if n_groups != x_arr.size:
            sums_x = np.zeros(n_groups)
            sums_y = np.zeros(n_groups)
            counts = np.zeros(n_groups)
            np.add.at(sums_x, groups, x_arr)
            np.add.at(sums_y, groups, y_arr)
            np.add.at(counts, groups, 1.0)
            x_arr = sums_x / counts
            y_arr = sums_y / counts
    return x_arr, y_arr


class Interpolator1D:
    """Common interface for the one-dimensional interpolators.

    Subclasses implement :meth:`_evaluate_inside`, which is only called with
    abscissae inside ``[x[0], x[-1]]``.  Out-of-range handling (clamping,
    linear extrapolation or spline extrapolation) is shared here.
    """

    method: InterpolationMethod

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        extrapolation: ExtrapolationMode = ExtrapolationMode.CLAMP,
    ) -> None:
        self.x, self.y = _validate_samples(x, y)
        self.extrapolation = extrapolation

    # -- public API ------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of (deduplicated) sample points."""
        return int(self.x.size)

    @property
    def domain(self) -> tuple[float, float]:
        """Lower and upper bound of the sampled abscissa range."""
        return float(self.x[0]), float(self.x[-1])

    def __call__(self, value):
        """Evaluate the interpolator at a scalar or array of abscissae."""
        arr = np.asarray(value, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        result = self._evaluate(arr)
        if scalar:
            return float(result[0])
        return result

    def derivative(self, value, step: float | None = None):
        """Numerical first derivative (central difference) at ``value``."""
        lo, hi = self.domain
        if step is None:
            span = hi - lo
            step = span * 1e-6 if span > 0 else 1e-9
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        up = self(np.clip(arr + step, lo, hi))
        down = self(np.clip(arr - step, lo, hi))
        denom = np.clip(arr + step, lo, hi) - np.clip(arr - step, lo, hi)
        denom = np.where(denom == 0.0, 1.0, denom)
        deriv = (np.atleast_1d(up) - np.atleast_1d(down)) / denom
        if np.asarray(value).ndim == 0:
            return float(deriv[0])
        return deriv

    # -- shared machinery -------------------------------------------------

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        if self.n_samples == 1:
            return np.full(arr.shape, float(self.y[0]))
        lo, hi = self.domain
        result = np.empty_like(arr)
        below = arr < lo
        above = arr > hi
        inside = ~(below | above)
        if np.any(inside):
            result[inside] = self._evaluate_inside(arr[inside])
        if np.any(below):
            result[below] = self._evaluate_outside(arr[below], lower=True)
        if np.any(above):
            result[above] = self._evaluate_outside(arr[above], lower=False)
        return result

    def _evaluate_outside(self, arr: np.ndarray, lower: bool) -> np.ndarray:
        lo, hi = self.domain
        edge_x = lo if lower else hi
        edge_y = float(self.y[0] if lower else self.y[-1])
        if self.extrapolation is ExtrapolationMode.CLAMP:
            return np.full(arr.shape, edge_y)
        if self.extrapolation is ExtrapolationMode.LINEAR:
            slope = self._edge_slope(lower)
            return edge_y + slope * (arr - edge_x)
        # Spline extrapolation: evaluate the end segment beyond its range.
        return self._evaluate_inside(arr, allow_outside=True)

    def _edge_slope(self, lower: bool) -> float:
        if lower:
            x0, x1 = self.x[0], self.x[1]
            y0, y1 = self.y[0], self.y[1]
        else:
            x0, x1 = self.x[-2], self.x[-1]
            y0, y1 = self.y[-2], self.y[-1]
        if x1 == x0:
            return 0.0
        return float((y1 - y0) / (x1 - x0))

    def _evaluate_inside(self, arr: np.ndarray, allow_outside: bool = False) -> np.ndarray:
        raise NotImplementedError


class LinearInterpolator1D(Interpolator1D):
    """Piecewise-linear interpolation (Verilog-A degree 1)."""

    method = InterpolationMethod.LINEAR

    def _evaluate_inside(self, arr: np.ndarray, allow_outside: bool = False) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.x, arr, side="right") - 1, 0, self.n_samples - 2)
        x0 = self.x[idx]
        x1 = self.x[idx + 1]
        y0 = self.y[idx]
        y1 = self.y[idx + 1]
        width = np.where(x1 == x0, 1.0, x1 - x0)
        t = (arr - x0) / width
        return y0 + t * (y1 - y0)


class CubicSpline1D(Interpolator1D):
    """Natural cubic spline (Verilog-A degree 3, equation (3) of the paper).

    Each interval ``[x_i, x_{i+1}]`` carries a cubic polynomial

    ``S_i(x) = a_i (x - x_i)^3 + b_i (x - x_i)^2 + c_i (x - x_i) + d_i``

    with continuity of value, first and second derivative at the knots and
    natural boundary conditions (zero second derivative at both ends).
    With fewer than three samples the spline degenerates to linear
    interpolation, which matches Verilog-A simulator behaviour.
    """

    method = InterpolationMethod.CUBIC

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        extrapolation: ExtrapolationMode = ExtrapolationMode.CLAMP,
    ) -> None:
        super().__init__(x, y, extrapolation)
        self._build_coefficients()

    def _build_coefficients(self) -> None:
        n = self.n_samples
        if n < 3:
            self._second_derivatives = np.zeros(n)
            return
        h = np.diff(self.x)
        # Tridiagonal system for the second derivatives (natural spline).
        diag = np.zeros(n)
        lower = np.zeros(n)
        upper = np.zeros(n)
        rhs = np.zeros(n)
        diag[0] = diag[-1] = 1.0
        for i in range(1, n - 1):
            lower[i] = h[i - 1]
            diag[i] = 2.0 * (h[i - 1] + h[i])
            upper[i] = h[i]
            rhs[i] = 6.0 * (
                (self.y[i + 1] - self.y[i]) / h[i] - (self.y[i] - self.y[i - 1]) / h[i - 1]
            )
        # Thomas algorithm.
        c_prime = np.zeros(n)
        d_prime = np.zeros(n)
        c_prime[0] = upper[0] / diag[0]
        d_prime[0] = rhs[0] / diag[0]
        for i in range(1, n):
            denom = diag[i] - lower[i] * c_prime[i - 1]
            c_prime[i] = upper[i] / denom
            d_prime[i] = (rhs[i] - lower[i] * d_prime[i - 1]) / denom
        m = np.zeros(n)
        m[-1] = d_prime[-1]
        for i in range(n - 2, -1, -1):
            m[i] = d_prime[i] - c_prime[i] * m[i + 1]
        self._second_derivatives = m

    def coefficients(self, segment: int) -> tuple[float, float, float, float]:
        """Return ``(a, b, c, d)`` of segment ``i`` per equation (3)."""
        n = self.n_samples
        if not 0 <= segment < max(n - 1, 1):
            raise IndexError(f"segment {segment} out of range for {n} samples")
        if n < 3:
            slope = self._edge_slope(lower=True) if n == 2 else 0.0
            return 0.0, 0.0, slope, float(self.y[segment])
        i = segment
        h = float(self.x[i + 1] - self.x[i])
        m_i = float(self._second_derivatives[i])
        m_ip1 = float(self._second_derivatives[i + 1])
        a = (m_ip1 - m_i) / (6.0 * h)
        b = m_i / 2.0
        c = (float(self.y[i + 1]) - float(self.y[i])) / h - h * (2.0 * m_i + m_ip1) / 6.0
        d = float(self.y[i])
        return a, b, c, d

    def _evaluate_inside(self, arr: np.ndarray, allow_outside: bool = False) -> np.ndarray:
        n = self.n_samples
        if n == 2:
            return LinearInterpolator1D(self.x, self.y, self.extrapolation)._evaluate_inside(arr)
        idx = np.clip(np.searchsorted(self.x, arr, side="right") - 1, 0, n - 2)
        h = self.x[idx + 1] - self.x[idx]
        m0 = self._second_derivatives[idx]
        m1 = self._second_derivatives[idx + 1]
        y0 = self.y[idx]
        y1 = self.y[idx + 1]
        dx0 = arr - self.x[idx]
        dx1 = self.x[idx + 1] - arr
        return (
            m0 * dx1**3 / (6.0 * h)
            + m1 * dx0**3 / (6.0 * h)
            + (y0 / h - m0 * h / 6.0) * dx1
            + (y1 / h - m1 * h / 6.0) * dx0
        )


class QuadraticSpline1D(Interpolator1D):
    """Piecewise-quadratic spline with continuous first derivative.

    The first segment starts with the secant slope; subsequent segment
    slopes are propagated so that the first derivative is continuous at the
    knots.  Degrades to linear interpolation with fewer than three samples.
    """

    method = InterpolationMethod.QUADRATIC

    def __init__(
        self,
        x: Sequence[float],
        y: Sequence[float],
        extrapolation: ExtrapolationMode = ExtrapolationMode.CLAMP,
    ) -> None:
        super().__init__(x, y, extrapolation)
        self._build_coefficients()

    def _build_coefficients(self) -> None:
        n = self.n_samples
        if n < 3:
            self._slopes = None
            return
        slopes = np.zeros(n)
        slopes[0] = (self.y[1] - self.y[0]) / (self.x[1] - self.x[0])
        for i in range(1, n):
            h = self.x[i] - self.x[i - 1]
            secant = (self.y[i] - self.y[i - 1]) / h
            slopes[i] = 2.0 * secant - slopes[i - 1]
        self._slopes = slopes

    def _evaluate_inside(self, arr: np.ndarray, allow_outside: bool = False) -> np.ndarray:
        n = self.n_samples
        if n == 2 or self._slopes is None:
            return LinearInterpolator1D(self.x, self.y, self.extrapolation)._evaluate_inside(arr)
        idx = np.clip(np.searchsorted(self.x, arr, side="right") - 1, 0, n - 2)
        h = self.x[idx + 1] - self.x[idx]
        s0 = self._slopes[idx]
        s1 = self._slopes[idx + 1]
        y0 = self.y[idx]
        t = arr - self.x[idx]
        # Quadratic with value y0, slope s0 at the left knot and slope s1 at
        # the right knot.
        a = (s1 - s0) / (2.0 * h)
        return y0 + s0 * t + a * t * t


_METHOD_CLASSES = {
    InterpolationMethod.LINEAR: LinearInterpolator1D,
    InterpolationMethod.QUADRATIC: QuadraticSpline1D,
    InterpolationMethod.CUBIC: CubicSpline1D,
}


def make_interpolator(
    x: Sequence[float],
    y: Sequence[float],
    method: InterpolationMethod = InterpolationMethod.CUBIC,
    extrapolation: ExtrapolationMode = ExtrapolationMode.CLAMP,
) -> Interpolator1D:
    """Build the interpolator class matching ``method``."""
    try:
        cls = _METHOD_CLASSES[method]
    except KeyError as exc:  # pragma: no cover - defensive
        raise InterpolationError(f"unsupported interpolation method {method!r}") from exc
    return cls(x, y, extrapolation)
