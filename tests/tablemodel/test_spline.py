"""Tests for the one-dimensional spline interpolators."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.tablemodel.control_string import ExtrapolationMode, InterpolationMethod
from repro.tablemodel.spline import (
    CubicSpline1D,
    InterpolationError,
    LinearInterpolator1D,
    QuadraticSpline1D,
    make_interpolator,
)

ALL_CLASSES = [LinearInterpolator1D, QuadraticSpline1D, CubicSpline1D]


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_interpolator_passes_through_every_sample(cls):
    x = [0.0, 1.0, 2.5, 4.0, 7.0]
    y = [1.0, -2.0, 0.5, 3.0, 3.5]
    interp = cls(x, y)
    for xi, yi in zip(x, y):
        assert interp(xi) == pytest.approx(yi, abs=1e-9)


@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_scalar_and_array_evaluation_agree(cls):
    x = np.linspace(0.0, 5.0, 6)
    y = np.sin(x)
    interp = cls(x, y)
    grid = np.linspace(0.0, 5.0, 17)
    array_result = interp(grid)
    scalar_result = np.array([interp(float(g)) for g in grid])
    assert np.allclose(array_result, scalar_result)


def test_linear_interpolation_midpoint():
    interp = LinearInterpolator1D([0.0, 1.0], [0.0, 10.0])
    assert interp(0.5) == pytest.approx(5.0)
    assert interp(0.25) == pytest.approx(2.5)


def test_cubic_spline_reproduces_cubic_like_smoothness():
    # Interpolating y = x^2 on a fine grid should be very accurate.
    x = np.linspace(-2.0, 2.0, 9)
    y = x**2
    spline = CubicSpline1D(x, y)
    grid = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(spline(grid) - grid**2)) < 0.03


def test_cubic_more_accurate_than_linear_on_smooth_function():
    x = np.linspace(0.0, np.pi, 7)
    y = np.sin(x)
    grid = np.linspace(0.0, np.pi, 101)
    exact = np.sin(grid)
    err_linear = np.max(np.abs(LinearInterpolator1D(x, y)(grid) - exact))
    err_cubic = np.max(np.abs(CubicSpline1D(x, y)(grid) - exact))
    assert err_cubic < err_linear


def test_quadratic_between_linear_and_cubic_in_shape():
    x = np.linspace(0.0, np.pi, 7)
    y = np.sin(x)
    spline = QuadraticSpline1D(x, y)
    # Must still pass through samples and stay bounded on the interval.
    grid = np.linspace(0.0, np.pi, 101)
    values = spline(grid)
    assert np.all(values < 1.5)
    assert np.all(values > -0.5)


def test_clamp_extrapolation_holds_edge_values():
    interp = CubicSpline1D([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], ExtrapolationMode.CLAMP)
    assert interp(-5.0) == pytest.approx(0.0)
    assert interp(10.0) == pytest.approx(4.0)


def test_linear_extrapolation_uses_edge_slope():
    interp = LinearInterpolator1D([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], ExtrapolationMode.LINEAR)
    assert interp(3.0) == pytest.approx(3.0)
    assert interp(-1.0) == pytest.approx(-1.0)


def test_unsorted_input_is_sorted_internally():
    interp = LinearInterpolator1D([2.0, 0.0, 1.0], [4.0, 0.0, 1.0])
    assert interp(1.5) == pytest.approx(2.5)
    assert np.all(np.diff(interp.x) > 0.0)


def test_duplicate_abscissae_are_averaged():
    interp = LinearInterpolator1D([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 3.0, 2.0])
    assert interp.n_samples == 3
    assert interp(1.0) == pytest.approx(2.0)


def test_single_sample_returns_constant():
    interp = CubicSpline1D([1.0], [5.0])
    assert interp(0.0) == pytest.approx(5.0)
    assert interp(100.0) == pytest.approx(5.0)


def test_two_samples_degrade_to_linear():
    spline = CubicSpline1D([0.0, 2.0], [0.0, 4.0])
    assert spline(1.0) == pytest.approx(2.0)


def test_mismatched_lengths_raise():
    with pytest.raises(InterpolationError):
        CubicSpline1D([0.0, 1.0], [1.0])


def test_empty_samples_raise():
    with pytest.raises(InterpolationError):
        LinearInterpolator1D([], [])


def test_non_finite_samples_raise():
    with pytest.raises(InterpolationError):
        CubicSpline1D([0.0, np.nan], [1.0, 2.0])


def test_all_identical_abscissae_collapse_to_constant():
    # One averaged point, like any one-point table: a constant at the mean.
    for cls in (LinearInterpolator1D, QuadraticSpline1D, CubicSpline1D):
        interp = cls([1.0, 1.0, 1.0], [0.0, 2.0, 7.0])
        assert interp.n_samples == 1
        for value in (-5.0, 1.0, 3.0):
            assert interp(value) == pytest.approx(3.0)


def test_make_interpolator_dispatch():
    x, y = [0.0, 1.0, 2.0], [0.0, 1.0, 0.0]
    assert isinstance(
        make_interpolator(x, y, InterpolationMethod.LINEAR), LinearInterpolator1D
    )
    assert isinstance(
        make_interpolator(x, y, InterpolationMethod.QUADRATIC), QuadraticSpline1D
    )
    assert isinstance(make_interpolator(x, y, InterpolationMethod.CUBIC), CubicSpline1D)


def test_cubic_coefficients_match_equation_3():
    # The segment polynomial a(x-xi)^3 + b(x-xi)^2 + c(x-xi) + d must
    # reproduce the spline values inside the segment.
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 0.0, 2.0])
    spline = CubicSpline1D(x, y)
    for segment in range(3):
        a, b, c, d = spline.coefficients(segment)
        for frac in (0.0, 0.3, 0.7, 1.0):
            xi = x[segment] + frac * (x[segment + 1] - x[segment])
            delta = xi - x[segment]
            poly = a * delta**3 + b * delta**2 + c * delta + d
            assert poly == pytest.approx(float(spline(xi)), abs=1e-9)


def test_coefficients_out_of_range_raise():
    spline = CubicSpline1D([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    with pytest.raises(IndexError):
        spline.coefficients(5)


def test_derivative_of_linear_data_is_constant():
    spline = CubicSpline1D([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0])
    assert spline.derivative(1.5) == pytest.approx(2.0, rel=1e-3)


def test_natural_spline_second_derivative_zero_at_ends():
    x = np.linspace(0.0, 4.0, 9)
    y = np.cos(x)
    spline = CubicSpline1D(x, y)
    assert spline._second_derivatives[0] == pytest.approx(0.0)
    assert spline._second_derivatives[-1] == pytest.approx(0.0)


# -- property-based tests -------------------------------------------------------------


@st.composite
def sample_sets(draw, min_size=3, max_size=12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    # Knot spacings below ~1e-9 of the span are numerically meaningless in
    # double precision (hypothesis happily produces abscissae like 3e-295
    # next to 72.0): the tridiagonal solve cancels completely and *no*
    # spline implementation could interpolate through them.  The tolerance
    # in the properties below covers adversarial-but-representable
    # spacings; reject the unrepresentable ones.
    xs_sorted = sorted(xs)
    span = xs_sorted[-1] - xs_sorted[0]
    assume(min(b - a for a, b in zip(xs_sorted, xs_sorted[1:])) >= 1e-9 * max(span, 1e-6))
    ys = draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return xs, ys


@settings(max_examples=40, deadline=None)
@given(sample_sets())
def test_property_cubic_spline_interpolates_all_samples(data):
    xs, ys = data
    spline = CubicSpline1D(xs, ys)
    # Adversarially spaced abscissae (knots separated by ~1e-9 of the span)
    # amplify floating-point cancellation, so the "passes through every
    # sample" property is checked to within a tiny fraction of the data range.
    scale = 1.0 + float(np.max(np.abs(spline.y)))
    for xi, yi in zip(spline.x, spline.y):
        assert spline(float(xi)) == pytest.approx(float(yi), rel=1e-4, abs=1e-6 * scale)


@settings(max_examples=40, deadline=None)
@given(sample_sets())
def test_property_clamped_evaluation_stays_within_sample_range_outside_domain(data):
    xs, ys = data
    spline = CubicSpline1D(xs, ys, ExtrapolationMode.CLAMP)
    lo, hi = spline.domain
    assert spline(lo - 1000.0) == pytest.approx(float(spline.y[0]))
    assert spline(hi + 1000.0) == pytest.approx(float(spline.y[-1]))


@settings(max_examples=40, deadline=None)
@given(sample_sets(), st.floats(min_value=0.0, max_value=1.0))
def test_property_linear_interpolation_is_bounded_by_neighbours(data, frac):
    xs, ys = data
    interp = LinearInterpolator1D(xs, ys)
    x_sorted = interp.x
    for i in range(len(x_sorted) - 1):
        xi = x_sorted[i] + frac * (x_sorted[i + 1] - x_sorted[i])
        value = interp(float(xi))
        lo = min(interp.y[i], interp.y[i + 1]) - 1e-9
        hi = max(interp.y[i], interp.y[i + 1]) + 1e-9
        assert lo <= value <= hi
