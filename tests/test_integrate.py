"""Quadrature engines cross-checked against scipy.integrate oracles.

The closed-form vertex and ridge formulas are the production path; the
scipy routines only appear here, as independent referees.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gplb.errors import DomainError, QuadratureError
from gplb.integrate import (
    PiecewisePolynomial,
    adaptive_box_integral,
    affine_plus_power_integral,
    gl_box,
    pyramid_box_integral,
    pyramid_grid_integrals,
    ridge_box_integral,
)


# ---------------------------------------------------------------------------
# Vertex formula
# ---------------------------------------------------------------------------

def test_affine_positive_part_matches_quad_in_one_dimension():
    # (x - 0.4)_+ over [0, 1]: triangle of base 0.6
    value = affine_plus_power_integral(-0.4, [1.0], [0.0], [1.0], power=1)
    oracle, _ = integrate.quad(lambda x: max(x - 0.4, 0.0), 0.0, 1.0)
    assert value == pytest.approx(0.18, abs=1e-15)
    assert value == pytest.approx(oracle, rel=1e-10)


def test_affine_positive_part_squared_matches_quad():
    value = affine_plus_power_integral(0.3, [0.8], [0.0], [1.0], power=2)
    oracle, _ = integrate.quad(lambda x: max(0.3 + 0.8 * x, 0.0) ** 2, 0.0, 1.0)
    assert value == pytest.approx(oracle, rel=1e-12)


def test_affine_positive_part_matches_dblquad_with_sign_change():
    value = affine_plus_power_integral(0.2, [1.0, -1.0], [0.0, 0.0], [1.0, 1.0], power=1)
    oracle, err = integrate.dblquad(
        lambda y, x: max(0.2 + x - y, 0.0), 0.0, 1.0, 0.0, 1.0
    )
    assert value == pytest.approx(oracle, abs=max(1e-9, 4 * err))


def test_affine_rejects_zero_slope_and_bad_power():
    with pytest.raises(DomainError):
        affine_plus_power_integral(1.0, [0.0, 1.0], [0, 0], [1, 1])
    with pytest.raises(DomainError):
        affine_plus_power_integral(1.0, [1.0], [0.0], [1.0], power=0)


def test_affine_degenerate_box_integrates_to_zero():
    assert affine_plus_power_integral(1.0, [1.0], [0.5], [0.5]) == 0.0


@given(
    alpha=st.floats(-1.0, 1.0),
    beta=st.floats(0.1, 3.0),
    split=st.floats(0.1, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_affine_integral_is_additive_across_a_split(alpha, beta, split):
    whole = affine_plus_power_integral(alpha, [beta], [0.0], [1.0], power=2)
    left = affine_plus_power_integral(alpha, [beta], [0.0], [split], power=2)
    right = affine_plus_power_integral(alpha, [beta], [split], [1.0], power=2)
    assert whole == pytest.approx(left + right, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# Pyramid box integrals
# ---------------------------------------------------------------------------

def test_pyramid_squared_integral_matches_triangle_norm():
    # (1/2 - |x - 1/2|)^2 over [0, 1] integrates to 1/12
    value = pyramid_box_integral([0.5], 0.5, [0.0], [1.0], power=2)
    assert value == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_pyramid_box_integral_matches_dblquad():
    center, hw = [0.5, 0.5], 0.5

    def fn(y, x):
        return max(hw - abs(x - center[0]) - abs(y - center[1]), 0.0)

    value = pyramid_box_integral(center, hw, [0.0, 0.0], [1.0, 1.0], power=1)
    oracle, err = integrate.dblquad(fn, 0.0, 1.0, 0.0, 1.0)
    assert value == pytest.approx(oracle, abs=max(1e-9, 4 * err))


def test_pyramid_box_integral_vanishes_off_support():
    value = pyramid_box_integral([0.25], 0.25, [0.5], [1.0], power=2)
    assert value == 0.0


@given(
    center=st.floats(0.2, 0.8),
    hw=st.floats(0.05, 0.5),
    split=st.floats(0.1, 0.9),
)
@settings(max_examples=200, deadline=None)
def test_pyramid_box_integral_additive_across_splits(center, hw, split):
    whole = pyramid_box_integral([center], hw, [0.0], [1.0], power=2)
    parts = pyramid_box_integral([center], hw, [0.0], [split], power=2) + pyramid_box_integral(
        [center], hw, [split], [1.0], power=2
    )
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-16)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pyramid_grid_integrals_match_the_box_formula_box_by_box(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        center = rng.random(d)
        hw = rng.uniform(0.05, 0.5)
        edges = [np.sort(rng.random(rng.integers(2, 8))) for _ in range(d)]
        edges[0] = np.union1d(edges[0], center[:1])  # a box edge through the center
        grid = pyramid_grid_integrals(center, hw, edges)
        assert grid.shape == tuple(e.size - 1 for e in edges)
        for box in np.ndindex(grid.shape):
            lo = [e[c] for e, c in zip(edges, box)]
            hi = [e[c + 1] for e, c in zip(edges, box)]
            assert grid[box] == pytest.approx(
                pyramid_box_integral(center, hw, lo, hi), rel=1e-12, abs=1e-17
            )


def test_pyramid_grid_integrals_reject_bad_edges():
    with pytest.raises(DomainError):
        pyramid_grid_integrals([0.5, 0.5], 0.25, [[0.0, 1.0]])
    with pytest.raises(DomainError):
        pyramid_grid_integrals([0.5], 0.25, [[0.0, 0.5, 0.5, 1.0]])
    with pytest.raises(DomainError):
        pyramid_grid_integrals([0.5], 0.0, [[0.0, 1.0]])


def test_pyramid_box_integral_rejects_nonpositive_halfwidth():
    with pytest.raises(DomainError):
        pyramid_box_integral([0.5], 0.0, [0.0], [1.0])


# ---------------------------------------------------------------------------
# Piecewise polynomials and ridge integrals
# ---------------------------------------------------------------------------

def test_piecewise_linear_interpolant_matches_np_interp():
    xs = [0.0, 0.3, 1.0]
    ys = [0.0, 0.6, -0.2]
    h = PiecewisePolynomial.from_linear_breakpoints(xs, ys)
    pts = np.linspace(0.0, 1.0, 41)
    assert np.allclose(h(pts), np.interp(pts, xs, ys), atol=1e-14)


def test_piecewise_square_integral_matches_quad():
    h = PiecewisePolynomial.from_linear_breakpoints([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    value = h.squared().integrate_between(0.0, 1.0)
    oracle, _ = integrate.quad(lambda s: np.interp(s, [0, 0.5, 1], [0, 1, 0]) ** 2, 0, 1)
    assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert value == pytest.approx(oracle, rel=1e-9)


def test_integrate_against_shifted_power_matches_quad():
    h = PiecewisePolynomial.from_linear_breakpoints([0.0, 0.4, 1.0], [0.2, 1.0, 0.1])
    c, q = 0.25, 2
    value = h.integrate_against_shifted_power(c, q, 0.0, 1.0)
    oracle, _ = integrate.quad(
        lambda s: np.interp(s, [0, 0.4, 1], [0.2, 1.0, 0.1]) * (s - c) ** q, c, 1.0
    )
    assert value == pytest.approx(oracle, rel=1e-9)


def test_piecewise_polynomial_validates_breakpoints():
    with pytest.raises(DomainError):
        PiecewisePolynomial([0.0], [])
    with pytest.raises(DomainError):
        PiecewisePolynomial([0.0, 0.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(DomainError):
        PiecewisePolynomial([0.0, 1.0], [[1.0], [2.0]])


def test_ridge_integral_of_constant_returns_box_volume():
    h = PiecewisePolynomial([-10.0, 10.0], [[1.0]])
    assert ridge_box_integral(h, [0.0, 0.0, 0.0], [0.5, 1.0, 2.0]) == pytest.approx(1.0)


def test_ridge_integral_matches_dblquad():
    h = PiecewisePolynomial.from_linear_breakpoints([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    value = ridge_box_integral(h, [0.0, 0.0], [1.0, 1.0])

    def fn(y, x):
        return np.interp(x + y, [0, 1, 2], [0, 1, 0])

    oracle, err = integrate.dblquad(fn, 0.0, 1.0, 0.0, 1.0)
    assert value == pytest.approx(oracle, abs=max(1e-9, 4 * err))


def test_ridge_integral_matches_tplquad():
    h = PiecewisePolynomial.from_linear_breakpoints([0.0, 1.5, 3.0], [0.0, 1.0, 0.0])
    value = ridge_box_integral(h, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])

    def fn(z, y, x):
        return np.interp(x + y + z, [0, 1.5, 3], [0, 1, 0])

    oracle, err = integrate.tplquad(fn, 0, 1, 0, 1, 0, 1)
    assert value == pytest.approx(oracle, abs=max(1e-8, 4 * err))


# ---------------------------------------------------------------------------
# Gauss-Legendre and adaptive quadrature
# ---------------------------------------------------------------------------

def test_gl_box_exact_for_polynomials_within_order():
    value = gl_box(lambda p: p[:, 0] ** 7 * p[:, 1] ** 3, [0.0, 0.0], [1.0, 1.0])
    assert value == pytest.approx(1.0 / 32.0, rel=1e-14)


def test_adaptive_integral_of_kink_matches_closed_form():
    closed = 0.3**2 / 2 + 0.7**2 / 2  # integral of |x - 0.3| over [0, 1]
    value = adaptive_box_integral(
        lambda p: np.abs(p[:, 0] - 0.3), [0.0], [1.0], tol=1e-12
    )
    assert value == pytest.approx(closed, rel=1e-11)


def test_adaptive_integral_matches_pyramid_formula_in_two_dimensions():
    center, hw = np.array([0.5, 0.5]), 0.5

    def fn(pts):
        return np.maximum(hw - np.abs(pts - center).sum(axis=1), 0.0) ** 2

    exact = pyramid_box_integral(center, hw, [0.0, 0.0], [1.0, 1.0], power=2)
    value = adaptive_box_integral(fn, [0.0, 0.0], [1.0, 1.0], tol=1e-10)
    assert value == pytest.approx(exact, rel=1e-8)


def test_adaptive_quadrature_failure_carries_diagnostics():
    jump = math.sqrt(2.0) / 2.0

    def fn(pts):
        return (pts[:, 0] > jump).astype(float)

    with pytest.raises(QuadratureError) as excinfo:
        adaptive_box_integral(fn, [0.0], [1.0], tol=1e-15, max_depth=3)
    diag = excinfo.value.diagnostics
    assert diag["depth"] == 3
    assert diag["difference"] > diag["tolerance"]
    assert len(diag["box_lo"]) == 1
