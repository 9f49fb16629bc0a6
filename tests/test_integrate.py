"""Quadrature engines cross-checked against scipy.integrate oracles.

The closed-form vertex and ridge formulas are the production path; the
scipy routines only appear here, as independent referees.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gplb.adversarial import build_pyramid_family, evaluate_pyramid, pyramid_norm_sq
from gplb.errors import DomainError, QuadratureError
from gplb.integrate import (
    _GL_NODES,
    _GL_WEIGHTS,
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_pyramid_grid_integrals_equal_each_rows_call(d):
    # centers inside a row, on one of its breakpoints, and outside it
    rng = np.random.default_rng(20 + d)
    hw = 0.3
    rows = [3, 2, 4][:d]
    size = [6, 5, 4][:d]
    edges = [np.sort(rng.random((k, p)), axis=1) for k, p in zip(rows, size)]
    centers = [rng.uniform(-0.2, 1.2, k) for k in rows]
    centers[0][0] = edges[0][0, 2]
    stacked = pyramid_grid_integrals(centers, hw, edges)
    assert stacked.shape == tuple(x for k, p in zip(rows, size) for x in (k, p - 1))
    for position in np.ndindex(*rows):
        center = [c[l] for c, l in zip(centers, position)]
        single = pyramid_grid_integrals(center, hw, [e[l] for e, l in zip(edges, position)])
        window = tuple(x for l in position for x in (l, slice(None)))
        assert np.array_equal(stacked[window], single)


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
    value = ridge_box_integral(h.squared(), [0.0], [1.0])
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

def test_gl_box_over_a_stack_equals_box_by_box():
    rng = np.random.default_rng(3)
    lo = rng.random((10, 2))
    hi = lo + rng.random((10, 2))
    hi[3, 1] = lo[3, 1]  # an empty box

    def fn(pts):
        return np.exp(pts[..., 0]) * np.cos(3.0 * pts[..., 1])

    stacked = gl_box(fn, lo, hi)
    assert stacked.tolist() == [gl_box(fn, a, b) for a, b in zip(lo, hi)]
    assert stacked[3] == 0.0


def test_gl_box_hands_the_integrand_c_ordered_points():
    # values computed elementwise from C-ordered points come back C-ordered,
    # so no box's row has to be copied before its dot with the weights
    rng = np.random.default_rng(4)
    lo = rng.random((6, 3))
    seen = []

    def fn(pts):
        seen.append(pts.flags.c_contiguous)
        return np.sin(pts[..., 0]) * pts[..., 1] + pts[..., 2]

    gl_box(fn, lo, lo + 0.5)
    gl_box(fn, lo[0], lo[0] + 0.5)
    assert seen == [True, True]


def test_the_rule_is_leggauss_8_on_the_unit_interval():
    # written out, so no call runs LAPACK; moved to [0, 1] as leggauss(8) would be
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(_GL_NODES, (nodes + 1.0) / 2.0)
    assert np.array_equal(_GL_WEIGHTS, weights / 2.0)
    assert not _GL_NODES.flags.writeable and not _GL_WEIGHTS.flags.writeable
    # exact through degree 15; the nodes' rounding, spread p-fold by x^p,
    # leaves up to about 20 ulp at p = 15, under the 2 (p + 1) ulp allowed
    for p in range(16):
        value = Fraction(gl_box(lambda pts: pts[:, 0] ** p, [0.0], [1.0]))
        exact = Fraction(1, p + 1)
        assert abs(value - exact) <= exact * 2 * (p + 1) * Fraction(2) ** -52, p


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


# ---------------------------------------------------------------------------
# The box-by-box adaptive quadrature that adaptive_box_integral batches,
# kept as its bit-for-bit oracle
# ---------------------------------------------------------------------------

def meshgrid_gl_box(fn, lo, hi, order=8):
    """Tensor Gauss-Legendre over one box, built with np.meshgrid and outer products."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    if np.any(hi <= lo):
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    axes_pts = [lo[i] + (hi[i] - lo[i]) * nodes for i in range(d)]
    axes_wts = [(hi[i] - lo[i]) * weights for i in range(d)]
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = axes_wts[0]
    for w in axes_wts[1:]:
        wts = np.multiply.outer(wts, w)
    return float(np.asarray(fn(pts), dtype=float) @ wts.ravel())


def recursive_adaptive_integral(fn, lo, hi, tol, order=8, max_depth=40):
    """Adaptive quadrature that integrates each box, then each of its children, on its own."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def recurse(box_lo, box_hi, box_tol, depth):
        coarse = meshgrid_gl_box(fn, box_lo, box_hi, order)
        mid = (box_lo + box_hi) / 2.0
        children = []
        for mask in itertools.product((0, 1), repeat=box_lo.size):
            children.append((np.where(mask, mid, box_lo), np.where(mask, box_hi, mid)))
        refined = sum(meshgrid_gl_box(fn, c_lo, c_hi, order) for c_lo, c_hi in children)
        accept = max(box_tol, 4e-16 * (abs(coarse) + abs(refined)))
        if abs(refined - coarse) <= accept:
            return refined
        if depth >= max_depth:
            raise QuadratureError(
                "adaptive quadrature failed to converge",
                diagnostics={
                    "box_lo": box_lo.tolist(),
                    "box_hi": box_hi.tolist(),
                    "coarse": coarse,
                    "refined": refined,
                    "difference": abs(refined - coarse),
                    "tolerance": box_tol,
                    "depth": depth,
                },
            )
        return sum(recurse(c_lo, c_hi, box_tol / 2.0, depth + 1) for c_lo, c_hi in children)

    return recurse(lo, hi, tol, 0)


class Counted:
    """An integrand that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, pts):
        self.calls += 1
        return self.fn(pts)


def pyramid_squared(d, k):
    family = build_pyramid_family(d, k)
    return (
        lambda pts: evaluate_pyramid(family, 0, pts) ** 2,
        family.centers[0] - family.bandwidth,
        family.centers[0] + family.bandwidth,
        pyramid_norm_sq(d, k),
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", [8])  # gl_box's one rule, which the oracle finds with leggauss
def test_gl_box_is_bit_equal_to_the_meshgrid_rule(d, order):
    rng = np.random.default_rng(10 * d + order)
    for _ in range(50):
        center, halfwidth = rng.random(d), rng.uniform(0.1, 0.6)

        def fn(pts):
            return np.maximum(halfwidth - np.abs(pts - center).sum(axis=1), 0.0) ** 2

        lo = rng.random(d)
        hi = lo + rng.uniform(0.01, 0.7, d)
        assert gl_box(fn, lo, hi) == meshgrid_gl_box(fn, lo, hi, order)


KINKS = {
    "abs-1d": (lambda pts: np.abs(pts[:, 0] - 0.3), [0.0], [1.0], 1e-12),
    "jump-slope-1d": (lambda pts: np.maximum(pts[:, 0] - math.sqrt(0.5), 0.0) ** 3, [0.1], [0.95], 1e-13),
    "cone-2d": (
        lambda pts: np.maximum(0.5 - np.abs(pts - 0.5).sum(axis=1), 0.0) ** 2,
        [0.0, 0.0], [1.0, 1.0], 1e-10),
    "ridge-2d": (
        lambda pts: np.abs(pts[:, 0] + 2.0 * pts[:, 1] - 1.1), [0.0, -0.2], [0.9, 1.0], 1e-7),
    "ridge-3d": (
        lambda pts: np.maximum(pts.sum(axis=1) - 1.2, 0.0), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1e-5),
}


@pytest.mark.parametrize("name", sorted(KINKS))
@pytest.mark.parametrize("order", [8])  # adaptive_box_integral's one rule
def test_adaptive_integral_is_bit_equal_to_the_recursive_oracle(name, order):
    fn, lo, hi, tol = KINKS[name]
    batched, oracle = Counted(fn), Counted(fn)
    value = adaptive_box_integral(batched, lo, hi, tol)
    assert value == recursive_adaptive_integral(oracle, lo, hi, tol, order)
    # the oracle calls fn once per box and once per child; one call per box
    # (plus the first box) covers every child of a box
    boxes = oracle.calls // (1 + 2 ** len(lo))
    assert oracle.calls == boxes * (1 + 2 ** len(lo)) and batched.calls == 1 + boxes


@pytest.mark.parametrize("d, k", [(1, 2), (2, 1), (3, 1), (3, 2)])
def test_adaptive_pyramid_norm_is_bit_equal_to_the_recursive_oracle(d, k):
    fn, lo, hi, closed = pyramid_squared(d, k)
    tol = closed * 1e-5
    assert adaptive_box_integral(fn, lo, hi, tol) == recursive_adaptive_integral(fn, lo, hi, tol)


def test_adaptive_integral_of_a_zero_width_box_is_zero_without_calls():
    fn = Counted(lambda pts: np.ones(len(pts)))
    for lo, hi in (([0.2], [0.2]), ([0.0, 0.5, 0.0], [1.0, 0.5, 1.0]), ([0.3, 0.0], [0.1, 1.0])):
        value = adaptive_box_integral(fn, lo, hi, tol=1e-12)
        assert value == recursive_adaptive_integral(fn, lo, hi, tol=1e-12) == 0.0
    assert fn.calls == 0


@pytest.mark.parametrize("max_depth", [0, 3])
def test_adaptive_failure_diagnostics_equal_the_recursive_oracle(max_depth):
    def fn(pts):
        return (pts[:, 0] + 0.5 * pts[:, 1] > math.sqrt(2.0) / 2.0).astype(float)

    failures = []
    for integral in (adaptive_box_integral, recursive_adaptive_integral):
        with pytest.raises(QuadratureError) as excinfo:
            integral(fn, [0.0, 0.0], [1.0, 1.0], tol=1e-15, max_depth=max_depth)
        failures.append((str(excinfo.value), excinfo.value.diagnostics))
    assert failures[0] == failures[1]
    assert failures[0][1]["depth"] == max_depth
