"""Pyramid families, their coefficients, and the coordinatewise risk floor.

Independent oracles: scipy quadrature for d <= 2 norms and coefficients,
the separately validated adaptive panel integrator for d = 3, and direct
closed-form arithmetic for every constant.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import from_dense
from gplb.adversarial import (
    MAX_FAMILY_SIZE,
    CoefficientMatrix,
    _window_plan,
    _windows,
    build_pyramid_family,
    coefficient_work_bytes,
    compute_coefficients,
    evaluate_pyramid,
    grid_target,
    lower_bound_constants,
    mean_risk_floor,
    n_threshold,
    pyramid_norm_sq,
    risk_lower_bound,
    tk_matched_spectrum,
    worst_member,
)
from gplb.errors import ContractError, DomainError
from gplb.harness.study import grid_count
from gplb.integrate import adaptive_box_integral, gl_box, pyramid_box_integral, pyramid_grid_integrals
from gplb.sequence_core import SparseRows, Spectrum, TruthCoefficients, exact_risk
from gplb.wavelet import HaarTensorBasis, haar_tensor_basis
from test_sequence_core import dense_risks, traced_peak
from test_wavelet import constant_panels


def within_ulps(actual, expected, ulps=4):
    """Whether every value is within ``ulps`` units in the last place of its expected value."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return bool(np.all(np.abs(actual - expected) <= ulps * np.spacing(np.abs(expected))))


def pyramid_fn(center, bandwidth):
    def fn(pts):
        return np.maximum(bandwidth - np.abs(pts - center).sum(axis=1), 0.0)

    return fn


# ---------------------------------------------------------------------------
# Family construction and pointwise evaluation
# ---------------------------------------------------------------------------

def test_unit_family_has_single_centered_member():
    family = build_pyramid_family(1, 1)
    assert family.m == 1
    assert family.bandwidth == 0.5
    assert np.allclose(family.centers, [[0.5]])


def test_grid_centers_match_the_midpoint_formula():
    family = build_pyramid_family(2, 3)
    assert family.m == 9
    axis = {1.0 / 6.0, 0.5, 5.0 / 6.0}
    seen = {tuple(c) for c in np.round(family.centers, 12)}
    expected = {(round(a, 12), round(b, 12)) for a in axis for b in axis}
    assert seen == expected


def test_family_size_cap_and_bad_arguments():
    with pytest.raises(DomainError):
        build_pyramid_family(1, MAX_FAMILY_SIZE + 1)
    with pytest.raises(DomainError):
        build_pyramid_family(0, 1)
    with pytest.raises(DomainError):
        build_pyramid_family(1, 0)
    # a fractional dimension once failed with a TypeError from the center grid
    with pytest.raises(DomainError, match="dimension d must be an integer, got 1.5"):
        build_pyramid_family(1.5, 2)
    with pytest.raises(DomainError, match="grid count k must be an integer, got 2.0"):
        pyramid_norm_sq(1, 2.0)


def test_pointwise_values_at_peak_boundary_and_quarter():
    family = build_pyramid_family(1, 1)
    assert evaluate_pyramid(family, 0, np.array([0.5])) == pytest.approx(0.5)
    assert evaluate_pyramid(family, 0, np.array([0.0])) == 0.0
    assert evaluate_pyramid(family, 0, np.array([0.25])) == pytest.approx(0.25)
    two = build_pyramid_family(2, 2)
    peak = evaluate_pyramid(two, 3, two.centers[3])
    assert peak == pytest.approx(two.bandwidth)
    off = two.centers[3] + np.array([two.bandwidth, 0.0])
    assert evaluate_pyramid(two, 3, off) == 0.0


def test_stacked_members_equal_one_member_at_a_time():
    family = build_pyramid_family(3, 2)
    pts = np.random.default_rng(4).random((500, 3))
    members = np.arange(family.m)
    shared = evaluate_pyramid(family, members, pts)
    own = evaluate_pyramid(family, members[::-1], np.stack([pts] * family.m))
    for j in members:
        assert np.array_equal(shared[j], evaluate_pyramid(family, j, pts))
        assert np.array_equal(own[family.m - 1 - j], evaluate_pyramid(family, j, pts))
    with pytest.raises(DomainError):
        evaluate_pyramid(family, [0, family.m], pts)


def test_evaluation_rejects_bad_member_and_out_of_cube_points():
    family = build_pyramid_family(1, 2)
    with pytest.raises(DomainError):
        evaluate_pyramid(family, 2, np.array([0.5]))
    with pytest.raises(DomainError):
        evaluate_pyramid(family, 0, np.array([1.5]))
    with pytest.raises(DomainError):
        evaluate_pyramid(family, 0, np.array([[0.2], [-0.1]]))
    with pytest.raises(DomainError):
        evaluate_pyramid(family, 0, np.array([0.2, 0.3]))


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_members_are_one_lipschitz_in_l1_distance(d, k, data):
    family = build_pyramid_family(d, k)
    j = data.draw(st.integers(min_value=0, max_value=family.m - 1))
    coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    x = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    y = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
    fx = evaluate_pyramid(family, j, x)
    fy = evaluate_pyramid(family, j, y)
    assert abs(fx - fy) <= np.abs(x - y).sum() + 1e-12
    assert 0.0 <= fx <= family.bandwidth


def test_membership_sup_norm_and_coordinatewise_lipschitz_slack():
    # Finite differences along every coordinate stay below slope 1 within
    # the admission slack, and the sup-norm equals the bandwidth.
    rng = np.random.default_rng(5)
    for d, k in [(1, 1), (1, 4), (2, 3), (3, 2)]:
        family = build_pyramid_family(d, k)
        pts = rng.uniform(0.0, 1.0, size=(200, d))
        for j in range(min(family.m, 4)):
            values = evaluate_pyramid(family, j, pts)
            assert np.max(values) <= family.bandwidth + 1e-15
            h = 1e-4
            for axis in range(d):
                stepped = np.minimum(pts[:, axis] + h, 1.0)
                shifted = pts.copy()
                shifted[:, axis] = stepped
                diff = np.abs(evaluate_pyramid(family, j, shifted) - values)
                assert np.all(diff <= (stepped - pts[:, axis]) + 1e-8)
            assert evaluate_pyramid(family, j, family.centers[j]) == pytest.approx(
                family.bandwidth
            )


def test_supports_are_pairwise_disjoint():
    for d, k in [(1, 3), (2, 2)]:
        family = build_pyramid_family(d, k)
        axis = np.linspace(0.0, 1.0, 41)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        values = np.stack(
            [evaluate_pyramid(family, j, pts) for j in range(family.m)]
        )
        products = values[:, None, :] * values[None, :, :]
        off_diagonal = ~np.eye(family.m, dtype=bool)
        assert np.max(products[off_diagonal]) == 0.0


def test_pairwise_product_quadrature_vanishes():
    family = build_pyramid_family(2, 2)
    for a in range(family.m):
        for b in range(a + 1, family.m):
            fa = pyramid_fn(family.centers[a], family.bandwidth)
            fb = pyramid_fn(family.centers[b], family.bandwidth)
            value = gl_box(
                lambda pts: fa(pts) * fb(pts), np.zeros(2), np.ones(2), order=8
            )
            assert abs(value) < 1e-12


# ---------------------------------------------------------------------------
# Norms against quadrature oracles
# ---------------------------------------------------------------------------

def test_norm_closed_form_frozen_values():
    assert pyramid_norm_sq(1, 1) == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert pyramid_norm_sq(1, 2) == pytest.approx(1.0 / 96.0, rel=1e-15)
    assert pyramid_norm_sq(2, 1) == pytest.approx(1.0 / 48.0, rel=1e-15)
    with pytest.raises(DomainError):
        pyramid_norm_sq(0, 1)
    with pytest.raises(DomainError):
        pyramid_norm_sq(1, 0)


def test_norm_matches_scipy_quadrature_univariate():
    for k in (1, 2, 4):
        family = build_pyramid_family(1, k)
        c = family.centers[0][0]
        b = family.bandwidth
        value, err = integrate.quad(
            lambda x: max(b - abs(x - c), 0.0) ** 2, 0.0, 1.0, points=[c - b, c, c + b]
        )
        assert value == pytest.approx(pyramid_norm_sq(1, k), rel=1e-9)


def test_norm_matches_scipy_quadrature_bivariate():
    family = build_pyramid_family(2, 2)
    cx, cy = family.centers[0]
    b = family.bandwidth
    value, err = integrate.dblquad(
        lambda y, x: max(b - abs(x - cx) - abs(y - cy), 0.0) ** 2,
        cx - b,
        cx + b,
        cy - b,
        cy + b,
    )
    assert value == pytest.approx(pyramid_norm_sq(2, 2), rel=1e-7)


def test_norm_matches_adaptive_panels_in_three_dimensions():
    # The adaptive integrator is itself validated against scipy elsewhere;
    # here it serves as the oracle where scipy's nested quadrature is slow.
    for k in (1, 2):
        family = build_pyramid_family(3, k)
        center = family.centers[0]
        b = family.bandwidth
        fn = pyramid_fn(center, b)
        value = adaptive_box_integral(
            lambda pts: fn(pts) ** 2, center - b, center + b, tol=1e-12
        )
        assert value == pytest.approx(pyramid_norm_sq(3, k), rel=1e-8)


def test_norm_large_dimension_uses_log_space_safely():
    # at large d, where (d+2)! is far beyond exact float range, the norm
    # stays finite and agrees with the direct float formula
    for d in (20, 60, 100):
        direct = 1.0 / (2.0 * math.factorial(d + 2)) * 3.0 ** -(d + 2)
        assert pyramid_norm_sq(d, 3) == pytest.approx(direct, rel=1e-12)


def test_norm_keeps_the_float_factorial_bits_and_rounds_correctly_beyond():
    # through d = 15, 2 (d+2)! is exact in a float, so the float formula
    # pins every bit; past it k^-(d+2) / (2 (d+2)!) is the correctly rounded
    # rational, at k = 1 and at k = 3 for d = 20, 60, 100
    for d, k in itertools.product(range(1, 16), range(1, 9)):
        assert pyramid_norm_sq(d, k) == 1.0 / (2.0 * math.factorial(d + 2)) * float(k) ** -(d + 2)
    for d, k in [(d, 1) for d in range(16, 200)] + [(20, 3), (60, 3), (100, 3)]:
        assert pyramid_norm_sq(d, k) == float(Fraction(1, 2 * math.factorial(d + 2) * k ** (d + 2)))


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------

def test_unit_pyramid_coefficients_against_haar_scaling_and_mother():
    family = build_pyramid_family(1, 1)
    basis = haar_tensor_basis(1, 0)
    coeffs = compute_coefficients(family, basis, 2)
    assert coeffs.entries.shape == (1, 2)
    assert coeffs.entries[0, 0] == pytest.approx(0.25, rel=1e-14)
    assert abs(coeffs.entries[0, 1]) < 1e-15
    assert coeffs.basis_id == basis.basis_id


def test_coefficients_match_scipy_for_a_shifted_member():
    family = build_pyramid_family(1, 2)
    basis = haar_tensor_basis(1, 2)
    coeffs = compute_coefficients(family, basis, basis.size)
    c = family.centers[1][0]
    b = family.bandwidth
    for col in range(basis.size):
        expected, _ = integrate.quad(
            lambda x: max(b - abs(x - c), 0.0)
            * float(basis.evaluate(col, np.array([[x]]))[0]),
            c - b,
            c + b,
            points=[c - b, c, c + b],
            limit=200,
        )
        assert coeffs.entries[1, col] == pytest.approx(expected, abs=1e-12)


def test_row_energy_approaches_the_norm_with_depth():
    # Bessel from below, Parseval in the limit: the truncation gap is the
    # piecewise-linear projection error and shrinks fourfold per level.
    family = build_pyramid_family(1, 1)
    norm = pyramid_norm_sq(1, 1)
    gaps = []
    for J in (6, 7, 8, 9):
        basis = haar_tensor_basis(1, J)
        coeffs = compute_coefficients(family, basis, basis.size)
        mass = float((coeffs.entries[0] ** 2).sum())
        assert mass <= norm * (1.0 + 1e-12)
        gaps.append(norm - mass)
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all(ratios > 3.8) and np.all(ratios < 4.2)
    assert gaps[-1] / norm < 1e-6


def per_panel_coefficients(family, basis, K, members):
    """Oracle: every panel of every basis function, integrated one box at a time."""
    panels = [tuple(constant_panels(basis, position)) for position in range(K)]
    rows = np.zeros((len(members), K))
    for row, j in enumerate(members):
        center = family.centers[j]
        lo_j, hi_j = center - family.bandwidth, center + family.bandwidth
        for col, index_panels in enumerate(panels):
            for lo, hi, value in index_panels:
                if np.any(lo >= hi_j) or np.any(hi <= lo_j):
                    continue
                rows[row, col] += value * pyramid_box_integral(
                    center, family.bandwidth, lo, hi
                )
    return rows


@pytest.mark.parametrize(
    "d,k,J,K,members",
    [
        (1, 4, 5, None, None),  # power-of-two k: centers on cell edges
        (1, 3, 4, 20, None),  # odd k, K cut inside the resolution-4 group
        (1, 5, 0, None, None),  # basis coarser than the grid
        (2, 4, 3, None, None),
        (2, 3, 3, 150, None),  # cut inside the resolution-3 group (64..255)
        (3, 2, 2, None, None),
        (3, 3, 3, 300, (0, 13, 26)),  # cut inside the resolution-2 group (64..511)
    ],
)
def test_coefficients_match_the_per_panel_oracle(d, k, J, K, members):
    family = build_pyramid_family(d, k)
    basis = haar_tensor_basis(d, J)
    K = basis.size if K is None else K
    members = range(family.m) if members is None else members
    coeffs = compute_coefficients(family, basis, K)
    oracle = per_panel_coefficients(family, basis, K, members)
    deviation = np.max(np.abs(coeffs.entries[list(members)] - oracle))
    assert deviation <= 1e-13 * math.sqrt(pyramid_norm_sq(d, k))


def member_cells(family, N):
    """Oracle: each member's N^d finest-cell integrals, its support block at a time.

    Member j sits at grid position (l_1, ..., l_d) and is supported on
    prod_i [l_i/k, (l_i+1)/k]; the vertex formula integrates the cells
    meeting that block (cells first_l .. stop_l - 1 per axis, in integers),
    and every other cell is 0.
    """
    first = np.arange(family.k) * N // family.k
    stop = -((-np.arange(1, family.k + 1) * N) // family.k)
    edges = [np.arange(a, b + 1) / N for a, b in zip(first, stop)]
    for j, position in enumerate(np.ndindex(*(family.k,) * family.d)):
        cells = np.zeros((N,) * family.d)
        block = tuple(slice(first[l], stop[l]) for l in position)
        cells[block] = pyramid_grid_integrals(
            family.centers[j], family.bandwidth, [edges[l] for l in position]
        )
        yield cells


def per_member_coefficients(family, basis, K):
    """Oracle: the dense fast Haar transform of every member's cells, one member at a time."""
    entries = np.zeros((family.m, K))
    for j, cells in enumerate(member_cells(family, basis.cells_per_axis)):
        entries[j] = basis.analyze(cells)[:K]
    return entries


# (d, k, J): power-of-two k (centers on cell edges), odd k, k with a
# center on a cell edge only at some positions (k = 3, 6, 10), bases below
# the minimal level (J = 0 with k = 5) and far above it
PER_MEMBER_CASES = [
    (1, k, J) for k in (1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 16, 20) for J in (0, 1, 2, 3, 4, 5, 8)
] + [
    (2, k, J) for k in (1, 2, 3, 4, 5, 6, 7) for J in (0, 1, 2, 3, 4, 5)
] + [
    (3, k, J) for k in (1, 2, 3, 4, 5) for J in (0, 1, 2, 3)
]


@pytest.mark.parametrize("d,k,J", PER_MEMBER_CASES)
def test_coefficients_equal_the_per_member_transform_bit_for_bit(d, k, J):
    family = build_pyramid_family(d, k)
    basis = haar_tensor_basis(d, J)
    # every K, one cut inside the finest resolution group, the first member
    for K in sorted({basis.size, basis.size - basis.size // 3, 1}):
        assert np.array_equal(
            compute_coefficients(family, basis, K).entries, per_member_coefficients(family, basis, K)
        ), K


def dense_scatter(family, basis, K):
    """Oracle: the windowed pass's coefficients scattered into a dense m x K matrix.

    The stacked window values and their basis positions come from
    ``analyze_windows`` as in :func:`compute_coefficients`; member
    (l_1, ..., l_d) is row l_1 k^{d-1} + ... + l_d, and every entry no
    window reaches is 0.
    """
    d, k, N = family.d, family.k, basis.cells_per_axis
    starts, width = _windows(k, N)
    edges = (starts[:, None] + np.arange(width + 1)) / N
    cells = pyramid_grid_integrals([family.centers[:k, -1]] * d, family.bandwidth, [edges] * d)
    first = np.arange(k) * N // k
    stop = -((-np.arange(1, k + 1) * N) // k)
    cell = starts[:, None] + np.arange(width)
    inside = ((first[:, None] <= cell) & (cell < stop[:, None])).astype(float)
    for axis in range(d):
        shape = [1] * (2 * d)
        shape[2 * axis : 2 * axis + 2] = inside.shape
        cells *= inside.reshape(shape)
    values, positions = basis.analyze_windows(cells, starts)
    member = np.broadcast_to(np.arange(family.m).reshape((k, 1) * d), positions.shape)
    kept = positions < K
    entries = np.zeros((family.m, K))
    entries[member[kept], positions[kept]] = values[kept]
    return entries


@pytest.mark.parametrize("d,k,J", PER_MEMBER_CASES)
def test_store_passes_match_the_dense_scatter(d, k, J):
    family = build_pyramid_family(d, k)
    basis = haar_tensor_basis(d, J)
    n, norm_sq = 1e3, pyramid_norm_sq(d, k)
    for K in sorted({basis.size, basis.size - basis.size // 3, 1}):
        coeffs = compute_coefficients(family, basis, K)
        dense = dense_scatter(family, basis, K)
        assert np.array_equal(coeffs.entries, dense), K
        assert np.count_nonzero(coeffs.values == 0.0) == 0 and coeffs.values.size == np.count_nonzero(dense)
        assert np.array_equal(coeffs.tk, (dense**2).mean(axis=0)), K
        mass = np.sum(dense**2, axis=1)
        assert within_ulps(coeffs.row_mass, mass), K
        spectrum = tk_matched_spectrum(coeffs)
        risks = coeffs.risks(spectrum, n, norm_sq)
        dense_tails = np.maximum(norm_sq - mass, 0.0)
        in_span = dense_risks(spectrum.eigenvalues, dense, n)
        assert within_ulps(coeffs.risks(spectrum, n), in_span), K
        assert within_ulps(risks, in_span + dense_tails), K


def test_coefficient_work_bytes_bounds_the_traced_peak():
    # fresh bases, so the peak includes building the basis's order and rank;
    # the risk-d2 points, d = 3 at n = 1e4, minimal-level bases and a cut K
    for d, k, J, K in [
        (2, 2, 5, None), (2, 3, 6, None), (2, 4, 6, None), (3, 2, 5, None),
        (1, 5, 4, None), (2, 3, 3, None), (3, 2, 2, None), (1, 5, 0, None), (2, 4, 6, 1000),
        (3, 2, 5, 1),
    ]:
        basis = HaarTensorBasis(d, J)
        K = basis.size if K is None else K
        family = build_pyramid_family(d, k)
        tracemalloc.start()
        try:
            compute_coefficients(family, basis, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= coefficient_work_bytes(d, k, J, K), (d, k, J, K)


def test_window_plan_width_is_the_widest_aligned_block():
    # the closed form of _window_plan against the pass over every position
    for k in range(1, 40):
        for J in range(0, 9):
            N = 2 ** (J + 1)
            first = np.arange(k) * N // k
            stop = -((-np.arange(1, k + 1) * N) // k)
            T, width = _window_plan(k, N)
            assert width == int(np.max((-(-stop >> T) << T) - (first >> T << T)))
            starts, same = _windows(k, N)
            assert same == width and np.all(starts % 2**T == 0)
            assert np.all(starts <= first) and np.all(starts + width >= stop)
            assert np.all(starts >= 0) and np.all(starts + width <= N)


def test_tk_values_are_computed_once_and_read_only():
    coeffs = compute_coefficients(build_pyramid_family(2, 3), haar_tensor_basis(2, 4), 200)
    tk = coeffs.tk
    assert not tk.flags.writeable
    assert np.array_equal(tk, (coeffs.entries**2).mean(axis=0))
    assert np.array_equal(tk_matched_spectrum(coeffs).eigenvalues, tk)
    assert risk_lower_bound(coeffs, 1e4) == float(np.minimum(tk, 1e-4).sum())
    # 2025 members with half their coefficients 0: one bincount has the bits of the column mean
    family = build_pyramid_family(1, 2025)
    rng = np.random.default_rng(5)
    entries = rng.standard_normal((family.m, 1200)) * 1e-9 * (rng.random((family.m, 1200)) < 0.5)
    sparse = from_dense(CoefficientMatrix, entries, "haar1d_J10", family)
    assert np.array_equal(sparse.tk, (entries**2).mean(axis=0))
    assert np.array_equal(sparse.entries, entries)


B = 2**14  # 128 KiB of float64: the shapes below lie on either side of it


@pytest.mark.parametrize(
    "m,K",
    [
        (1, 1), (1, 7), (9, 1),  # one row, one column
        (16, B // 16 - 1), (16, B // 16), (16, B // 16 + 1),  # the first block edge
        (16, 2 * (B // 16 - 1) + 1), (9, 3 * (B // 9 - 1) + 2),  # a lone last column, two
        (1, B + 3), (2, 2 * B + 1),  # K longer than the budget
        (B // 2, 5), (B // 2 + 1, 4),  # columns longer than a third of it
    ],
)
def test_blocked_tk_equals_the_one_expression_bit_for_bit(m, K):
    # one row or column, many rows, K past 2^14: the store's T_k is
    # one bincount, which must keep the dense column mean's bits at each shape
    rng = np.random.default_rng(m + K)
    entries = rng.standard_normal((m, K)) * 10.0 ** rng.uniform(-9.0, 0.0, (m, K))
    family = build_pyramid_family(1, m)
    # scaled under the member norm, so the Bessel check passes
    entries *= math.sqrt(pyramid_norm_sq(1, m) / 2.0 / np.max(np.sum(entries**2, axis=1)))
    coeffs = from_dense(CoefficientMatrix, entries, "b", family)
    assert np.array_equal(coeffs.tk, (entries**2).mean(axis=0))
    assert within_ulps(coeffs.row_mass, np.sum(entries**2, axis=1))
    # a row over the norm, its mass spread over every column, is refused
    entries[m // 2] *= math.sqrt(1.1 * pyramid_norm_sq(1, m) / np.sum(entries[m // 2] ** 2))
    with pytest.raises(ContractError, match="exceed the member norm"):
        from_dense(CoefficientMatrix, entries, "b", family)


def test_tk_pass_stays_within_the_block_budget():
    # the largest risk-d2 point's shape, 16 members and 16384 coefficients,
    # every tenth one stored: building the matrix holds one array of squares
    # at a time and T_k, and nothing of m x K
    family = build_pyramid_family(2, 4)
    rng = np.random.default_rng(4)
    entries = rng.standard_normal((16, 16384)) * math.sqrt(pyramid_norm_sq(2, 4) / 2.0 / 16384)
    entries[:, np.arange(16384) % 10 != 0] = 0.0
    store = from_dense(SparseRows, entries, "b")
    tk, peak = traced_peak(
        lambda: CoefficientMatrix(store.values, store.columns, store.row_starts, 16384, "b", family).tk
    )
    # one square and one column copy per stored value (np.bincount copies
    # read-only input), T_k and its bincount, 8 KiB for headers and vectors of m
    assert peak <= store.values.nbytes + store.columns.nbytes + 2 * tk.nbytes + 8192, peak


def test_coefficient_matrix_keeps_a_read_only_float_array_and_copies_others():
    family = build_pyramid_family(1, 2)
    arrays = [np.array([0.1, -0.1]), np.array([0, 2]), np.array([0, 1, 2])]
    for arr in arrays:
        arr.setflags(write=False)
    frozen = CoefficientMatrix(*arrays, 3, "haar1d_J0", family)
    assert all(kept is arr for kept, arr in zip((frozen.values, frozen.columns, frozen.row_starts), arrays))
    writable = [np.array([0.1, -0.1]), [0, 2], np.array([0, 1, 2], dtype=np.int32)]
    copied = CoefficientMatrix(*writable, 3, "haar1d_J0", family)
    for kept, arr in zip((copied.values, copied.columns, copied.row_starts), writable):
        assert kept is not arr and not kept.flags.writeable and kept.dtype in (np.float64, np.int64)
    assert writable[0].flags.writeable
    assert np.array_equal(copied.entries, [[0.1, 0.0, 0.0], [0.0, 0.0, -0.1]])
    assert not copied.entries.flags.writeable


def test_sparse_rows_contract_errors():
    family = build_pyramid_family(1, 2)
    values = np.array([0.1, 0.2])
    for columns, starts, K in [
        ([0, 3], [0, 1, 2], 3),  # a column past K - 1
        ([0, -1], [0, 1, 2], 3),  # a negative column
        ([0, 1], [0, 2, 1], 3),  # falling row starts
        ([0, 1], [1, 1, 2], 3),  # not starting at 0
        ([0, 1], [0, 1, 3], 3),  # not ending at the number of values
        ([0], [0, 1, 2], 3),  # fewer columns than values
        ([0, 0], [0, 1, 2], 0),  # K = 0
    ]:
        with pytest.raises(ContractError):
            SparseRows(values, columns, starts, K, "b")
    # one coordinate in two rows is two truths' coefficients
    assert SparseRows(values, [2, 2], [0, 1, 2], 3, "b").entries.tolist() == [[0, 0, 0.1], [0, 0, 0.2]]
    coeffs = CoefficientMatrix(values / 10.0, [0, 1], [0, 1, 2], 3, "b", family)
    for store in (SparseRows(values, [0, 1], [0, 1, 2], 3, "b"), coeffs):
        with pytest.raises(ContractError, match="does not match basis"):
            store.risks(Spectrum([1.0, 1.0, 1.0], "other"), 10.0)
    with pytest.raises(ContractError, match="do not match family size"):
        CoefficientMatrix(values, [0, 1], [0, 2], 3, "b", family)
    with pytest.raises(ContractError):
        from_dense(SparseRows, np.zeros(3))


def test_coefficient_contract_errors():
    family = build_pyramid_family(1, 2)
    basis = haar_tensor_basis(1, 2)
    with pytest.raises(ContractError):
        compute_coefficients(family, basis, 0)
    with pytest.raises(ContractError):
        compute_coefficients(family, basis, basis.size + 1)
    with pytest.raises(ContractError):
        compute_coefficients(build_pyramid_family(2, 2), basis, 2)


def test_rows_violating_bessel_are_rejected():
    family = build_pyramid_family(1, 1)
    overweight = np.array([[math.sqrt(pyramid_norm_sq(1, 1)) * 1.1, 0.0]])
    with pytest.raises(ContractError):
        from_dense(CoefficientMatrix, overweight, "haar1d_J0", family)


# ---------------------------------------------------------------------------
# Coordinate masses and the risk floor
# ---------------------------------------------------------------------------

def test_tk_values_average_squared_entries():
    family = build_pyramid_family(1, 2)
    entries = np.array([[0.06, 0.0, 0.02], [0.0, 0.06, -0.02]])
    coeffs = from_dense(CoefficientMatrix, entries, "haar1d_J1", family)
    expected = np.array([0.0018, 0.0018, 0.0004])
    assert np.allclose(coeffs.tk, expected, rtol=1e-15)


def test_matched_spectrum_copies_the_mass_profile():
    family = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 4)
    coeffs = compute_coefficients(family, basis, basis.size)
    spectrum = tk_matched_spectrum(coeffs)
    assert np.allclose(spectrum.eigenvalues, coeffs.tk, rtol=1e-15)
    assert spectrum.basis_id == basis.basis_id
    doubled = tk_matched_spectrum(coeffs, scale=2.0)
    assert np.allclose(doubled.eigenvalues, 2.0 * coeffs.tk, rtol=1e-15)
    with pytest.raises(DomainError):
        tk_matched_spectrum(coeffs, scale=0.0)
    with pytest.raises(DomainError):
        tk_matched_spectrum(coeffs, scale=math.inf)


def test_risk_floor_trivial_and_saturated_cases():
    family = build_pyramid_family(1, 2)
    zero = from_dense(CoefficientMatrix, np.zeros((2, 4)), "haar1d_J1", family)
    assert risk_lower_bound(zero, 100.0) == 0.0
    n = 1000.0
    unit = build_pyramid_family(1, 1)
    # three coefficients with squared size >= 1/n, the rest zero
    row = np.array([[0.2, -0.1, 0.04, 0.0]])
    saturated = from_dense(CoefficientMatrix, row, "haar1d_J1", unit)
    assert risk_lower_bound(saturated, n) == pytest.approx(3.0 / n, rel=1e-12)
    with pytest.raises(DomainError):
        risk_lower_bound(saturated, 0.0)
    with pytest.raises(DomainError):
        risk_lower_bound(saturated, math.nan)


def test_masses_stay_below_noise_level_in_the_calibrated_regime():
    # Orthogonality plus member norm <= m/n forces every T_k <= 1/n.
    for d, k, n in [(1, 4, 1000.0), (2, 3, 10000.0), (1, 1, 12.0)]:
        family = build_pyramid_family(d, k)
        assert pyramid_norm_sq(d, k) <= family.m / n
        basis = haar_tensor_basis(d, 6 if d == 1 else 3)
        coeffs = compute_coefficients(family, basis, basis.size)
        assert np.all(coeffs.tk <= 1.0 / n + 1e-15)


def test_calibrated_floor_reaches_the_guaranteed_fraction():
    # With the calibrated grid the floor is at least (1/2)^{2d+2} m/n up
    # to basis truncation, because the truncated energy dominates it.
    d, n = 1, 1000.0
    k, m = grid_count(d, n, "ceil")
    family = build_pyramid_family(d, k)
    basis = haar_tensor_basis(d, 9)
    coeffs = compute_coefficients(family, basis, basis.size)
    c = 0.5 ** (2 * d + 2)
    assert risk_lower_bound(coeffs, n) >= c * m / n * (1.0 - 1e-6)


def test_floor_dominates_for_random_profile_spectra():
    family = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 6)
    coeffs = compute_coefficients(family, basis, basis.size)
    n = 1000.0
    bound = risk_lower_bound(coeffs, n)
    truths = [
        TruthCoefficients(coeffs.entries[j], basis.basis_id) for j in range(family.m)
    ]
    res = basis.groups
    rng = np.random.default_rng(17)
    for trial in range(300):
        tau = 10.0 ** rng.uniform(-2, 2)
        if trial % 2 == 0:
            lam = tau * 2.0 ** (-res * rng.uniform(0.0, 3.0))
        else:
            lam = np.zeros(basis.size)
            for level in np.unique(res):
                lam[res == level] = 10.0 ** rng.uniform(-6, 2)
        spectrum = Spectrum(lam, basis.basis_id)
        worst = max(exact_risk(spectrum, t, n) for t in truths)
        assert worst >= bound - 1e-12


def test_matched_spectrum_sits_between_half_and_full_floor():
    # The mass-matched prior is the one tuning every coordinate near its
    # risk minimizer: it undercuts the full floor but never half of it.
    family = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 8)
    coeffs = compute_coefficients(family, basis, basis.size)
    n = 1000.0
    bound = risk_lower_bound(coeffs, n)
    spectrum = tk_matched_spectrum(coeffs)
    worst = max(
        exact_risk(spectrum, TruthCoefficients(coeffs.entries[j], basis.basis_id), n)
        for j in range(family.m)
    )
    assert 0.5 * bound - 1e-12 <= worst < bound


def test_dyadic_overresolved_grid_is_the_documented_floor_exception():
    # Grid count 2 on the dyadic basis with n far beyond calibration: the
    # supports align with basis panels, a plain decay profile lands near
    # the matched corner, and the unhalved floor genuinely fails there
    # (the halved floor still holds).
    family = build_pyramid_family(1, 2)
    basis = haar_tensor_basis(1, 8)
    coeffs = compute_coefficients(family, basis, basis.size)
    n = 10000.0
    bound = risk_lower_bound(coeffs, n)
    res = basis.groups
    lam = 0.011272771229883708 * 2.0 ** (-res * 2.483288759493436)
    spectrum = Spectrum(lam, basis.basis_id)
    worst = max(
        exact_risk(spectrum, TruthCoefficients(coeffs.entries[j], basis.basis_id), n)
        for j in range(family.m)
    )
    assert 0.5 * bound - 1e-12 <= worst < bound - 1e-12


# ---------------------------------------------------------------------------
# Grid selection
# ---------------------------------------------------------------------------

def test_grid_choice_frozen_examples():
    assert grid_count(1, 1000.0, "ceil") == (4, 4)
    assert grid_count(2, 10000.0, "ceil") == (3, 9)
    assert grid_count(1, 12.0, "ceil") == (1, 1)


def test_grid_target_boundary_is_exactly_one():
    # n = 1/r_1 makes the target 1 up to log/exp rounding; the ulp guard
    # keeps the ceiling from spilling to 2.
    assert grid_target(1, 12.0) == pytest.approx(1.0, abs=1e-15)
    assert grid_count(1, 12.0, "ceil")[0] == 1


def test_grid_target_matches_direct_power():
    for d, n in [(1, 1000.0), (2, 10000.0), (3, 1e7)]:
        r = 1.0 / (2.0 * math.factorial(d + 2))
        assert grid_target(d, n) == pytest.approx((r * n) ** (1.0 / (2 * d + 2)), rel=1e-12)


def test_grid_is_monotone_in_n():
    ks = [grid_count(1, n, "ceil")[0] for n in np.logspace(1, 8, 30)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    with pytest.raises(DomainError):
        grid_count(1, 0.5, "ceil")
    with pytest.raises(DomainError):
        grid_target(0, 100.0)


def test_calibration_window_holds_beyond_the_threshold():
    # Once n r_d >= 1, the member norm is wedged in ((1/2)^{2d+2} m/n, m/n].
    for d in (1, 2, 3):
        r = 1.0 / (2.0 * math.factorial(d + 2))
        for n in np.logspace(math.log10(1.0 / r), math.log10(1.0 / r) + 5, 25):
            k, m = grid_count(d, float(n), "ceil")
            norm = pyramid_norm_sq(d, k)
            assert norm <= m / n * (1.0 + 1e-12)
            assert norm >= 0.5 ** (2 * d + 2) * m / n * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Constants, thresholds, and the mean-risk envelope
# ---------------------------------------------------------------------------

def test_constants_frozen_values_and_exact_ratio():
    constants = lower_bound_constants(1)
    assert constants.mean_constant == pytest.approx(
        0.25 * (1.0 / 12.0) ** 0.125, rel=1e-15
    )
    assert constants.mean_constant == pytest.approx(0.18324931205733264, rel=1e-15)
    assert constants.rate_exponent == pytest.approx(0.375, rel=1e-15)
    for d in (1, 2, 3, 10, 30, 80):
        c = lower_bound_constants(d)
        assert c.probability_constant / c.mean_constant == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(DomainError):
        lower_bound_constants(0)


def test_rate_exponent_decreases_to_one_quarter():
    exponents = [lower_bound_constants(d).rate_exponent for d in range(1, 40)]
    assert all(a > b for a, b in zip(exponents, exponents[1:]))
    assert all(e > 0.25 for e in exponents)
    assert exponents[-1] == pytest.approx(0.25, abs=0.01)


def test_threshold_frozen_value_and_independent_arithmetic():
    value = n_threshold(1, 0.1)
    assert value == pytest.approx(767189627519.5399, rel=1e-12)
    direct = 2.0 * math.factorial(3) * 2.0**16 * (
        32.0 * math.log(5.0 / (1.0 - math.sqrt(0.6)))
    ) ** 3
    assert value == pytest.approx(direct, rel=1e-11)


def test_threshold_monotone_in_delta_and_above_calibration():
    deltas = [1e-4, 0.01, 0.05, 0.1, 0.2, 0.2499]
    for d in (1, 2, 4):
        values = [n_threshold(d, delta) for delta in deltas]
        assert all(a > b for a, b in zip(values, values[1:]))
        r = 1.0 / (2.0 * math.factorial(d + 2))
        assert all(v >= 1.0 / r for v in values if math.isfinite(v))
    assert math.isfinite(n_threshold(1, 0.2499))
    # the log-space value overflows a float between d = 105 and d = 110
    assert n_threshold(105, 0.1) == pytest.approx(1.89e303, rel=0.01) and n_threshold(110, 0.1) == math.inf
    with pytest.raises(DomainError):
        n_threshold(1, 0.0)
    with pytest.raises(DomainError):
        n_threshold(1, 0.25)
    with pytest.raises(DomainError):
        n_threshold(0, 0.1)


def test_mean_risk_floor_is_the_squared_constant_times_the_rate():
    constants = lower_bound_constants(1)
    n = 1000.0
    assert mean_risk_floor(1, n) == pytest.approx(
        constants.mean_constant**2 * n ** (-0.375 * 2.0), rel=1e-14
    )
    assert mean_risk_floor(2, 100.0) == pytest.approx(
        lower_bound_constants(2).mean_constant ** 2 * 100.0 ** (-4.0 / 6.0), rel=1e-14
    )
    with pytest.raises(DomainError):
        mean_risk_floor(1, 0.0)


# ---------------------------------------------------------------------------
# Full-truth risks and the worst-member pick
# ---------------------------------------------------------------------------

def test_worst_member_takes_the_lowest_index_among_near_ties():
    top = 1.0 + 5e-13
    assert worst_member([1.0, 1.0 - 4e-13, top, 0.5]) == 0  # argmax would say 2
    assert worst_member([0.5, top, 1.0]) == 1
    assert worst_member([1.0, 1.0 + 2e-12]) == 1  # outside the 1e-12 tolerance
    assert worst_member([0.3, 0.7, 0.7]) == 1
    assert worst_member([2.0]) == 0


def test_member_risks_add_each_rows_truncation_tail():
    rng = np.random.default_rng(17)
    K, m = 40, 6
    rows = rng.standard_normal((m, K)) * 0.1
    norm_sq = float(np.max(np.einsum("ij,ij->i", rows, rows))) * 1.5
    rows[2] *= math.sqrt(norm_sq / float(rows[2] @ rows[2]))  # no tail
    spectrum = Spectrum(10.0 ** rng.uniform(-4.0, 0.0, K), "b")
    risks = from_dense(SparseRows, rows, "b").risks(spectrum, 300.0, norm_sq)
    tails = [TruthCoefficients(row, "b", norm_sq).tail for row in rows]
    for j, row in enumerate(rows):
        tail = max(norm_sq - float(row @ row), 0.0)
        assert within_ulps(tails[j], tail)
        assert within_ulps(risks[j], exact_risk(spectrum, TruthCoefficients(row, "b"), 300.0) + tail)
    assert tails[2] <= 1e-15 * norm_sq and min(tails[:2] + tails[3:]) > 0.0


def test_sparse_risks_of_a_stack_of_spectra_equal_each_spectrum_alone():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((7, 300)) * (rng.random((7, 300)) < 0.3)
    store = from_dense(SparseRows, rows, "b")
    # about 630 stored values: blocks of 10 spectra, the last one short
    lams = 10.0 ** rng.uniform(-4.0, 1.0, (37, 300))
    stacked = store.risks(Spectrum(lams, "b"), 200.0)
    assert stacked.shape == (37, 7)
    for s in range(37):
        assert np.array_equal(stacked[s], store.risks(Spectrum(lams[s], "b"), 200.0))
    assert within_ulps(stacked, dense_risks(lams, rows, 200.0))
    with pytest.raises(ContractError):
        store.risks(Spectrum(lams[:, :299], "b"), 200.0)
    with pytest.raises(DomainError):
        store.risks(Spectrum(lams[0], "b"), 0.0)


def test_member_risks_of_rows_that_keep_no_coefficient():
    # empty rows first, inside and last: np.add.reduceat would give each the
    # next row's first term; an empty row has no bias and its whole norm as tail
    rows = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, -0.2], [0.0, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0] * 3])
    store = from_dense(SparseRows, rows, "b")
    assert store.row_starts.tolist() == [0, 0, 2, 2, 3, 3]
    spectrum = Spectrum([1.0, 0.5, 0.0], "b")
    n, norm_sq = 50.0, 0.25
    risks = store.risks(spectrum, n, norm_sq)
    variance = exact_risk(spectrum, TruthCoefficients(np.zeros(3), "b"), n)
    assert risks[[0, 2, 4]].tolist() == [variance + norm_sq] * 3 and store.row_mass[[0, 2, 4]].tolist() == [0.0] * 3
    for j in (1, 3):
        truth = TruthCoefficients(rows[j], "b")
        assert within_ulps(risks[j], exact_risk(spectrum, truth, n) + norm_sq - rows[j] @ rows[j])
    # no stored value at all
    empty = from_dense(SparseRows, np.zeros((2, 3)), "b")
    assert empty.risks(spectrum, n, norm_sq).tolist() == [variance + norm_sq] * 2
    # K = 1: one coefficient per member, the constant function's
    family = build_pyramid_family(2, 3)
    coeffs = compute_coefficients(family, haar_tensor_basis(2, 3), 1)
    assert coeffs.K == 1 and coeffs.row_starts.tolist() == list(range(10))
    dense = coeffs.entries
    one = Spectrum([2.0], coeffs.basis_id)
    tails = pyramid_norm_sq(2, 3) - dense[:, 0] ** 2
    risks = coeffs.risks(one, n, pyramid_norm_sq(2, 3))
    assert within_ulps(risks, dense_risks(one.eigenvalues, dense, n) + tails)


def test_member_risks_sum_long_rows_in_pieces():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2, 20000))
    norm_sq = 1e5
    spectrum = Spectrum(np.ones(20000), "b")
    store = from_dense(SparseRows, rows, "b")
    tails = store.risks(spectrum, 10.0, norm_sq) - store.risks(spectrum, 10.0)
    expected = norm_sq - np.sum(rows**2, axis=1)
    assert np.allclose(tails, expected, rtol=1e-14, atol=0.0)


def test_truth_risk_is_one_rows_member_risk_from_its_dense_sums():
    # a row longer than one 8192-term dot, and a short one with no tail
    rng = np.random.default_rng(6)
    for K, scale in ((20000, 2.0), (300, 1.0)):
        theta = rng.standard_normal(K) * (rng.random(K) < 0.4)
        norm_sq = scale * float(theta @ theta)
        spectrum = Spectrum(10.0 ** rng.uniform(-4.0, 0.0, K), "b")
        truth = TruthCoefficients(theta, "b", norm_sq)
        risk, tail = exact_risk(spectrum, truth, 50.0), truth.tail
        chunks = [theta[i : i + 8192] for i in range(0, K, 8192)]
        assert tail == max(norm_sq - sum(c @ c for c in chunks), 0.0)
        assert risk == exact_risk(spectrum, TruthCoefficients(theta, "b"), 50.0) + tail
        store = from_dense(SparseRows, theta[None, :], "b")
        assert within_ulps(store.risks(spectrum, 50.0, norm_sq)[0], risk)
        assert abs(max(norm_sq - store.row_mass[0], 0.0) - tail) <= 4 * np.spacing(norm_sq)
