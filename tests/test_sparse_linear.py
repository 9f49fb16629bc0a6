"""One-sparse reduction, exact linear-minimax values, and domination.

Oracles: scipy.stats for distributional law checks, dense grids for the
scalar and matrix minimax searches, and closed-form arithmetic for risks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import gplb.sparse_linear as sparse_linear
from gplb.adversarial import (
    build_pyramid_family,
    compute_coefficients,
    pyramid_norm_sq,
    tk_matched_spectrum,
)
from gplb.errors import ContractError, DomainError
from gplb.sequence_core import Spectrum
from gplb.sparse_linear import (
    MAX_GRID_SIZE,
    SEARCH_WINDOW,
    LinearEstimator,
    OneSparseModel,
    brute_force_minimax,
    diagonal_reduction,
    gp_mean_dominates_linear,
    linear_estimator_risk,
    linear_minimax_risk,
    reduce_to_sequence,
)
from gplb.sparse_linear import _first_rise, _grid_points, _grid_risks
from gplb.wavelet import haar_tensor_basis


# ---------------------------------------------------------------------------
# Reduction to the one-sparse sequence model
# ---------------------------------------------------------------------------

def test_model_and_estimator_validation():
    with pytest.raises(DomainError):
        OneSparseModel(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        OneSparseModel(3, 0.0, 1.0)
    with pytest.raises(DomainError):
        OneSparseModel(3, 1.0, 0.0)  # zero-signal family has no reduction
    with pytest.raises(DomainError):
        LinearEstimator(np.ones((2, 3)))
    with pytest.raises(DomainError):
        LinearEstimator(np.array([[1.0, math.inf], [0.0, 1.0]]))


def test_reduction_noise_level_and_determinism():
    family = build_pyramid_family(1, 2)
    c_n_sq = pyramid_norm_sq(1, 2)
    n = 1000.0
    y1, model = reduce_to_sequence(family, 1, n, np.random.default_rng(3))
    y2, _ = reduce_to_sequence(family, 1, n, np.random.default_rng(3))
    assert model.m == 2
    assert model.c_n_sq == pytest.approx(c_n_sq, rel=1e-15)
    assert model.sigma == pytest.approx(1.0 / math.sqrt(c_n_sq * n), rel=1e-15)
    assert np.array_equal(y1, y2)


def test_reduction_recovers_the_signal_in_the_noiseless_limit():
    family = build_pyramid_family(1, 3)
    y, model = reduce_to_sequence(family, 2, 1e18, np.random.default_rng(0))
    assert model.sigma < 1e-7
    assert np.allclose(y, [0.0, 0.0, 1.0], atol=1e-6)


def test_reduction_mean_and_covariance_match_the_law():
    family = build_pyramid_family(1, 3)
    n = 100.0
    rng = np.random.default_rng(42)
    reps = 10_000
    draws = np.stack(
        [reduce_to_sequence(family, 0, n, rng)[0] for _ in range(reps)]
    )
    sigma = 1.0 / math.sqrt(pyramid_norm_sq(1, 3) * n)
    stderr = sigma / math.sqrt(reps)
    assert np.all(np.abs(draws.mean(axis=0) - [1.0, 0.0, 0.0]) < 4.0 * stderr)
    cov = np.cov(draws, rowvar=False)
    # sample covariance entries fluctuate at scale sigma^2 / sqrt(reps)
    cov_err = 4.0 * sigma**2 / math.sqrt(reps)
    assert np.all(np.abs(cov - sigma**2 * np.eye(3)) < 3.0 * cov_err + cov_err)


def test_reduction_marginals_pass_kolmogorov_smirnov():
    family = build_pyramid_family(1, 4)
    n = 250.0
    rng = np.random.default_rng(7)
    reps = 10_000
    draws = np.stack(
        [reduce_to_sequence(family, 1, n, rng)[0] for _ in range(reps)]
    )
    sigma = 1.0 / math.sqrt(pyramid_norm_sq(1, 4) * n)
    for coordinate in range(4):
        center = 1.0 if coordinate == 1 else 0.0
        standardized = (draws[:, coordinate] - center) / sigma
        result = stats.kstest(standardized, "norm")
        assert result.pvalue > 1e-3


def test_reduction_validates_indices_and_n():
    family = build_pyramid_family(1, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        reduce_to_sequence(family, 2, 50.0, rng)
    with pytest.raises(DomainError):
        reduce_to_sequence(family, 0, math.inf, rng)


# ---------------------------------------------------------------------------
# Exact linear risks and the diagonal reduction
# ---------------------------------------------------------------------------

def test_linear_risk_identity_zero_and_optimal_scalar():
    m, sigma = 3, 0.7
    identity = LinearEstimator(np.eye(m))
    zero = LinearEstimator(np.zeros((m, m)))
    for j in range(m):
        assert linear_estimator_risk(identity, j, sigma) == pytest.approx(
            m * sigma**2, rel=1e-15
        )
        assert linear_estimator_risk(zero, j, sigma) == pytest.approx(1.0, rel=1e-15)
    t = m * sigma**2
    a_star = 1.0 / (1.0 + t)
    tuned = LinearEstimator(a_star * np.eye(m))
    assert linear_estimator_risk(tuned, 0, sigma) == pytest.approx(
        t / (1.0 + t), rel=1e-14
    )
    with pytest.raises(DomainError):
        linear_estimator_risk(identity, 3, sigma)
    with pytest.raises(DomainError):
        linear_estimator_risk(identity, 0, 0.0)


def test_linear_risk_hand_value_with_off_diagonals():
    # A = [[1, 1/2], [0, 1]], theta = e_2: bias (1/2)^2, trace 1+1/4+1.
    estimator = LinearEstimator(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert linear_estimator_risk(estimator, 1, 1.0) == pytest.approx(0.25 + 2.25)
    assert linear_estimator_risk(estimator, 0, 1.0) == pytest.approx(0.0 + 2.25)


def test_diagonal_reduction_identity_and_hand_case():
    identity = LinearEstimator(np.eye(4))
    a_bar, dominated = diagonal_reduction(identity, 0.5)
    assert a_bar == pytest.approx(1.0, rel=1e-15)
    assert dominated
    hand = LinearEstimator(np.diag([2.0, 0.0]))
    a_bar, dominated = diagonal_reduction(hand, 1.0)
    assert a_bar == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert dominated
    # both truth positions of diag(2,0) cost 1 + 4 sigma^2 = 5 at sigma=1,
    # the collapsed scalar sqrt(2) I costs (sqrt(2)-1)^2 + 2*2 < 5
    worst_original = max(linear_estimator_risk(hand, j, 1.0) for j in range(2))
    assert worst_original == pytest.approx(5.0, rel=1e-14)
    scalar = LinearEstimator(math.sqrt(2.0) * np.eye(2))
    worst_scalar = max(linear_estimator_risk(scalar, j, 1.0) for j in range(2))
    assert worst_scalar == pytest.approx((math.sqrt(2.0) - 1.0) ** 2 + 4.0, rel=1e-14)
    assert worst_scalar <= worst_original


def test_diagonal_domination_over_random_matrices():
    rng = np.random.default_rng(19)
    checked = 0
    for m in range(2, 9):
        for sigma in (0.1, 1.0, 3.0):
            for _ in range(30):
                estimator = LinearEstimator(rng.standard_normal((m, m)))
                a_bar, dominated = diagonal_reduction(estimator, sigma)
                assert dominated
                assert a_bar >= 0.0
                checked += 1
    assert checked == 630


def test_worst_case_risk_is_bit_equal_to_the_per_column_maximum():
    # the one-pass worst case against the slow path it replaced
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        m = int(rng.integers(1, 65))
        estimator = LinearEstimator(rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-3.0, 3.0))
        sigma = 10.0 ** rng.uniform(-3.0, 3.0)
        oracle = max(linear_estimator_risk(estimator, j, sigma) for j in range(m))
        assert sparse_linear._worst_case_risk(estimator, sigma) == oracle
    with pytest.raises(DomainError, match="sigma"):
        sparse_linear._worst_case_risk(LinearEstimator(np.eye(2)), 0.0)


def test_stacked_worst_case_risks_and_reductions_equal_the_one_matrix_calls():
    rng = np.random.default_rng(7)
    for m in range(1, 9):
        stack = rng.standard_normal((20, m, m)) * 10.0 ** rng.uniform(-3.0, 3.0, (20, 1, 1))
        sigmas = 10.0 ** rng.uniform(-3.0, 3.0, 20)
        sigmas[0] = 1e200  # sigma^2 overflows
        single = [LinearEstimator(A) for A in stack]
        risks = sparse_linear._worst_case_risk(LinearEstimator(stack), sigmas)
        assert risks.tolist() == [sparse_linear._worst_case_risk(e, s) for e, s in zip(single, sigmas)]
        a_bar, dominated = diagonal_reduction(LinearEstimator(stack), sigmas)
        assert list(zip(a_bar.tolist(), dominated.tolist())) == [
            diagonal_reduction(e, s) for e, s in zip(single, sigmas)]
    stack = LinearEstimator(np.zeros((3, 2, 2)))
    with pytest.raises(DomainError, match="sigma"):
        sparse_linear._worst_case_risk(stack, [1.0, 1.0])  # one sigma per matrix
    with pytest.raises(DomainError):
        linear_estimator_risk(stack, 0, 1.0)
    with pytest.raises(DomainError):
        LinearEstimator(np.zeros((2, 2, 2, 2)))


def test_overflowing_sigma_squared_gives_the_limit():
    # 1e200 ** 2 overflows a float: the risk is its limit, not an OverflowError
    sigma = 1e200
    rng = np.random.default_rng(5)
    zero = LinearEstimator(np.zeros((3, 3)))
    for j in range(3):
        assert linear_estimator_risk(zero, j, sigma) == 1.0
    assert sparse_linear._worst_case_risk(zero, sigma) == 1.0
    assert diagonal_reduction(zero, sigma) == (0.0, True)
    for matrix in (0.5 * np.eye(3), rng.standard_normal((4, 4))):
        estimator = LinearEstimator(matrix)
        assert linear_estimator_risk(estimator, 0, sigma) == math.inf
        assert sparse_linear._worst_case_risk(estimator, sigma) == math.inf
        a_bar, dominated = diagonal_reduction(estimator, sigma)
        assert a_bar == float(np.sqrt(np.mean(np.diagonal(matrix) ** 2)))
        assert dominated
    # a zero diagonal collapses to a_bar = 0, whose risk is the bias 1 alone
    off_diagonal = LinearEstimator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert diagonal_reduction(off_diagonal, sigma) == (0.0, True)
    # where sigma^2 is finite the expression is unchanged
    estimator = LinearEstimator(rng.standard_normal((3, 3)))
    column = estimator.matrix[:, 1] - np.eye(3)[:, 1]
    expected = float(column @ column) + 1e100**2 * float(np.sum(estimator.matrix**2))
    assert linear_estimator_risk(estimator, 1, 1e100) == expected


# ---------------------------------------------------------------------------
# Minimax: closed form and brute-force oracles
# ---------------------------------------------------------------------------

def test_minimax_frozen_values():
    risk, a_star = linear_minimax_risk(1, 1.0)
    assert risk == pytest.approx(0.5, rel=1e-15)
    assert a_star == pytest.approx(0.5, rel=1e-15)
    risk, a_star = linear_minimax_risk(4, 0.5)
    assert risk == pytest.approx(0.5, rel=1e-15)
    assert a_star == pytest.approx(0.5, rel=1e-15)
    high_noise, a_zero = linear_minimax_risk(10, 1e12)
    assert high_noise == pytest.approx(1.0, abs=1e-20)
    assert a_zero == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(DomainError):
        linear_minimax_risk(0, 1.0)
    with pytest.raises(DomainError):
        linear_minimax_risk(2, -1.0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    m=st.integers(min_value=1, max_value=50),
    sigma=st.floats(min_value=1e-3, max_value=30.0),
)
def test_every_scalar_risk_sits_above_the_minimax_value(a, m, sigma):
    risk = (a - 1.0) ** 2 + m * sigma**2 * a**2
    value, a_star = linear_minimax_risk(m, sigma)
    assert risk >= value - 1e-12
    curvature = 1.0 + m * sigma**2
    assert risk - value == pytest.approx(curvature * (a - a_star) ** 2, rel=1e-6, abs=1e-12)


def test_brute_force_scalar_grid_oracle():
    assert brute_force_minimax(1, 1.0, 100_000) == pytest.approx(0.5, abs=1e-8)
    for m, sigma in [(2, 0.3), (5, 1.7), (1, 0.05)]:
        value, a_star = linear_minimax_risk(m, sigma)
        grid_value = brute_force_minimax(m, sigma, 100_000)
        assert grid_value >= value - 1e-15
        assert grid_value - value <= (1.0 + m * sigma**2) * (0.5e-5) ** 2 * 1.01
        grid = np.linspace(0.0, 1.0, 1001)
        risks = (grid - 1.0) ** 2 + m * sigma**2 * grid**2
        assert abs(grid[np.argmin(risks)] - a_star) <= 1e-3
    assert brute_force_minimax(3, 2.0, 2) == pytest.approx(1.0, rel=1e-15)
    assert brute_force_minimax(1, 0.5, 2) == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(DomainError):
        brute_force_minimax(2, 1.0, 1)
    with pytest.raises(DomainError):
        brute_force_minimax(0, 1.0, 10)


def per_pair_grid_minimum(m, sigma, grid_size):
    """Oracle: one pair's risk over the whole grid at once, then its minimum."""
    a = np.linspace(0.0, 1.0, grid_size)
    risks = (a - 1.0) ** 2 + m * sigma**2 * a**2
    return float(risks.min())


def pairs_with_load(loads, ms):
    """(m, sigma) pairs with m sigma^2 = t for each load t."""
    return [(m, math.sqrt(t / m)) for t, m in zip(loads, ms)]


@settings(max_examples=60, deadline=None)
@given(
    grid_size=st.integers(min_value=2, max_value=3_000_000),
    pairs=st.lists(
        st.tuples(st.floats(min_value=-12.0, max_value=12.0), st.integers(min_value=1, max_value=64)),
        min_size=1,
        max_size=12,
    ),
)
def test_batched_scan_equals_the_per_pair_oracle(grid_size, pairs):
    exponents, ms = zip(*pairs)
    pairs = pairs_with_load([10.0**e for e in exponents], ms)
    ms, sigmas = zip(*pairs)
    minima = brute_force_minimax(ms, sigmas, grid_size)
    assert minima.shape == (len(pairs),)
    assert minima.tolist() == [per_pair_grid_minimum(m, s, grid_size) for m, s in pairs]
    m, sigma = pairs[0]
    scalar = brute_force_minimax(m, sigma, grid_size)
    assert type(scalar) is float and scalar == minima[0]


@settings(max_examples=40, deadline=None)
@given(
    grid_size=st.integers(min_value=2, max_value=3_000_000),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_grid_points_equal_numpy_linspace(grid_size, fractions):
    grid = np.linspace(0.0, 1.0, grid_size)
    index = np.array([0, grid_size - 1] + [round(f * (grid_size - 1)) for f in fractions])
    assert _grid_points(index, grid_size).tolist() == grid[index].tolist()


def test_grid_search_minimum_at_the_first_index():
    # t > 2 / h - 1 makes r(h) = t h^2 + (1 - h)^2 exceed r(0) = 1.
    for grid_size, load in [(2, 5.0), (3, 1e3), (1001, 1e12), (2_000_001, 1e300)]:
        assert _first_rise(np.array([load]), grid_size).tolist() == [0]
        (pair,) = pairs_with_load([load], [1])
        assert brute_force_minimax(*pair, grid_size) == per_pair_grid_minimum(*pair, grid_size) == 1.0


def test_grid_search_minimum_at_the_last_index():
    # at t = 1e-300 every grid point but a = 1 pays (1 - a)^2 >= h^2 > t
    for grid_size in (2, 3, 1001, 2_000_001):
        assert _first_rise(np.array([1e-300]), grid_size).tolist() == [grid_size - 1]
        value = brute_force_minimax(1, 1e-150, grid_size)
        assert value == per_pair_grid_minimum(1, 1e-150, grid_size) == (1e-150) ** 2


def test_grid_search_on_two_and_three_point_grids():
    loads = [1e-12, 0.3, 0.5, 1.0, 2.0, 3.0, 1e12]
    pairs = pairs_with_load(loads, [1] * len(loads))
    ms, sigmas = zip(*pairs)
    for grid_size in (2, 3):
        minima = brute_force_minimax(ms, sigmas, grid_size)
        assert minima.tolist() == [per_pair_grid_minimum(m, s, grid_size) for m, s in pairs]


@pytest.mark.parametrize("grid_size", [2, 4, 10, 2_000_002, 2**27])
def test_bisection_stops_left_of_a_tie_midway_between_grid_points(grid_size):
    # t = 1 puts a* = 1/2 midway between the two middle points of an even
    # grid, and at these sizes their computed risks tie exactly: the search
    # stops at the first index whose right neighbour is not lower.
    middle = grid_size // 2 - 1
    left, right = _grid_risks(1.0, np.array([middle, middle + 1]), grid_size)
    assert left == right
    assert _first_rise(np.array([1.0]), grid_size).tolist() == [middle]
    if grid_size <= 3_000_000:
        assert brute_force_minimax(1, 1.0, grid_size) == per_pair_grid_minimum(1, 1.0, grid_size)


def test_grid_search_mixes_overflowing_and_finite_pairs():
    finite = [(1, 0.01), (7, 2.0), (3, 1e-5)]
    overflowing = [(4, 1e200), (64, 1e154), (1, 1.7e308)]
    pairs = [pair for both in zip(overflowing, finite) for pair in both]
    ms, sigmas = zip(*pairs)
    minima = brute_force_minimax(ms, sigmas, 1_000_003)
    assert minima[0::2].tolist() == [1.0, 1.0, 1.0]
    assert minima[1::2].tolist() == [per_pair_grid_minimum(m, s, 1_000_003) for m, s in finite]


@pytest.mark.parametrize("offset", [-10, -3, 3, 10])
def test_window_absorbs_a_bisection_misplaced_within_the_flat_band(monkeypatch, offset):
    # The docstring's argument lets float noise move the bisected index up
    # to 10 steps from a*; the window must still contain the grid minimum.
    bisect = sparse_linear._first_rise

    def misplaced(load, grid_size):
        return np.clip(bisect(load, grid_size) + offset, 0, grid_size - 1)

    monkeypatch.setattr(sparse_linear, "_first_rise", misplaced)
    loads = [1e-12, 1e-3, 0.5, 1.0, 7.0, 1e4, 1e6, 1e9]
    pairs = pairs_with_load(loads, [1, 2, 3, 4, 5, 6, 7, 8])
    ms, sigmas = zip(*pairs)
    minima = brute_force_minimax(ms, sigmas, 2_000_001)
    assert minima.tolist() == [per_pair_grid_minimum(m, s, 2_000_001) for m, s in pairs]


def test_bisection_lands_within_ten_steps_of_a_star():
    rng = np.random.default_rng(11)
    for grid_size in (1001, 2_000_001, 10**8, MAX_GRID_SIZE):
        loads = 10.0 ** rng.uniform(-14, 12, size=5000)
        index = _first_rise(loads, grid_size)
        a_star_steps = (grid_size - 1) / (1.0 + loads)
        assert np.all(np.abs(index - a_star_steps) <= 10)
    assert SEARCH_WINDOW >= 10


def blocked_grid_minima(loads, grid_size, block=2**20):
    """Oracle for huge grids: the whole grid's risks block by block, never all at once."""
    step = 1.0 / (grid_size - 1)
    best = np.full(len(loads), np.inf)
    for start in range(0, grid_size, block):
        a = np.arange(start, min(start + block, grid_size), dtype=float) * step
        if start + block >= grid_size:
            a[-1] = 1.0
        a_sq, miss_sq = a**2, (a - 1.0) ** 2
        for k, load in enumerate(loads):
            risks = load * a_sq
            risks += miss_sq
            best[k] = min(best[k], risks.min())
    return best


def test_grid_search_at_the_size_cap_equals_a_blocked_scan():
    # t = 1e-14 has the smallest curvature, where the window bound is tightest.
    pairs = [(1, 1e-7), (4, 0.5), (64, 125.0)]
    ms, sigmas = zip(*pairs)
    loads = [m * s**2 for m, s in pairs]
    minima = brute_force_minimax(ms, sigmas, MAX_GRID_SIZE)
    assert minima.tolist() == blocked_grid_minima(loads, MAX_GRID_SIZE).tolist()


def test_grid_search_refuses_grids_beyond_the_proven_size():
    with pytest.raises(DomainError, match=str(MAX_GRID_SIZE)):
        brute_force_minimax(1, 1.0, MAX_GRID_SIZE + 1)


def test_batched_scan_validates_every_pair():
    with pytest.raises(DomainError):
        brute_force_minimax([1, 2], [1.0], 10)
    with pytest.raises(DomainError):
        brute_force_minimax([[1]], [[1.0]], 10)
    with pytest.raises(DomainError):
        brute_force_minimax([1, 0], [1.0, 1.0], 10)
    with pytest.raises(DomainError):
        brute_force_minimax([1, 2], [1.0, math.inf], 10)
    with pytest.raises(DomainError):
        brute_force_minimax([1, 2], [1.0, 0.0], 10)


@pytest.mark.parametrize("m,sigma", [(4, 1e200), (64, 1e154), (1, 1.7e308)])
def test_overflowing_noise_load_gives_the_limit_risk_one(m, sigma):
    # sigma^2 overflows a float at 1e200 and 1.7e308; at 1e154 it is finite
    # but m sigma^2 is not.  Either way no a > 0 has finite risk and a = 0
    # has risk exactly 1.
    assert linear_minimax_risk(m, sigma) == (1.0, 0.0)
    assert brute_force_minimax(m, sigma, 11) == 1.0
    minima = brute_force_minimax([m, 2, m], [sigma, 0.5, sigma], 11)
    assert minima.tolist() == [1.0, per_pair_grid_minimum(2, 0.5, 11), 1.0]


def test_two_point_grid_picks_the_better_endpoint():
    # grid {0, 1}: risks are 1 (zero estimator) and m sigma^2 (identity)
    assert brute_force_minimax(4, 10.0, 2) == pytest.approx(1.0)
    assert brute_force_minimax(4, 0.01, 2) == pytest.approx(4e-4, rel=1e-12)


def brute_force_minimax_matrix(m, sigma, grid_size):
    """Exhaustive matrix-grid oracle for m <= 2: min over A of the worst risk.

    Every entry of A ranges over linspace(-1, 1, grid_size), so the search
    costs grid_size^(m^2) risk evaluations.  Refining the grid converges to
    the same value as the scalar search, which is the content of the
    diagonal-reduction property.
    """
    levels = np.linspace(-1.0, 1.0, grid_size)
    if m == 1:
        risks = (levels - 1.0) ** 2 + sigma**2 * levels**2
        return float(risks.min())
    best = math.inf
    sig_sq = sigma**2
    # A = [[a, b], [c, d]]; vectorize over (b, c, d) and loop over a
    b, c, d = np.meshgrid(levels, levels, levels, indexing="ij")
    for a in levels:
        trace_term = sig_sq * (a**2 + b**2 + c**2 + d**2)
        risk_1 = (a - 1.0) ** 2 + c**2 + trace_term
        risk_2 = b**2 + (d - 1.0) ** 2 + trace_term
        worst = np.maximum(risk_1, risk_2)
        best = min(best, float(worst.min()))
    return best


def test_matrix_search_agrees_with_the_scalar_reduction():
    for m, sigma, grid in [(1, 1.0, 81), (2, 1.0, 17), (2, 0.4, 17)]:
        matrix_value = brute_force_minimax_matrix(m, sigma, grid)
        value, _ = linear_minimax_risk(m, sigma)
        step = 2.0 / (grid - 1)
        assert matrix_value >= value - 1e-12
        assert matrix_value - value <= (1.0 + m * sigma**2) * step**2


def test_matrix_search_converges_from_above_as_the_grid_refines():
    value, _ = linear_minimax_risk(2, 1.0)
    gaps = [
        brute_force_minimax_matrix(2, 1.0, grid) - value for grid in (5, 9, 17)
    ]
    assert all(gap >= -1e-12 for gap in gaps)
    assert gaps[0] >= gaps[1] >= gaps[2]


# ---------------------------------------------------------------------------
# Chaining: posterior mean vs the reduced linear floor
# ---------------------------------------------------------------------------

def test_posterior_mean_beats_linear_floor_for_matched_spectrum():
    family = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 6)
    coeffs = compute_coefficients(family, basis, basis.size)
    check = gp_mean_dominates_linear(tk_matched_spectrum(coeffs), coeffs, 1000.0)
    assert check.holds
    assert check.gp_risk_max >= check.linear_minimax
    c_n_sq = pyramid_norm_sq(1, 4)
    sigma_sq = 1.0 / (c_n_sq * 1000.0)
    expected_floor = c_n_sq * (4 * sigma_sq) / (1.0 + 4 * sigma_sq)
    assert check.linear_minimax == pytest.approx(expected_floor, rel=1e-12)


def test_posterior_mean_beats_linear_floor_for_flat_huge_spectrum():
    family = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 6)
    coeffs = compute_coefficients(family, basis, basis.size)
    n = 1000.0
    spectrum = Spectrum(np.full(basis.size, 1e8), basis.basis_id)
    check = gp_mean_dominates_linear(spectrum, coeffs, n)
    assert check.holds
    # near-interpolation pays the full noise budget of the truncated span
    assert check.gp_risk_max > basis.size / n * 0.99
    assert check.gp_risk_max > 10.0 * check.linear_minimax


def test_posterior_mean_floor_survives_shallow_truncation():
    # With a shallow basis most of the member energy is tail bias; the
    # reduction floor must still be cleared.
    family = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 2)
    coeffs = compute_coefficients(family, basis, basis.size)
    tail = pyramid_norm_sq(1, 4) - float((coeffs.entries[0] ** 2).sum())
    assert tail > 0.0
    spectrum = Spectrum(np.full(basis.size, 1e-4), basis.basis_id)
    check = gp_mean_dominates_linear(spectrum, coeffs, 500.0)
    assert check.holds
    assert check.gp_risk_max >= tail


def test_posterior_mean_floor_for_random_spectra():
    family = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 6)
    coeffs = compute_coefficients(family, basis, basis.size)
    n = 1000.0
    res = basis.groups
    rng = np.random.default_rng(23)
    for trial in range(500):
        mode = trial % 3
        if mode == 0:
            lam = 10.0 ** rng.uniform(-2, 2) * 2.0 ** (-res * rng.uniform(0.0, 3.0))
        elif mode == 1:
            lam = np.zeros(basis.size)
            for level in np.unique(res):
                lam[res == level] = 10.0 ** rng.uniform(-6, 2)
        else:
            lam = 10.0 ** rng.uniform(-6, 2, size=basis.size)
        check = gp_mean_dominates_linear(Spectrum(lam, basis.basis_id), coeffs, n)
        assert check.holds
        assert check.gp_risk_max >= check.linear_minimax


def test_posterior_mean_floor_validates_inputs():
    family = build_pyramid_family(1, 2)
    basis = haar_tensor_basis(1, 3)
    coeffs = compute_coefficients(family, basis, basis.size)
    wrong = Spectrum(np.ones(basis.size), "haar1d_J9")
    with pytest.raises(ContractError):
        gp_mean_dominates_linear(wrong, coeffs, 100.0)
    good = Spectrum(np.ones(basis.size), basis.basis_id)
    with pytest.raises(DomainError):
        gp_mean_dominates_linear(good, coeffs, 0.0)
