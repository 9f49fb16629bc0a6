"""Tensor Haar basis, series priors, and the single-function risk floor.

The independent integration oracle used throughout: every basis member is
constant on dyadic cells of width 2^{-(J+1)}, so averaging over the cell
midpoints integrates products of such functions exactly.
"""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from conftest import dispersed_test_functions, resolution_groups
from gplb.errors import ContractError, DomainError
from gplb.integrate import PiecewisePolynomial, ridge_box_integral
from gplb.sequence_core import Spectrum, TruthCoefficients, exact_risk
from gplb.wavelet import (
    SCALING_LEVEL,
    HaarTensorBasis,
    SawtoothSurrogate,
    WaveletPrior,
    haar_tensor_basis,
    level_profile_risk_infimum,
    sawtooth_work_bytes,
    single_function_risk_bound,
    wavelet_prior_preset,
    wavelet_prior_rate,
)


def midpoint_grid(d, J):
    """Midpoints of the dyadic cells on which a level-J basis is constant."""
    cells = 2 ** (J + 1)
    axis = (np.arange(cells) + 0.5) / cells
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def constant_panels(basis, position):
    """Oracle: yield (lo, hi, value) boxes covering the support of the member at a basis position.

    The member equals ``value`` on each box and 0 elsewhere; there are at
    most 2^d boxes, so integrating it against any function is a sum of box
    integrals.  The member's axis pairs come from the basis's own order.
    """
    per_axis = []
    for level, translate in basis._member_axes(position):
        if level == SCALING_LEVEL:
            per_axis.append([(0.0, 1.0, 1.0)])
            continue
        width = 0.5**level
        lo = translate * width
        amp = 2.0 ** (level / 2.0)
        per_axis.append([(lo, lo + width / 2.0, amp), (lo + width / 2.0, lo + width, -amp)])
    for combo in itertools.product(*per_axis):
        lo, hi, values = zip(*combo)
        yield np.array(lo), np.array(hi), math.prod(values)


# ---------------------------------------------------------------------------
# Basis construction and evaluation
# ---------------------------------------------------------------------------

def test_level_zero_univariate_basis_is_the_classic_pair():
    basis = haar_tensor_basis(1, 0)
    assert basis.size == 2
    assert basis.groups.tolist() == [0, 0]
    pts = np.array([[0.1], [0.4], [0.6], [0.9]])
    assert np.allclose(basis.evaluate(0, pts), 1.0)
    assert np.allclose(basis.evaluate(1, pts), [1.0, 1.0, -1.0, -1.0])
    (lo, hi, value), = constant_panels(basis, 0)
    assert (lo.tolist(), hi.tolist(), value) == ([0.0], [1.0], 1.0)
    assert [value for _, _, value in constant_panels(basis, 1)] == [1.0, -1.0]


def test_basis_counts_follow_dyadic_counting():
    assert haar_tensor_basis(1, 3).size == 2**4
    assert haar_tensor_basis(2, 1).size == 2 ** (2 * 2)
    assert haar_tensor_basis(3, 1).size == 2 ** (3 * 2)


def resolution(axes):
    """Finest univariate level among a member's (level, translate) axis pairs."""
    return max(level for level, _ in axes)


def test_indices_are_ordered_coarse_to_fine():
    basis = haar_tensor_basis(2, 2)
    resolutions = [resolution(basis._member_axes(p)) for p in range(basis.size)]
    assert resolutions == sorted(resolutions)
    assert resolutions[0] == SCALING_LEVEL


def sorted_tensor_indices(d, J):
    """Oracle: every member's axis pairs built one by one, sorted by (resolution, axes)."""
    univariate = [(SCALING_LEVEL, 0)] + [(j, t) for j in range(J + 1) for t in range(2**j)]
    tensor = list(itertools.product(univariate, repeat=d))
    return univariate, sorted(tensor, key=lambda axes: (resolution(axes), axes))


@pytest.mark.parametrize("d,J", [(d, J) for d in (1, 2, 3) for J in (0, 1, 2, 3)])
def test_integer_order_equals_the_sorted_index_order(d, J):
    univariate, expected = sorted_tensor_indices(d, J)
    position = {axis: u for u, axis in enumerate(univariate)}
    flat = [
        np.ravel_multi_index([position[axis] for axis in axes], (len(univariate),) * d)
        for axes in expected
    ]
    basis = haar_tensor_basis(d, J)
    assert basis.order.tolist() == flat
    assert basis.size == len(expected)


@pytest.mark.parametrize("d,J", [(d, J) for d in (1, 2, 3) for J in (0, 1, 2, 3)])
def test_integer_groups_equal_the_index_resolutions(d, J):
    basis = haar_tensor_basis(d, J)
    _, expected = sorted_tensor_indices(d, J)
    assert basis.groups.dtype == np.intp
    assert basis.groups.tolist() == [max(resolution(axes), 0) for axes in expected]
    assert not basis.groups.flags.writeable


def test_lazy_indices_equal_the_eager_tuple():
    # evaluate and the oracle constant_panels read one member's axis pairs
    # from the integer order; at every position they are the eager pairs.
    basis = haar_tensor_basis(2, 3)
    _, expected = sorted_tensor_indices(2, 3)
    assert [tuple(basis._member_axes(p)) for p in range(basis.size)] == expected
    assert all(type(level) is int for p in range(5) for level, _ in basis._member_axes(p))


def test_analyze_rejects_cells_of_the_wrong_shape():
    basis = haar_tensor_basis(2, 1)
    with pytest.raises(ContractError):
        basis.analyze(np.zeros((4, 2)))
    assert basis.analyze(np.zeros((3, 4, 4))).shape == (3, basis.size)


def padded(cells, starts, N, d):
    """The window stack's functions on all N^d cells, zero outside their window boxes."""
    k, W = len(starts), cells.shape[-1]
    lead = cells.shape[: cells.ndim - 2 * d]
    dense = np.zeros(lead + (k,) * d + (N,) * d)
    for position in np.ndindex(*(k,) * d):
        box = tuple(slice(starts[l], starts[l] + W) for l in position)
        window = tuple(x for l in position for x in (l, slice(None)))
        dense[(Ellipsis,) + position + box] = cells[(Ellipsis,) + window]
    return dense


@pytest.mark.parametrize("d,J", [(1, 0), (1, 3), (1, 6), (2, 0), (2, 2), (2, 4), (3, 1), (3, 2)])
def test_windowed_analysis_equals_the_dense_transform_of_the_padded_cells(d, J):
    basis = haar_tensor_basis(d, J)
    N = basis.cells_per_axis
    rng = np.random.default_rng(10 * d + J)
    for _ in range(6):
        # windows of any width; some aligned to a larger power of two than others
        W = int(rng.integers(1, N + 1)) if rng.random() < 0.5 else N >> int(rng.integers(0, J + 2))
        align = 2 ** int(rng.integers(0, J + 2))
        k = int(rng.integers(1, 4))
        starts = rng.integers(0, N - W + 1, size=k) // align * align
        lead = (2,) if rng.random() < 0.5 else ()
        cells = rng.standard_normal(lead + (k, W) * d)
        values, positions = basis.analyze_windows(cells, starts)
        dense = basis.analyze(padded(cells, starts, N, d))
        scattered = np.zeros(dense.shape)
        member_axes = tuple(range(len(lead), values.ndim, 2))
        coefficient_axes = tuple(range(len(lead) + 1, values.ndim, 2))
        order = tuple(range(len(lead))) + member_axes + coefficient_axes
        flat_values = values.transpose(order).reshape(lead + (k**d, -1))
        flat_positions = np.transpose(positions, [a - len(lead) for a in order[len(lead):]])
        flat_positions = flat_positions.reshape(k**d, -1)
        rows = np.arange(k**d)[:, None]
        scattered.reshape(lead + (k**d, basis.size))[..., rows, flat_positions] = flat_values
        assert np.array_equal(scattered.reshape(dense.shape), dense), (W, starts)


def test_windowed_analysis_rejects_windows_off_the_grid():
    basis = haar_tensor_basis(1, 2)  # 8 cells
    with pytest.raises(ContractError):
        basis.analyze_windows(np.zeros((2, 4)), [0, 6])  # runs past cell 7
    with pytest.raises(ContractError):
        basis.analyze_windows(np.zeros((2, 4)), [0])  # two windows, one start
    with pytest.raises(ContractError):
        basis.analyze_windows(np.zeros((1, 9)), [0])  # wider than the axis
    with pytest.raises(ContractError):
        haar_tensor_basis(2, 1).analyze_windows(np.zeros((1, 4)), [0])  # one axis pair of two


def test_one_basis_per_level_with_read_only_index_arrays():
    basis = haar_tensor_basis(2, 3)
    assert haar_tensor_basis(2, 3) is basis and haar_tensor_basis(2, 2) is not basis
    assert np.array_equal(basis.rank[basis.order], np.arange(basis.size))
    for array in (basis.order, basis.groups, basis.rank):
        assert not array.flags.writeable


@pytest.mark.parametrize("d,J", [(1, 5), (2, 1), (3, 1)])
def test_gram_matrix_is_the_identity(d, J):
    # Member values at the cell midpoints, once from evaluate and once from
    # the fast transform of the unit cell indicators; the Gram matrix is
    # their cell average.
    basis = haar_tensor_basis(d, J)
    pts = midpoint_grid(d, J)
    values = np.stack([basis.evaluate(p, pts) for p in range(basis.size)], axis=1)
    cells = len(pts)
    transformed = basis.analyze(np.eye(cells).reshape((cells,) + (basis.cells_per_axis,) * d))
    assert np.array_equal(transformed, values)
    gram = values.T @ values / cells
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-12


def test_evaluate_agrees_with_constant_panels():
    basis = haar_tensor_basis(2, 2)
    rng = np.random.default_rng(8)
    for position in rng.choice(basis.size, size=10, replace=False):
        for lo, hi, value in constant_panels(basis, position):
            mid = (lo + hi) / 2.0
            assert basis.evaluate(position, mid)[0] == pytest.approx(value, rel=1e-14)


def test_right_edge_folds_into_last_cell():
    basis = haar_tensor_basis(1, 0)
    assert basis.evaluate(1, np.array([[1.0]]))[0] == -1.0


def test_evaluate_rejects_points_outside_cube_and_foreign_indices():
    basis = haar_tensor_basis(1, 1)
    with pytest.raises(DomainError):
        basis.evaluate(0, np.array([[1.5]]))
    for position in (-1, basis.size, 2**40):
        with pytest.raises(ContractError):
            basis.evaluate(position, np.array([[0.5]]))
        with pytest.raises(ContractError):
            next(constant_panels(basis, position))


def test_parseval_for_representable_functions():
    # A function constant on the level-J dyadic grid lies in the span, so
    # its coefficient energy equals its squared norm exactly.
    d, J = 2, 1
    basis = haar_tensor_basis(d, J)
    pts = midpoint_grid(d, J)
    rng = np.random.default_rng(12)
    cell_values = rng.standard_normal(pts.shape[0])
    coeffs = np.array(
        [float(np.mean(cell_values * basis.evaluate(p, pts))) for p in range(basis.size)]
    )
    norm_sq = float(np.mean(cell_values**2))
    assert np.sum(coeffs**2) == pytest.approx(norm_sq, rel=1e-12)


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------

def test_preset_prior_variances_decay_dyadically():
    basis = haar_tensor_basis(1, 3)
    prior = wavelet_prior_preset(basis, tau=2.0, alpha=1.0)
    exponent = 2.0 * 1.0 + 1  # 2 alpha + d
    assert prior.variances.shape == (basis.size,)
    _, expected_axes = sorted_tensor_indices(1, 3)
    for variance, axes in zip(prior.variances, expected_axes):
        expected = 2.0 * 2.0 ** (-max(resolution(axes), 0) * exponent)
        assert variance == pytest.approx(expected, rel=1e-15)
    # scaling and level-0 indices share the same variance
    assert prior.variances[0] == prior.variances[1]


@pytest.mark.parametrize("name", ["tau", "alpha"])
def test_preset_refuses_an_infinite_scale_or_smoothness_before_any_variance(name):
    # alpha = inf once gave 0 * inf = nan variances, with a RuntimeWarning,
    # and then "prior variances must be finite"
    message = {"tau": "scale tau", "alpha": "smoothness alpha"}[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{message} must be positive and finite"):
            wavelet_prior_preset(haar_tensor_basis(1, 2), **{name: math.inf})


def test_prior_spectrum_places_zeros_off_the_retained_set():
    basis = haar_tensor_basis(1, 1)
    spectrum = WaveletPrior(basis, [0.5, 0.0, 0.25, 0.0]).to_spectrum()
    assert spectrum.basis_id == basis.basis_id
    assert np.allclose(spectrum.eigenvalues, [0.5, 0.0, 0.25, 0.0])


def test_prior_validates_membership_and_positivity():
    basis = haar_tensor_basis(1, 0)
    with pytest.raises(DomainError):
        WaveletPrior(basis, [0.0, 0.0])
    with pytest.raises(ContractError):
        WaveletPrior(basis, [1.0, 1.0, 1.0])
    with pytest.raises(ContractError):
        WaveletPrior(basis, [[1.0, 1.0]])
    with pytest.raises(DomainError, match="prior variances must be nonnegative"):
        WaveletPrior(basis, [1.0, -0.5])
    with pytest.raises(DomainError, match="prior variances must be finite"):
        WaveletPrior(basis, [1.0, math.inf])


# ---------------------------------------------------------------------------
# Risk floor and rate
# ---------------------------------------------------------------------------

def test_risk_floor_for_single_and_saturated_coefficients():
    n = 1000.0
    t = 0.01  # t^2 = 1e-4 < 1/n? no: 1e-4 = 1/10^4 < 1e-3, so min is t^2
    single = np.zeros(8)
    single[3] = t
    assert single_function_risk_bound(single, n) == pytest.approx(t * t)
    saturated = np.full(5, 1.0)  # all squared sizes >= 1/n
    assert single_function_risk_bound(saturated, n) == pytest.approx(5.0 / n)
    typed = TruthCoefficients(single, "haar1d_J2")
    assert single_function_risk_bound(typed, n) == pytest.approx(t * t)


def test_half_risk_floor_holds_for_every_prior_and_truth():
    # The guaranteed relation: half the floor lower-bounds the risk no
    # matter how adversarially the prior is tuned to the truth.
    basis = haar_tensor_basis(1, 4)
    rng = np.random.default_rng(100)
    n = 500.0
    for _ in range(200):
        tau = 10.0 ** rng.uniform(-3, 3)
        decay = rng.uniform(0.0, 3.0)
        spectrum = WaveletPrior(basis, tau * 2.0 ** (-basis.groups * decay)).to_spectrum()
        truth = TruthCoefficients(
            rng.standard_normal(basis.size) * rng.uniform(0.001, 0.5), basis.basis_id
        )
        bound = single_function_risk_bound(truth, n)
        assert exact_risk(spectrum, truth, n) >= 0.5 * bound - 1e-12


def test_level_profile_infimum_formula_against_numerical_minimum():
    # Oracle: minimize the risk over one shrinkage weight per resolution
    # group with scipy, from several starts; the closed form must match.
    basis = haar_tensor_basis(1, 3)
    groups = resolution_groups(basis)
    rng = np.random.default_rng(7)
    n = 200.0
    for _ in range(10):
        theta = rng.standard_normal(basis.size) * rng.uniform(0.001, 0.4)
        energy = np.array([np.sum(theta[members] ** 2) for members in groups.values()])
        sizes = np.array([len(members) for members in groups.values()])

        def risk_of(a):
            return float(np.sum((1.0 - a) ** 2 * energy + a**2 * sizes / n))

        best = min(
            optimize.minimize(
                risk_of, start, bounds=[(0.0, 1.0)] * len(sizes)
            ).fun
            for start in (
                np.zeros(len(sizes)),
                np.full(len(sizes), 0.5),
                np.ones(len(sizes)) - 1e-9,
            )
        )
        closed = level_profile_risk_infimum(theta, basis, n)
        assert closed == pytest.approx(best, rel=1e-9, abs=1e-12)


def test_level_profile_infimum_is_attained_by_group_average_prior():
    # The minimizing profile gives each group the variance S/L, its average
    # truth energy; plugging that prior in reproduces the infimum exactly,
    # and every other level-profile prior sits above it.
    basis = haar_tensor_basis(1, 4)
    groups = resolution_groups(basis)
    rng = np.random.default_rng(8)
    n = 500.0
    theta = rng.standard_normal(basis.size) * 0.05
    truth = TruthCoefficients(theta, basis.basis_id)
    infimum = level_profile_risk_infimum(truth, basis, n)

    eigenvalues = np.zeros(basis.size)
    for members in groups.values():
        eigenvalues[members] = np.sum(theta[members] ** 2) / len(members)
    argmin = Spectrum(eigenvalues, basis.basis_id)
    assert exact_risk(argmin, truth, n) == pytest.approx(infimum, rel=1e-12)

    for _ in range(50):
        profile = np.zeros(basis.size)
        for members in groups.values():
            profile[members] = 10.0 ** rng.uniform(-4, 3)
        other = Spectrum(profile, basis.basis_id)
        assert exact_risk(other, truth, n) >= infimum - 1e-12


def test_full_risk_floor_holds_for_dispersed_truths():
    # Against level-profile priors (one variance per resolution group, the
    # shape every preset produces) the unhalved floor is provable whenever
    # the truth spreads its within-group energy: the certificate is
    # level_profile_risk_infimum >= floor.  Five such functions, checked
    # against random profiles both monotone and wild.
    basis = haar_tensor_basis(1, 4)
    groups = resolution_groups(basis)
    rng = np.random.default_rng(101)
    n = 500.0
    functions = dispersed_test_functions(basis, n)

    certified = {}
    for name, theta in functions.items():
        truth = TruthCoefficients(theta, basis.basis_id)
        bound = single_function_risk_bound(truth, n)
        assert level_profile_risk_infimum(truth, basis, n) >= bound, name
        certified[name] = (truth, bound)

    spectra = []
    for _ in range(25):
        tau = 10.0 ** rng.uniform(-2, 2)
        alpha = rng.uniform(0.05, 3.0)
        spectra.append(wavelet_prior_preset(basis, tau=tau, alpha=alpha).to_spectrum())
    for _ in range(25):
        profile = np.zeros(basis.size)
        for members in groups.values():
            profile[members] = 10.0 ** rng.uniform(-4, 3)
        spectra.append(Spectrum(profile, basis.basis_id))

    for spectrum in spectra:
        for name, (truth, bound) in certified.items():
            assert exact_risk(spectrum, truth, n) >= bound - 1e-12, name


def test_full_risk_floor_can_fail_for_saturated_interpolation():
    # The documented exception: a nearly interpolating prior under a truth
    # with every coefficient above the noise level dips below the unhalved
    # floor (while respecting the halved one).
    basis = haar_tensor_basis(1, 4)
    n = 500.0
    spectrum = Spectrum(np.full(basis.size, 70.0), basis.basis_id)
    truth = TruthCoefficients(np.full(basis.size, 0.3), basis.basis_id)
    bound = single_function_risk_bound(truth, n)
    risk = exact_risk(spectrum, truth, n)
    assert 0.5 * bound - 1e-12 <= risk < bound


def test_rate_value_and_exponent_comparison():
    assert wavelet_prior_rate(1, 1000.0) == pytest.approx(0.1, rel=1e-14)
    for d in range(1, 11):
        assert 1.0 / (2.0 + d) < (2.0 + d) / (4.0 + 4.0 * d)
    with pytest.raises(DomainError):
        wavelet_prior_rate(0, 10.0)
    with pytest.raises(DomainError):
        wavelet_prior_rate(1, 0.5)


# ---------------------------------------------------------------------------
# Sawtooth surrogate
# ---------------------------------------------------------------------------

def test_sawtooth_profile_norm_matches_quad():
    surrogate = SawtoothSurrogate(1, 1)
    oracle, _ = integrate.quad(
        lambda x: min(x % 0.5, 0.5 - x % 0.5) ** 2, 0.0, 1.0, limit=200
    )
    assert surrogate.norm_sq() == pytest.approx(1.0 / 48.0, rel=1e-12)
    assert surrogate.norm_sq() == pytest.approx(oracle, rel=1e-8)


def test_sawtooth_two_dimensional_norm_matches_dblquad():
    surrogate = SawtoothSurrogate(2, 0)

    def fn(y, x):
        r = (x + y) % 1.0
        return min(r, 1.0 - r) ** 2

    oracle, err = integrate.dblquad(fn, 0, 1, 0, 1)
    assert surrogate.norm_sq() == pytest.approx(oracle, abs=max(1e-8, 4 * err))


def sawtooth_profile(surrogate):
    """Oracle input: the profile s -> dist(s, period Z) of the sawtooth on [0, d], piece by piece.

    The ridge formula of ridge_box_integral integrates it over boxes,
    independently of the closed-form cell integrals of haar_coefficients.
    """
    half = surrogate.period / 2.0
    teeth = int(math.ceil(surrogate.d / half))
    xs = [i * half for i in range(teeth + 1)]
    ys = [0.0 if i % 2 == 0 else half for i in range(teeth + 1)]
    return PiecewisePolynomial.from_linear_breakpoints(xs, ys)


def test_sawtooth_coefficients_match_quad_per_index():
    surrogate = SawtoothSurrogate(1, 1)
    basis = haar_tensor_basis(1, 3)
    coeffs = surrogate.haar_coefficients(basis)

    def sawtooth(x):
        return min(x % 0.5, 0.5 - x % 0.5)

    for pos in (0, 1, 5, 11):

        def product(x, pos=pos):
            return sawtooth(x) * basis.evaluate(pos, np.array([[x]]))[0]

        oracle, _ = integrate.quad(product, 0.0, 1.0, limit=400)
        assert coeffs[pos] == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("d,level,J", [(1, 2, 4), (2, 1, 3), (3, 0, 1)])
def test_sawtooth_coefficients_match_the_per_panel_ridge_sum(d, level, J):
    surrogate = SawtoothSurrogate(d, level)
    basis = haar_tensor_basis(d, J)
    profile = sawtooth_profile(surrogate)
    oracle = np.array(
        [
            sum(value * ridge_box_integral(profile, lo, hi) for lo, hi, value in constant_panels(basis, p))
            for p in range(basis.size)
        ]
    )
    deviation = np.max(np.abs(surrogate.haar_coefficients(basis) - oracle))
    assert deviation <= 1e-13 * math.sqrt(surrogate.norm_sq())


def exact_sawtooth_cell(d, level, N, corner):
    """Integral of dist(x_1 + ... + x_d, 2^-level Z) over one cell of side 1/N, as a Fraction.

    On the cell's range [a, a + d/N] of the coordinate sum, the profile is
    its affine piece at a plus w (s - x)_+ for every kink x = m 2^-(level+1)
    inside the range, with w = 2 (-1)^m.  The affine piece integrates to the
    cell volume times its value at the centroid sum a + d/(2N); each kink
    term goes through the vertex formula with beta = 1.
    """
    h = Fraction(1, N)
    half = Fraction(1, 2 ** (level + 1))
    a = sum(corner) * h
    tooth = math.floor(a / half)
    at_a = a - tooth * half if tooth % 2 == 0 else (tooth + 1) * half - a
    total = h**d * (at_a + (-1) ** tooth * d * h / 2)
    m = tooth + 1
    while m * half < a + d * h:
        vertices = sum(
            math.comb(d, r) * (-1) ** (d - r) * max(a + r * h - m * half, 0) ** (d + 1) for r in range(d + 1)
        )
        total += 2 * (-1) ** m * vertices / math.factorial(d + 1)
        m += 1
    return total


def exact_sawtooth_cells(d, level, J):
    """Every finest cell integral of the sawtooth, each the float nearest the exact value."""
    N = 2 ** (J + 1)
    cells = np.empty((N,) * d)
    for cell in np.ndindex(cells.shape):
        cells[cell] = float(exact_sawtooth_cell(d, level, N, cell))
    return cells


@pytest.mark.parametrize("d,J", [(1, 6), (2, 3), (3, 2)])
def test_sawtooth_cell_table_equals_the_per_cell_loop(d, J):
    # Oracle: one exact rational integral per finest cell, no index-sum table.
    surrogate = SawtoothSurrogate(d, max(0, J - 2))
    basis = haar_tensor_basis(d, J)
    cells = exact_sawtooth_cells(d, surrogate.level, J)
    assert np.array_equal(surrogate.haar_coefficients(basis), basis.analyze(cells))


@pytest.mark.parametrize("offset", [-1, 0, 1, 3])
@pytest.mark.parametrize("d,J", [(1, 4), (2, 3), (3, 2)])
def test_sawtooth_cell_table_is_the_correctly_rounded_exact_value(d, J, offset):
    # Levels J - 1 and J give periods of 4 and 2 cells; J + 1 one period
    # per cell side and J + 3 four, where every cell holds whole periods.
    surrogate = SawtoothSurrogate(d, J + offset)
    basis = haar_tensor_basis(d, J)
    cells = exact_sawtooth_cells(d, surrogate.level, J)
    assert np.array_equal(surrogate.haar_coefficients(basis), basis.analyze(cells))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sawtooth_norm_is_the_period_squared_over_twelve(d):
    for level in range(9):
        surrogate = SawtoothSurrogate(d, level)
        assert surrogate.norm_sq() == surrogate.period**2 / 12
        assert surrogate.norm_sq() == float(Fraction(1, 12 * 4**level))
        ridge = ridge_box_integral(sawtooth_profile(surrogate).squared(), np.zeros(d), np.ones(d))
        assert surrogate.norm_sq() == pytest.approx(ridge, rel=1e-10)


def test_sawtooth_work_bytes_bounds_the_traced_peak():
    # fresh bases, so the peak includes building the basis's order
    for d, J in [(1, 0), (1, 12), (1, 15), (2, 1), (2, 6), (3, 2), (3, 4), (4, 2)]:
        for K in (1, 2 ** (d * (J + 1))):
            basis = HaarTensorBasis(d, J)
            surrogate = SawtoothSurrogate(d, max(0, J - 2))
            tracemalloc.start()
            try:
                TruthCoefficients(surrogate.haar_coefficients(basis)[:K], basis.basis_id)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= sawtooth_work_bytes(d, J, K), (d, J, K)


def test_sawtooth_coefficient_energy_approaches_norm():
    # Bessel from below, nearly Parseval once the basis resolves the teeth.
    surrogate = SawtoothSurrogate(1, 1)
    shallow = np.sum(surrogate.haar_coefficients(haar_tensor_basis(1, 4)) ** 2)
    deep = np.sum(surrogate.haar_coefficients(haar_tensor_basis(1, 8)) ** 2)
    norm = surrogate.norm_sq()
    assert shallow <= deep <= norm + 1e-15
    assert deep == pytest.approx(norm, rel=1e-4)


def test_same_level_wavelets_cannot_see_the_sawtooth():
    # Within one tooth the profile is even about the cell midpoint, so the
    # level matching the teeth integrates it to zero.
    surrogate = SawtoothSurrogate(1, 2)
    basis = haar_tensor_basis(1, 2)
    coeffs = surrogate.haar_coefficients(basis)
    for pos in np.flatnonzero(basis.groups == 2):
        assert abs(coeffs[pos]) < 1e-15


@given(st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_sawtooth_norm_positive_and_bounded_by_peak(d, level):
    surrogate = SawtoothSurrogate(d, level)
    peak = surrogate.period / 2.0
    assert 0.0 < surrogate.norm_sq() <= peak**2
