"""Tensor Haar basis, series priors, and the single-function risk floor.

The independent integration oracle used throughout: every basis member is
constant on dyadic cells of width 2^{-(J+1)}, so averaging over the cell
midpoints integrates products of such functions exactly.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from gplb.errors import ContractError, DomainError
from gplb.integrate import ridge_box_integral
from gplb.sequence_core import Spectrum, TruthCoefficients, exact_risk
from gplb.wavelet import (
    SCALING_LEVEL,
    HaarTensorBasis,
    SawtoothSurrogate,
    WaveletIndex,
    WaveletPrior,
    haar_tensor_basis,
    level_profile_risk_infimum,
    sample_wavelet_prior,
    single_function_risk_bound,
    wavelet_prior_preset,
    wavelet_prior_rate,
)


def resolution_groups(basis):
    """Indices of basis members sharing a preset variance level."""
    keys = np.array([max(g.resolution, 0) for g in basis.indices])
    return {level: np.flatnonzero(keys == level) for level in np.unique(keys)}


def dispersed_test_functions(basis, n):
    """Five coefficient vectors with spread-out within-group energy.

    Each either concentrates far above the noise level 1/n or straddles
    it within a resolution group, so the level-profile risk infimum
    exceeds the unhalved floor and dominance is a theorem rather than a
    sampling accident.
    """
    groups = resolution_groups(basis)
    noise = 1.0 / n

    lone = np.zeros(basis.size)
    lone[groups[2][0]] = 0.35

    pair = np.zeros(basis.size)
    pair[groups[1][0]] = 0.5
    pair[groups[4][0]] = 0.2 * math.sqrt(noise)

    zigzag = np.zeros(basis.size)
    for level in (1, 2, 3, 4):
        zigzag[groups[level][0]] = 4.0 * math.sqrt(noise)
        zigzag[groups[level][-1]] = 0.25 * math.sqrt(noise)

    comb = np.zeros(basis.size)
    comb[groups[4][::2]] = 2.0 * math.sqrt(noise)

    alternating = np.zeros(basis.size)
    for level, members in groups.items():
        scale = 0.04 * 2.0 ** (-level)
        for slot, position in enumerate(members):
            alternating[position] = math.sqrt(scale * (8.0 if slot % 2 == 0 else 0.125))

    return {
        "lone supra-noise spike": lone,
        "cross-scale pair": pair,
        "zigzag straddling 1/n": zigzag,
        "half-filled fine comb": comb,
        "alternating geometric": alternating,
    }


def midpoint_grid(d, J):
    """Midpoints of the dyadic cells on which a level-J basis is constant."""
    cells = 2 ** (J + 1)
    axis = (np.arange(cells) + 0.5) / cells
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def exact_inner_by_sampling(basis, a, b, pts):
    # Exact because both factors are constant on each sampled cell.
    return float(np.mean(basis.evaluate(a, pts) * basis.evaluate(b, pts)))


# ---------------------------------------------------------------------------
# Basis construction and evaluation
# ---------------------------------------------------------------------------

def test_level_zero_univariate_basis_is_the_classic_pair():
    basis = haar_tensor_basis(1, 0)
    assert basis.size == 2
    scaling, mother = basis.indices
    assert scaling.axes == ((SCALING_LEVEL, 0),)
    assert mother.axes == ((0, 0),)
    pts = np.array([[0.1], [0.4], [0.6], [0.9]])
    assert np.allclose(basis.evaluate(scaling, pts), 1.0)
    assert np.allclose(basis.evaluate(mother, pts), [1.0, 1.0, -1.0, -1.0])
    assert basis.pair_inner(scaling, mother) == 0.0
    assert basis.pair_inner(mother, mother) == pytest.approx(1.0, abs=1e-15)


def test_basis_counts_follow_dyadic_counting():
    assert haar_tensor_basis(1, 3).size == 2**4
    assert haar_tensor_basis(2, 1).size == 2 ** (2 * 2)
    assert haar_tensor_basis(3, 1).size == 2 ** (3 * 2)


def test_indices_are_ordered_coarse_to_fine():
    basis = haar_tensor_basis(2, 2)
    resolutions = [g.resolution for g in basis.indices]
    assert resolutions == sorted(resolutions)
    assert basis.indices[0].resolution == SCALING_LEVEL


def sorted_tensor_indices(d, J):
    """Oracle: every index tuple built one by one, sorted by (resolution, axes)."""
    univariate = [(SCALING_LEVEL, 0)] + [(j, t) for j in range(J + 1) for t in range(2**j)]
    tensor = [WaveletIndex(axes) for axes in itertools.product(univariate, repeat=d)]
    return univariate, sorted(tensor, key=lambda g: (g.resolution, g.axes))


@pytest.mark.parametrize("d,J", [(d, J) for d in (1, 2, 3) for J in (0, 1, 2, 3)])
def test_integer_order_equals_the_sorted_index_order(d, J):
    univariate, expected = sorted_tensor_indices(d, J)
    position = {axis: u for u, axis in enumerate(univariate)}
    flat = [
        np.ravel_multi_index([position[axis] for axis in g.axes], (len(univariate),) * d)
        for g in expected
    ]
    basis = haar_tensor_basis(d, J)
    assert basis.order.tolist() == flat
    assert basis.size == len(expected)


@pytest.mark.parametrize("d,J", [(d, J) for d in (1, 2, 3) for J in (0, 1, 2, 3)])
def test_integer_groups_equal_the_index_resolutions(d, J):
    basis = haar_tensor_basis(d, J)
    assert basis.groups.dtype == np.intp
    assert basis.groups.tolist() == [max(g.resolution, 0) for g in basis.indices]
    assert not basis.groups.flags.writeable


def test_lazy_indices_equal_the_eager_tuple():
    basis = haar_tensor_basis(2, 3)
    assert "indices" not in vars(basis)
    _, expected = sorted_tensor_indices(2, 3)
    assert basis.indices == tuple(expected)
    assert basis.indices is basis.indices
    assert all(type(level) is int for g in basis.indices[:5] for level, _ in g.axes)


def test_analyze_rejects_cells_of_the_wrong_shape():
    basis = haar_tensor_basis(2, 1)
    with pytest.raises(ContractError):
        basis.analyze(np.zeros((4, 2)))
    assert basis.analyze(np.zeros((3, 4, 4))).shape == (3, basis.size)


@pytest.mark.parametrize("d,J", [(1, 5), (2, 1), (3, 1)])
def test_gram_matrix_is_the_identity(d, J):
    basis = haar_tensor_basis(d, J)
    gram = np.array(
        [[basis.pair_inner(a, b) for b in basis.indices] for a in basis.indices]
    )
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-12


def test_pair_inner_matches_midpoint_sampling_oracle():
    basis = haar_tensor_basis(2, 1)
    pts = midpoint_grid(2, 1)
    rng = np.random.default_rng(4)
    picks = rng.integers(0, basis.size, size=(40, 2))
    for ia, ib in picks:
        a, b = basis.indices[ia], basis.indices[ib]
        assert basis.pair_inner(a, b) == pytest.approx(
            exact_inner_by_sampling(basis, a, b, pts), abs=1e-12
        )


def test_evaluate_agrees_with_constant_panels():
    basis = haar_tensor_basis(2, 2)
    rng = np.random.default_rng(8)
    for index in rng.choice(len(basis.indices), size=10, replace=False):
        member = basis.indices[index]
        for lo, hi, value in basis.constant_panels(member):
            mid = (lo + hi) / 2.0
            assert basis.evaluate(member, mid)[0] == pytest.approx(value, rel=1e-14)


def test_right_edge_folds_into_last_cell():
    basis = haar_tensor_basis(1, 0)
    mother = basis.indices[1]
    assert basis.evaluate(mother, np.array([[1.0]]))[0] == -1.0


def test_evaluate_rejects_points_outside_cube_and_foreign_indices():
    basis = haar_tensor_basis(1, 1)
    with pytest.raises(DomainError):
        basis.evaluate(basis.indices[0], np.array([[1.5]]))
    deep = WaveletIndex(((5, 0),))
    with pytest.raises(ContractError):
        basis.evaluate(deep, np.array([[0.5]]))


def test_wavelet_index_validates_translates():
    with pytest.raises(DomainError):
        WaveletIndex(((0, 1),))  # level 0 has a single translate
    with pytest.raises(DomainError):
        WaveletIndex(((2, -1),))
    with pytest.raises(DomainError):
        WaveletIndex(((SCALING_LEVEL, 2),))
    assert WaveletIndex(((2, 3), (SCALING_LEVEL, 0))).resolution == 2


def test_parseval_for_representable_functions():
    # A function constant on the level-J dyadic grid lies in the span, so
    # its coefficient energy equals its squared norm exactly.
    d, J = 2, 1
    basis = haar_tensor_basis(d, J)
    pts = midpoint_grid(d, J)
    rng = np.random.default_rng(12)
    cell_values = rng.standard_normal(pts.shape[0])
    coeffs = np.array(
        [float(np.mean(cell_values * basis.evaluate(g, pts))) for g in basis.indices]
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
    for variance, index in zip(prior.variances, basis.indices):
        expected = 2.0 * 2.0 ** (-max(index.resolution, 0) * exponent)
        assert variance == pytest.approx(expected, rel=1e-15)
    # scaling and level-0 indices share the same variance
    assert prior.variances[0] == prior.variances[1]


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
    with pytest.raises(DomainError):
        WaveletPrior(basis, [1.0, -0.5])
    with pytest.raises(DomainError):
        WaveletPrior(basis, [1.0, math.inf])


def test_sample_wavelet_prior_is_deterministic_and_scales_correctly():
    basis = haar_tensor_basis(1, 2)
    prior = wavelet_prior_preset(basis, tau=1.0, alpha=0.5)
    a = sample_wavelet_prior(prior, np.random.default_rng(33))
    b = sample_wavelet_prior(prior, np.random.default_rng(33))
    assert np.array_equal(a.theta, b.theta)
    assert a.basis_id == basis.basis_id

    draws = np.stack(
        [
            sample_wavelet_prior(prior, rng).theta
            for rng in [np.random.default_rng(s) for s in range(10_000)]
        ]
    )
    assert np.all(np.abs(draws.var(axis=0) / prior.variances - 1.0) < 0.05)

    partial = WaveletPrior(haar_tensor_basis(1, 1), [0.5, 0.0, 0.25, 0.0])
    theta = sample_wavelet_prior(partial, np.random.default_rng(4)).theta
    assert theta[1] == theta[3] == 0.0
    assert theta[0] != 0.0 and theta[2] != 0.0


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


def test_sawtooth_evaluate_matches_distance_formula():
    surrogate = SawtoothSurrogate(2, 2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(50, 2))
    s = pts.sum(axis=1)
    period = 0.25
    expected = np.minimum(s % period, period - s % period)
    assert np.allclose(surrogate.evaluate(pts), expected, atol=1e-14)


def test_sawtooth_coefficients_match_quad_per_index():
    surrogate = SawtoothSurrogate(1, 1)
    basis = haar_tensor_basis(1, 3)
    coeffs = surrogate.haar_coefficients(basis)

    def sawtooth(x):
        return min(x % 0.5, 0.5 - x % 0.5)

    for pos in (0, 1, 5, 11):
        index = basis.indices[pos]

        def product(x, index=index):
            return sawtooth(x) * basis.evaluate(index, np.array([[x]]))[0]

        oracle, _ = integrate.quad(product, 0.0, 1.0, limit=400)
        assert coeffs[pos] == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("d,level,J", [(1, 2, 4), (2, 1, 3), (3, 0, 1)])
def test_sawtooth_coefficients_match_the_per_panel_ridge_sum(d, level, J):
    surrogate = SawtoothSurrogate(d, level)
    basis = haar_tensor_basis(d, J)
    profile = surrogate._profile()
    oracle = np.array(
        [
            sum(value * ridge_box_integral(profile, lo, hi) for lo, hi, value in basis.constant_panels(g))
            for g in basis.indices
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
        ridge = ridge_box_integral(surrogate._profile().squared(), np.zeros(d), np.ones(d))
        assert surrogate.norm_sq() == pytest.approx(ridge, rel=1e-10)


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
    for pos, index in enumerate(basis.indices):
        if index.resolution == 2:
            assert abs(coeffs[pos]) < 1e-15


@given(st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_sawtooth_norm_positive_and_bounded_by_peak(d, level):
    surrogate = SawtoothSurrogate(d, level)
    peak = surrogate.period / 2.0
    assert 0.0 < surrogate.norm_sq() <= peak**2
