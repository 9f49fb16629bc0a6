"""Sequence model, conjugate updates, and risk estimators.

Frozen values below are hand derivations from the shrinkage identities
a = n lambda / (n lambda + 1), variance = lambda / (n lambda + 1), and
risk = sum (1-a)^2 theta^2 + a^2 / n.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize_scalar

import gplb.sequence_core as sequence_core
from conftest import from_dense
from gplb.adversarial import build_pyramid_family, compute_coefficients, tk_matched_spectrum
from gplb.errors import ContractError, DomainError
from gplb.sequence_core import (
    MASS_TOLERANCE,
    GPPosterior,
    SequenceObservation,
    SparseRows,
    Spectrum,
    TruthCoefficients,
    _ladder_settles,
    _quadratic_form_tail,
    contraction_mass,
    contraction_probability,
    exact_risk,
    exponential_spectrum,
    flat_spectrum,
    mc_risk,
    polynomial_spectrum,
    posterior_update,
    sample_observation,
)
from gplb.wavelet import haar_tensor_basis

BASIS = "testbasis"


def spectrum_of(*lams):
    return Spectrum(np.array(lams, dtype=float), BASIS)


def truth_of(*theta):
    return TruthCoefficients(np.array(theta, dtype=float), BASIS)


def observation_of(values, n):
    return SequenceObservation(np.asarray(values, dtype=float), float(n), BASIS)


# ---------------------------------------------------------------------------
# Conjugate update
# ---------------------------------------------------------------------------

def test_posterior_mean_and_variance_hand_values():
    # n = 100, lambda = 1, Y = 2: a = 100/101
    post = posterior_update(spectrum_of(1.0), observation_of([2.0], 100.0))
    assert post.means[0] == pytest.approx(200.0 / 101.0, rel=1e-15)
    assert post.variances[0] == pytest.approx(1.0 / 101.0, rel=1e-15)


def test_noise_level_prior_shrinks_by_half():
    n = 50.0
    post = posterior_update(spectrum_of(1.0 / n, 1.0 / n), observation_of([1.0, -2.0], n))
    assert np.allclose(post.weights, 0.5, rtol=1e-14)
    assert np.allclose(post.variances, 1.0 / (2.0 * n), rtol=1e-14)


def test_zero_eigenvalue_gives_degenerate_posterior():
    post = posterior_update(spectrum_of(0.0, 1.0), observation_of([3.0, 3.0], 10.0))
    assert post.means[0] == 0.0
    assert post.variances[0] == 0.0
    assert post.weights[0] == 0.0
    assert post.means[1] != 0.0


def test_posterior_update_rejects_basis_mismatch():
    obs = SequenceObservation(np.array([1.0]), 10.0, "otherbasis")
    with pytest.raises(ContractError):
        posterior_update(spectrum_of(1.0), obs)


def test_posterior_update_rejects_length_mismatch():
    with pytest.raises(ContractError):
        posterior_update(spectrum_of(1.0, 2.0), observation_of([1.0], 10.0))


@given(
    lam=st.floats(1e-8, 1e8),
    n=st.floats(1e-3, 1e7),
    y=st.floats(-100.0, 100.0),
)
@settings(max_examples=300, deadline=None)
def test_shrinkage_identities_hold_across_scales(lam, n, y):
    post = posterior_update(spectrum_of(lam), observation_of([y], n))
    a = post.weights[0]
    assert 0.0 < a < 1.0
    # variance = lambda (1 - a); recompute 1 - a stably as 1/(1 + n lambda)
    assert post.variances[0] == pytest.approx(lam / (1.0 + n * lam), rel=1e-12)
    assert post.variances[0] < lam
    assert post.means[0] == pytest.approx(a * y, rel=1e-12, abs=1e-300)


def test_shrinkage_saturates_gracefully_at_float_extremes():
    post = posterior_update(spectrum_of(1e308, 1e-308), observation_of([1.0, 1.0], 100.0))
    assert post.variances[0] == pytest.approx(1.0 / 100.0, rel=1e-12)
    assert post.weights[0] <= 1.0
    assert post.variances[1] == pytest.approx(1e-308, rel=1e-12)
    assert post.weights[1] == pytest.approx(100.0 * 1e-308, rel=1e-12)


# ---------------------------------------------------------------------------
# Exact risk
# ---------------------------------------------------------------------------

def test_exact_risk_hand_value_at_noise_level_prior():
    # theta = 0, lambda = 1/n, K = 1, n = 100: a = 1/2, risk = (1/2)^2 / 100
    value = exact_risk(spectrum_of(0.01), truth_of(0.0), 100.0)
    assert value == pytest.approx(0.0025, rel=1e-15)


def test_exact_risk_limits_pure_variance_and_pure_bias():
    theta = truth_of(0.3, -0.4, 0.5)
    n = 200.0
    huge = exact_risk(Spectrum(np.full(3, 1e12), BASIS), theta, n)
    assert huge == pytest.approx(3.0 / n, rel=1e-9)
    tiny = exact_risk(Spectrum(np.full(3, 1e-15), BASIS), theta, n)
    assert tiny == pytest.approx(0.09 + 0.16 + 0.25, rel=1e-9)
    zero = exact_risk(Spectrum(np.zeros(3), BASIS), theta, n)
    assert zero == pytest.approx(0.5, rel=1e-15)


def test_exact_risk_multi_coordinate_hand_value():
    # lambda = (1, 0.01), theta = (0.3, 0.2), n = 100:
    #   coord 1: a = 100/101, risk = (1/101)^2 * 0.09 + (100/101)^2 / 100
    #   coord 2: a = 1/2,     risk = (1/2)^2 * 0.04 + (1/2)^2 / 100
    expected = (0.09 / 101**2 + 100.0 / 101**2) + (0.01 + 0.0025)
    value = exact_risk(spectrum_of(1.0, 0.01), truth_of(0.3, 0.2), 100.0)
    assert value == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_exact_risks_equal_the_looped_exact_risk(seed):
    # the store's risks of many truths against exact_risk of each
    rng = np.random.default_rng(seed)
    K, m = int(rng.integers(1, 300)), int(rng.integers(1, 20))
    lams = 10.0 ** rng.uniform(-8.0, 4.0, K)
    lams[rng.random(K) < 0.3] = 0.0
    spectrum = Spectrum(lams, BASIS)
    thetas = rng.standard_normal((m, K)) * 10.0 ** rng.uniform(-6.0, 0.0, (m, 1))
    thetas[rng.random((m, K)) < 0.5] = 0.0
    n = 10.0 ** rng.uniform(0.0, 7.0)
    looped = np.array([exact_risk(spectrum, truth_of(*row), n) for row in thetas])
    risks = from_dense(SparseRows, thetas, BASIS).risks(spectrum, n)
    assert np.allclose(risks, looped, rtol=1e-14, atol=0.0)


def test_stacked_spectra_give_the_one_spectrum_risks_bit_for_bit():
    rng = np.random.default_rng(11)
    lams = 10.0 ** rng.uniform(-8.0, 4.0, (6, 50))
    lams[rng.random((6, 50)) < 0.3] = 0.0
    thetas = rng.standard_normal((7, 50))
    store = from_dense(SparseRows, thetas, BASIS)
    # an F-ordered stack, as fancy indexing a stack of profiles gives, sums as C rows do
    stacked = store.risks(Spectrum(np.asfortranarray(lams), BASIS), 300.0)
    assert stacked.shape == (6, 7)
    for row, lam in zip(stacked, lams):
        assert np.array_equal(row, store.risks(Spectrum(lam, BASIS), 300.0))
    # only the store's risks take a stack of spectra
    for call in (
        lambda: exact_risk(Spectrum(lams, BASIS), TruthCoefficients(thetas[0], BASIS), 300.0),
        lambda: mc_risk(Spectrum(lams, BASIS), TruthCoefficients(thetas[0], BASIS), 300.0, 10, rng),
        lambda: posterior_update(Spectrum(lams, BASIS), SequenceObservation(thetas[:6], 300.0, BASIS)),
    ):
        with pytest.raises(ContractError, match="shapes differ"):
            call()


def where_shrinkage(lam, n):
    """The shrinkage as two np.where expressions, before it wrote in place."""
    with np.errstate(divide="ignore", over="ignore"):
        inv_lam = np.where(lam > 0.0, 1.0 / lam, np.inf)
        variances = 1.0 / (n + inv_lam)
        one_minus = np.where(lam > 0.0, 1.0 / (1.0 + n * lam), 1.0)
    return n * variances, one_minus, variances


def dense_risks(lams, thetas, n):
    """The risk of every dense row of thetas (m, K) under every spectrum (K,) or (S, K).

    One expression over the whole (S, m, K) product: the oracle of
    exact_risk, which it equals bit for bit at each row, and of
    SparseRows.risks, which sums only the stored terms.
    """
    weights, one_minus, _ = where_shrinkage(lams, n)
    bias = np.sum((one_minus[..., None, :] * thetas) ** 2, axis=-1)
    return bias + (np.sum(weights**2, axis=-1) / n)[..., None]


def test_shrinkage_in_place_has_the_bits_of_the_where_form():
    lam = np.array([0.0, -0.0, 5e-324, 1e-320, 1e-8, 1.0, 3.0, 1e308, 1.7976931348623157e308])
    for n in (1e-3, 1.0, 7.0, 1e7, 1e300):
        for new, old in zip(sequence_core._shrinkage(lam, n), where_shrinkage(lam, n)):
            assert new.tobytes() == old.tobytes(), n


def test_exact_risk_at_zero_and_huge_eigenvalues_is_the_one_expression_bit_for_bit():
    # exact_risk sums the squares of the error law's b_k = -(1 - a_k) theta_k:
    # the one expression, at lambda = 0 (a_k = 0, b_k = -theta_k) and at
    # lambda = 1e308 (n lambda overflows past n = 1.8, so 1 - a_k = 0)
    rng = np.random.default_rng(26)
    thetas = rng.standard_normal((4, 40))
    thetas[rng.random((4, 40)) < 0.3] = 0.0
    for lam in (0.0, 1e308):
        mixed = 10.0 ** rng.uniform(-6.0, 2.0, 40)
        mixed[rng.random(40) < 0.5] = lam
        for lams in (mixed, np.full(40, lam)):
            for n in (1e-3, 7.0, 1e5):
                expected = dense_risks(lams, thetas, n)
                for theta, risk in zip(thetas, expected):
                    assert exact_risk(Spectrum(lams, BASIS), truth_of(*theta), n) == risk, (lam, n)


B = 2**14  # 128 KiB of float64: the stacks and rows below lie on either side of it


@pytest.mark.parametrize(
    "S,m,K",
    [
        (None, 1, 1), (4, 1, 1), (None, 1, 300), (3, 1, 300),  # one row
        (100, 4, 128), (41, 7, 200),  # stacks of many spectra
        (3, 6, B // 8), (None, 5, B // 8),
        (2, 16, B // 4), (None, 3, B // 4 + 1),
        (2, 2, B + 3), (None, 1, 2 * B + 1),  # long rows
        (5, 3000, 2), (None, 20000, 5),  # many short rows
    ],
)
def test_blocked_exact_risks_equal_the_one_expression_bit_for_bit(S, m, K):
    # exact_risk is the one expression at each row, bit for bit; the store's
    # risks take the whole stack of spectra at once, and each spectrum's row
    # keeps the bits it has alone and lies within 4 ulp of the one expression
    rng = np.random.default_rng(m * K)
    shape = (K,) if S is None else (S, K)
    lams = 10.0 ** rng.uniform(-8.0, 4.0, shape)
    lams[rng.random(shape) < 0.3] = 0.0
    thetas = rng.standard_normal((m, K)) * 10.0 ** rng.uniform(-6.0, 0.0, (m, 1))
    thetas[rng.random((m, K)) < 0.3] = 0.0
    n = 10.0 ** rng.uniform(0.0, 7.0)
    expected = dense_risks(lams, thetas, n)
    for s, j in ((s, j) for s in range(S or 1)[:3] for j in {0, m // 2, m - 1}):
        lam = lams if S is None else lams[s]
        got = exact_risk(Spectrum(lam, BASIS), truth_of(*thetas[j]), n)
        assert got == (expected[j] if S is None else expected[s, j])
    store = from_dense(SparseRows, thetas, BASIS)
    risks = store.risks(Spectrum(lams, BASIS), n)
    assert risks.shape == shape[:-1] + (m,)
    for s in range(S or 0):
        assert np.array_equal(risks[s], store.risks(Spectrum(lams[s], BASIS), n))
    scale = np.spacing(np.abs(expected))
    assert np.all(np.abs(risks - expected) <= 4 * scale)


def traced_peak(call):
    """(result, peak bytes allocated during call) above what was live before it.

    An untraced call first, so one-time caches of NumPy and Python do not count.
    """
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_stacked_risk_floors_peak_stays_within_one_shrinkage_and_product_per_spectrum():
    # the risk-floors check's stacked call at the acceptance size: 500
    # level-profile spectra on the d = 2, level-4 tensor Haar basis.  One
    # shrinkage serves the stack, so the call holds at most three arrays of K
    # and one product per stored value for each spectrum, the result, and
    # 8 KiB for array headers and vectors of S
    basis = haar_tensor_basis(2, 4)
    coeffs = compute_coefficients(build_pyramid_family(2, 3), basis, basis.size)
    rng = np.random.default_rng(9)
    levels = np.arange(basis.level + 1)
    profiles = 10.0 ** rng.uniform(-6.0, 2.0, (500, levels.size))
    profiles[::2] = 10.0 ** rng.uniform(-2.0, 2.0, (250, 1)) * 2.0 ** (
        -rng.uniform(0.0, 3.0, (250, 1)) * levels
    )
    spectra = Spectrum(profiles[:, basis.groups], coeffs.basis_id)
    risks, peak = traced_peak(lambda: coeffs.risks(spectra, 1e4))
    S, K = spectra.eigenvalues.shape
    assert risks.shape == (S, coeffs.m)
    assert peak <= 8 * S * (coeffs.values.size + 3 * K) + risks.nbytes + 8192, peak


def test_exact_risks_validates_inputs():
    # exact_risk and the store's risks refuse a mismatched basis, shape or n
    spectrum = spectrum_of(1.0, 0.5)
    with pytest.raises(ContractError):
        exact_risk(spectrum, TruthCoefficients([0.0, 0.0], "other"), 10.0)
    with pytest.raises(ContractError):
        exact_risk(spectrum, truth_of(0.0, 0.0, 0.0), 10.0)
    with pytest.raises(DomainError):
        exact_risk(spectrum, truth_of(0.0, 0.0), 0.0)
    store = from_dense(SparseRows, np.zeros((2, 3)), BASIS)
    with pytest.raises(ContractError):
        store.risks(spectrum, 10.0)
    with pytest.raises(ContractError, match="does not match basis"):
        from_dense(SparseRows, np.zeros((2, 2)), "other").risks(spectrum, 10.0)
    with pytest.raises(DomainError):
        from_dense(SparseRows, np.zeros((1, 2)), BASIS).risks(spectrum, 0.0)


def test_sparse_row_refuses_an_index_outside_the_store():
    # A negative index would read another row's slice (or an all-zero one
    # at j = -1), and j = m would fail inside NumPy
    dense = np.arange(1.0, 13.0).reshape(4, 3)
    store = from_dense(SparseRows, dense, BASIS)
    assert [store.row(j).tolist() for j in range(4)] == dense.tolist()
    for j in (-1, -4, 4, 5):
        with pytest.raises(DomainError, match=rf"row index {j} out of range for 4 rows"):
            store.row(j)


def test_matched_eigenvalue_attains_the_coordinatewise_minimum():
    # Over a grid of shrinkage weights the risk (1-a)^2 t^2 + a^2/n never
    # drops below t^2/(1 + n t^2), which lambda = t^2 attains exactly.
    t, n = 0.17, 400.0
    floor = t * t / (1.0 + n * t * t)
    grid = np.linspace(0.0, 1.0, 10_001)
    grid_risk = (1.0 - grid) ** 2 * t * t + grid**2 / n
    assert grid_risk.min() >= floor - 1e-15
    assert exact_risk(spectrum_of(t * t), truth_of(t), n) == pytest.approx(floor, rel=1e-14)


def test_risk_is_eventually_monotone_but_not_globally():
    # Once n lambda >= 1 the risk decreases in n; below that threshold the
    # variance term can grow, so global monotonicity fails.
    spectrum, theta = spectrum_of(0.1), truth_of(0.0)
    assert exact_risk(spectrum, theta, 5.0) > exact_risk(spectrum, theta, 1.0)
    risks = [exact_risk(spectrum, theta, n) for n in (10.0, 20.0, 40.0, 80.0)]
    assert all(a >= b for a, b in zip(risks, risks[1:]))


@given(
    lam=st.floats(0.01, 100.0),
    theta=st.floats(-3.0, 3.0),
    n=st.floats(1.0, 1e6),
    factor=st.floats(1.5, 10.0),
)
@settings(max_examples=300, deadline=None)
def test_risk_nonincreasing_in_n_once_signal_dominates(lam, theta, n, factor):
    if n * lam < 1.0:
        n = 1.0 / lam
    spectrum, truth = spectrum_of(lam), truth_of(theta)
    assert exact_risk(spectrum, truth, n * factor) <= exact_risk(spectrum, truth, n) * (
        1.0 + 1e-12
    )


# ---------------------------------------------------------------------------
# Observation sampling
# ---------------------------------------------------------------------------

def test_sample_observation_is_deterministic_given_seed():
    theta = truth_of(0.1, -0.2, 0.3)
    a = sample_observation(theta, 50.0, np.random.default_rng(123))
    b = sample_observation(theta, 50.0, np.random.default_rng(123))
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.n == 50.0 and a.basis_id == BASIS


def test_sample_observation_mean_passes_through():
    theta = truth_of(1.0, 0.0, 0.0)
    rng = np.random.default_rng(7)
    draws = np.stack(
        [sample_observation(theta, 1e4, rng).coefficients for _ in range(2000)]
    )
    stderr = 1.0 / math.sqrt(1e4 * 2000)
    assert abs(draws[:, 0].mean() - 1.0) < 4 * stderr
    assert abs(draws[:, 1].mean()) < 4 * stderr


def test_sample_observation_noise_variance_scales_as_one_over_n():
    theta = TruthCoefficients(np.zeros(1), BASIS)
    rng = np.random.default_rng(11)
    n = 1e6
    draws = np.array([sample_observation(theta, n, rng).coefficients[0] for _ in range(10_000)])
    assert abs(draws.var() - 1.0 / n) < 0.05 / n


def test_sample_observation_rejects_bad_n():
    with pytest.raises(DomainError):
        sample_observation(truth_of(0.0), 0.0, np.random.default_rng(0))
    with pytest.raises(DomainError):
        sample_observation(truth_of(0.0), -2.0, np.random.default_rng(0))
    with pytest.raises(DomainError, match="sample size n"):
        SequenceObservation([1.0], 0.0, "b")


@pytest.mark.parametrize("seed", [0, 1, 707])
@pytest.mark.parametrize("draws", [1, 2, 500])
def test_stacked_observations_equal_the_single_draws_row_by_row(seed, draws):
    spectrum = Spectrum(np.array([0.02, 0.5, 0.0, 3e-4, 1e-9, 7.0, 0.02, 1e3]), BASIS)
    theta = TruthCoefficients(np.linspace(-0.4, 0.7, 8), BASIS)
    n = 500.0
    single_rng, stacked_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    singles = [sample_observation(theta, n, single_rng) for _ in range(draws)]
    stacked = sample_observation(theta, n, stacked_rng, draws=draws)
    assert stacked.coefficients.shape == (draws, 8)
    assert stacked.n == n and stacked.basis_id == BASIS
    # one (draws, K) call reads the stream that draws calls of size K read
    assert single_rng.bit_generator.state == stacked_rng.bit_generator.state
    posterior = posterior_update(spectrum, stacked)
    assert posterior.means.shape == (draws, 8)
    for row, single in enumerate(singles):
        assert np.array_equal(stacked.coefficients[row], single.coefficients)
        one = posterior_update(spectrum, single)
        assert np.array_equal(posterior.means[row], one.means)
        assert np.array_equal(posterior.variances, one.variances)
        assert np.array_equal(posterior.weights, one.weights)


def test_stacked_observations_are_validated():
    theta = truth_of(0.1, 0.2)
    with pytest.raises(DomainError, match="draws"):
        sample_observation(theta, 10.0, np.random.default_rng(0), draws=0)
    with pytest.raises(DomainError):
        observation_of(np.zeros((2, 2, 2)), 10.0)
    with pytest.raises(DomainError):
        observation_of(np.zeros((0, 2)), 10.0)
    with pytest.raises(DomainError):
        observation_of([[0.0, np.nan]], 10.0)
    # truths and spectra stay one-dimensional
    with pytest.raises(DomainError):
        TruthCoefficients(np.zeros((2, 2)), BASIS)
    with pytest.raises(ContractError):
        posterior_update(spectrum_of(1.0, 2.0, 3.0), observation_of(np.zeros((4, 2)), 10.0))


# ---------------------------------------------------------------------------
# Monte Carlo risk
# ---------------------------------------------------------------------------

def test_mc_risk_brackets_exact_risk():
    spectrum, theta, n = spectrum_of(0.01), truth_of(0.0), 100.0
    estimate, stderr = mc_risk(spectrum, theta, n, 100_000, np.random.default_rng(5))
    assert abs(estimate - 0.0025) < 4 * stderr
    assert stderr < 0.0025  # informative at this replication count


def test_mc_risk_degenerate_prior_and_truth_is_exactly_zero():
    estimate, stderr = mc_risk(
        Spectrum(np.zeros(4), BASIS),
        TruthCoefficients(np.zeros(4), BASIS),
        10.0,
        100,
        np.random.default_rng(0),
    )
    assert estimate == 0.0
    assert stderr == 0.0


def test_mc_risk_stderr_shrinks_like_root_replications():
    spectrum, theta, n = spectrum_of(0.5, 0.5), truth_of(0.4, -0.1), 50.0
    rng = np.random.default_rng(21)
    ratios = []
    for _ in range(20):
        _, s1 = mc_risk(spectrum, theta, n, 2000, rng)
        _, s2 = mc_risk(spectrum, theta, n, 4000, rng)
        ratios.append(s2 / s1)
    assert 0.6 < float(np.mean(ratios)) < 0.85


def test_mc_risk_moves_by_ulps_when_a_tie_between_scales_breaks():
    # one eigenvalue of a flat prior times (1 + 1e-13) no longer equals the
    # other 63; each coordinate keeps its own normal and gamma, so at a fixed
    # seed the estimate moves about as far as its inputs, not by a re-draw
    spectrum = flat_spectrum(64, basis_id=BASIS, tau=0.3)
    theta = TruthCoefficients(np.linspace(-1, 1, 64), BASIS)
    lams = spectrum.eigenvalues.copy()
    lams[17] *= 1.0 + 1e-13
    assert lams[17] != spectrum.eigenvalues[17]
    whole = mc_risk(spectrum, theta, 77.0, 500, np.random.default_rng(3))
    split = mc_risk(Spectrum(lams, BASIS), theta, 77.0, 500, np.random.default_rng(3))
    assert split[0] == pytest.approx(whole[0], rel=1e-12)
    assert split[1] == pytest.approx(whole[1], rel=1e-12)


def mixed_group_spectrum():
    """Eigenvalues with singletons, groups of 2, 5 and 9, and four zeros, shuffled."""
    lams = np.concatenate(
        [[0.9, 0.05, 0.002], [0.3] * 2, [0.04] * 5, [0.01] * 9, [0.0] * 4]
    )
    return Spectrum(np.random.default_rng(0).permutation(lams), BASIS)


def per_coordinate_mc_risk(spectrum, theta, n, replications, rng):
    """Oracle: fbar - theta = -(1 - a) theta + (a / sqrt(n)) w, one normal per coordinate."""
    lam = spectrum.eigenvalues
    a = n * lam / (n * lam + 1.0)
    errors = -(1.0 - a) * theta.theta + a / math.sqrt(n) * rng.standard_normal(
        (replications, spectrum.size)
    )
    risks = np.einsum("ij,ij->i", errors, errors)
    return float(risks.mean()), float(risks.std(ddof=1) / math.sqrt(replications))


def _oracle_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "singletons":
        spectrum = polynomial_spectrum(60, basis_id=BASIS, alpha=1.5)
        theta = rng.normal(0.0, 0.3, 60)
    elif name == "one large group":
        spectrum = flat_spectrum(60, basis_id=BASIS, tau=0.02)
        theta = rng.normal(0.0, 0.3, 60)
    elif name == "30% zero eigenvalues":
        lams = 10.0 ** rng.uniform(-4.0, 0.0, 60)
        lams[rng.permutation(60)[:18]] = 0.0
        spectrum, theta = Spectrum(lams, BASIS), rng.normal(0.0, 0.3, 60)
    elif name == "group with zero truth":
        lams = np.concatenate([np.full(20, 0.05), 10.0 ** rng.uniform(-4.0, 0.0, 10)])
        theta = np.concatenate([np.zeros(20), rng.normal(0.0, 0.3, 10)])
        spectrum = Spectrum(lams, BASIS)
    else:  # mixed
        spectrum = mixed_group_spectrum()
        theta = rng.normal(0.0, 0.3, spectrum.size)
        theta[spectrum.eigenvalues == 0.04] = 0.0  # the group of 5 has lambda_G = 0
    return spectrum, TruthCoefficients(theta, BASIS)


ORACLE_CASES = ["singletons", "one large group", "30% zero eigenvalues", "group with zero truth", "mixed"]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_grouped_mc_risk_matches_the_per_coordinate_oracle(name):
    spectrum, theta = _oracle_case(name)
    n, replications = 200.0, 40_000
    grouped, grouped_se = mc_risk(spectrum, theta, n, replications, np.random.default_rng(1))
    oracle, oracle_se = per_coordinate_mc_risk(
        spectrum, theta, n, replications, np.random.default_rng(2)
    )
    assert abs(grouped - oracle) <= 4.0 * math.hypot(grouped_se, oracle_se)
    assert abs(grouped - exact_risk(spectrum, theta, n)) <= 4.0 * grouped_se


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_mc_stderr_is_the_exact_standard_deviation_of_the_estimate(name):
    spectrum, theta = _oracle_case(name)
    n, replications = 200.0, 40_000
    _, stderr = mc_risk(spectrum, theta, n, replications, np.random.default_rng(1))
    lam = spectrum.eigenvalues
    a = n * lam / (n * lam + 1.0)
    b, s = (1.0 - a) * theta.theta, a / math.sqrt(n)
    variance = float(np.sum(2.0 * s**4 + 4.0 * b**2 * s**2))
    assert stderr == pytest.approx(math.sqrt(variance / replications), rel=1e-12)
    # An independent sampled check of the formula.  Every coordinate's
    # squared error is a scaled noncentral chi-square with one degree of
    # freedom, whose excess kurtosis is at most 12, so the oracle's sample
    # variance has a relative standard error of at most sqrt(14 / replications)
    # = 1.9%, and its sampled stderr about half that; 10% is over 10 of those.
    _, sampled = per_coordinate_mc_risk(spectrum, theta, n, replications, np.random.default_rng(2))
    assert stderr == pytest.approx(sampled, rel=0.10)


def test_mc_risk_has_the_law_of_the_per_coordinate_mean():
    # At R = 5 the replication mean is still visibly skewed, so the two-sample
    # KS test sees the chi-square shape, not only the first two moments.
    spectrum = mixed_group_spectrum()
    theta = np.cos(np.arange(spectrum.size))
    theta[spectrum.eigenvalues == 0.04] = 0.0  # the group of 5 has zero bias
    theta = TruthCoefficients(theta, BASIS)
    n, replications, draws = 40.0, 5, 20_000
    rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(9)
    grouped = np.array([mc_risk(spectrum, theta, n, replications, rng)[0] for _ in range(draws)])
    oracle = np.array(
        [per_coordinate_mc_risk(spectrum, theta, n, replications, oracle_rng)[0] for _ in range(draws)]
    )
    assert stats.ks_2samp(grouped, oracle).pvalue >= 1e-3
    spread = math.sqrt((grouped.var(ddof=1) + oracle.var(ddof=1)) / draws)
    assert abs(grouped.mean() - oracle.mean()) <= 4.0 * spread
    assert grouped.var(ddof=1) == pytest.approx(oracle.var(ddof=1), rel=0.10)


def test_mc_risk_at_a_trillion_replications_stays_within_five_stderr():
    spectrum, theta = _oracle_case("mixed")
    n = 200.0
    estimate, stderr = mc_risk(spectrum, theta, n, 10**12, np.random.default_rng(4))
    assert 0.0 < stderr < 1e-6
    assert abs(estimate - exact_risk(spectrum, theta, n)) <= 5.0 * stderr


def all_coordinate_mc_risk(spectrum, theta, n, replications, rng):
    """mc_risk written out coordinate by coordinate: one normal and one gamma per s_k > 0, in index order."""
    weights, one_minus, _ = where_shrinkage(spectrum.eigenvalues, n)
    base, scale = -one_minus * theta.theta, weights / math.sqrt(n)
    live = scale > 0.0
    exact = float(np.sum(base[~live] ** 2))
    reps = float(replications)
    normal_rng, gamma_rng = rng.spawn(2)
    center, spread = [], []
    for b, s in zip(base[live], scale[live]):
        center.append(s * normal_rng.standard_normal() + math.sqrt(reps) * abs(b))
        spread.append(gamma_rng.standard_gamma(0.5 * (reps - 1.0)))
    b, var, center, spread = base[live], scale[live] ** 2, np.array(center), np.array(spread)
    estimate = exact + float(np.sum(center**2 + 2.0 * var * spread)) / reps + theta.tail
    stderr = math.sqrt(float(np.sum(2.0 * var**2 + 4.0 * var * b**2)) / reps)
    return estimate, stderr


def _noiseless_case(name, rng):
    """Eigenvalues in a few shared levels, so scales form groups, with some coordinates noiseless."""
    K = 700
    lams = 10.0 ** rng.integers(-5, 2, K).astype(float)
    if name == "30% zero eigenvalues":
        lams[rng.random(K) < 0.3] = 0.0
    elif name == "underflowing scale":
        lams[rng.random(K) < 0.3] = 5e-324  # 1 / lambda overflows, so a_k and s_k are 0
    elif name == "all zero":
        lams[:] = 0.0
    return lams


@pytest.mark.parametrize("name", ["30% zero eigenvalues", "underflowing scale", "all zero", "none zero"])
@pytest.mark.parametrize("replications", [2, 1000, 2**53])
def test_mc_risk_equals_the_all_coordinate_grouping_bit_for_bit(name, replications):
    # the noiseless coordinates add their exact sum, and the normals and
    # gammas are drawn one per live coordinate in index order, so the
    # estimate and the stderr keep every bit of the written-out oracle
    rng = np.random.default_rng([replications % 997, len(name)])
    for trial in range(4):
        lams = _noiseless_case(name, rng)
        theta = rng.standard_normal(lams.size) * 10.0 ** rng.uniform(-3.0, 0.0)
        theta[rng.random(lams.size) < 0.2] = 0.0
        norm_sq = None if trial % 2 else float(theta @ theta) + 0.5
        truth = TruthCoefficients(theta, BASIS, norm_sq)
        spectrum = Spectrum(lams, BASIS)
        n = (1e-3, 1e3)[trial // 2]
        got = mc_risk(spectrum, truth, n, replications, np.random.default_rng(trial))
        expected = all_coordinate_mc_risk(spectrum, truth, n, replications, np.random.default_rng(trial))
        assert got == expected, (trial, got, expected)
        if name == "underflowing scale":
            tiny = lams == 5e-324
            assert np.any(tiny) and np.all(where_shrinkage(lams, n)[0][tiny] == 0.0)


def test_mc_risk_rejects_fewer_than_two_replications():
    with pytest.raises(DomainError):
        mc_risk(spectrum_of(1.0), truth_of(0.0), 10.0, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Contraction probability
# ---------------------------------------------------------------------------

def test_contraction_probability_extreme_radii():
    spectrum, theta, n = spectrum_of(1.0, 1.0), truth_of(0.2, -0.2), 100.0
    rng = np.random.default_rng(9)
    far, _ = contraction_probability(spectrum, theta, n, 1e6, 50, 50, rng)
    near, _ = contraction_probability(spectrum, theta, n, 1e-12, 50, 50, rng)
    assert far == 0.0
    assert near == 1.0


def test_contraction_probability_respects_mass_floor_at_quarter_radius():
    # Bias-dominated configuration: strong truth, weak prior, so the
    # posterior sits far from the truth and n mu^2 is large enough for the
    # closed-form floor (1/4)(1 - 4 exp(-n mu^2 / 32))_+^2 to bind.
    n = 1000.0
    spectrum = spectrum_of(*([0.001] * 4))
    theta = truth_of(*([0.5] * 4))
    mu_sq = exact_risk(spectrum, theta, n)
    assert n * mu_sq > 200.0
    floor = 0.25 * max(1.0 - 4.0 * math.exp(-n * mu_sq / 32.0), 0.0) ** 2
    estimate, stderr = contraction_probability(
        spectrum, theta, n, math.sqrt(mu_sq) / 4.0, 200, 200, np.random.default_rng(17)
    )
    assert estimate >= floor - 3.0 * stderr


def test_contraction_probability_validates_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        contraction_probability(spectrum_of(1.0), truth_of(0.0), 10.0, 0.0, 10, 10, rng)
    with pytest.raises(DomainError):
        contraction_probability(spectrum_of(1.0), truth_of(0.0), 10.0, 0.1, 0, 10, rng)
    with pytest.raises(DomainError):
        contraction_probability(spectrum_of(1.0), truth_of(0.0), -1.0, 0.1, 10, 10, rng)


# ---------------------------------------------------------------------------
# Exact contraction mass
# ---------------------------------------------------------------------------

def error_law(spectrum, theta, n):
    """(b, v) of xi = f - theta ~ N(b, diag(v)), from the conjugate update."""
    post = posterior_update(spectrum, SequenceObservation(theta.theta, n, theta.basis_id))
    a = post.weights
    return -(1.0 - a) * theta.theta, a * a / n + post.variances


@pytest.mark.parametrize("K", [1, 3, 40])
@pytest.mark.parametrize("quantile", [1e-7, 0.3, 0.5, 0.9, 1.0 - 1e-7])
def test_contraction_mass_matches_noncentral_chi_square_on_flat_spectra(K, quantile):
    # Equal v_k make ||xi||^2 / v noncentral chi-square with K degrees of
    # freedom and noncentrality ||b||^2 / v, so scipy gives the exact tail.
    n = 500.0
    spectrum = flat_spectrum(K, basis_id=BASIS, tau=0.004)
    theta = truth_of(*np.linspace(0.05, 0.12, K))
    b, v = error_law(spectrum, theta, n)
    law = stats.ncx2(K, float(np.sum(b * b)) / v[0])
    radius = math.sqrt(v[0] * law.isf(quantile))
    mass = contraction_mass(spectrum, theta, n, radius)
    assert abs(mass - law.sf(radius * radius / v[0])) <= MASS_TOLERANCE


@pytest.mark.parametrize("seed, factor", [(61, 0.9), (62, 1.0), (63, 1.1)])
def test_contraction_mass_agrees_with_nested_monte_carlo_on_matched_spectra(seed, factor):
    coeffs = compute_coefficients(build_pyramid_family(1, 4), haar_tensor_basis(1, 4), 32)
    spectrum = tk_matched_spectrum(coeffs)
    theta = TruthCoefficients(coeffs.entries[0], coeffs.basis_id)
    n = 1000.0
    b, v = error_law(spectrum, theta, n)
    assert np.count_nonzero(v) < v.size  # zero eigenvalues among the coordinates
    radius = math.sqrt(factor * float(np.sum(b * b + v)))
    mass = contraction_mass(spectrum, theta, n, radius)
    estimate, stderr = contraction_probability(
        spectrum, theta, n, radius, 400, 200, np.random.default_rng(seed)
    )
    assert 0.2 < mass < 0.8
    assert abs(estimate - mass) <= 3.0 * stderr


def test_contraction_mass_adds_zero_eigenvalue_coordinates_exactly():
    # Coordinates without prior mass keep their whole truth as bias and
    # carry no noise: ||xi||^2 = theta_4^2 + theta_5^2 + v chi'^2_3.
    n, tau = 200.0, 0.01
    spectrum = spectrum_of(tau, tau, tau, 0.0, 0.0)
    theta = truth_of(0.1, -0.05, 0.2, 0.3, 0.25)
    b, v = error_law(spectrum, theta, n)
    fixed = 0.3**2 + 0.25**2
    law = stats.ncx2(3, float(np.sum(b[:3] ** 2)) / v[0])
    for quantile in (0.01, 0.5, 0.99):
        r_sq = fixed + v[0] * law.isf(quantile)
        mass = contraction_mass(spectrum, theta, n, math.sqrt(r_sq))
        assert abs(mass - quantile) <= MASS_TOLERANCE
    # any radius inside the fixed part is exceeded by every draw
    assert contraction_mass(spectrum, theta, n, math.sqrt(0.99 * fixed)) == 1.0


def test_contraction_mass_without_any_prior_mass_is_an_indicator():
    spectrum, theta = spectrum_of(0.0, 0.0, 0.0), truth_of(0.3, -0.4, 0.0)
    assert contraction_mass(spectrum, theta, 50.0, 0.5) == 1.0  # ||theta|| = 0.5
    assert contraction_mass(spectrum, theta, 50.0, 0.5 * (1.0 - 1e-12)) == 1.0
    assert contraction_mass(spectrum, theta, 50.0, 0.5 * (1.0 + 1e-12)) == 0.0


def test_contraction_mass_extreme_radii_are_exact():
    spectrum, theta, n = spectrum_of(1.0, 1.0), truth_of(0.2, -0.2), 100.0
    assert contraction_mass(spectrum, theta, n, 1e6) == 0.0
    assert contraction_mass(spectrum, theta, n, 1e-12) == 1.0
    big = flat_spectrum(1024, basis_id=BASIS, tau=1e-3)
    theta = truth_of(*np.full(1024, 0.01))
    b, v = error_law(big, theta, 1e6)
    mean = float(np.sum(b * b + v))
    assert contraction_mass(big, theta, 1e6, math.sqrt(0.5 * mean)) == 1.0
    assert contraction_mass(big, theta, 1e6, math.sqrt(2.0 * mean)) == 0.0


# contraction_mass at these radii before the Chernoff ladder became the only
# certificate: the 1.0 at 1e-150 (and at 1e-12 for K = 2, 3) then came from a
# Newton minimiser of the bound, which the lower rungs j = 12..99 now replace
EXTREME_RADII = (1e-150, 1e-12, 1e-6, 1e-3, 1e3, 1e6, 1e150)
EXTREME_RADII_MASSES = [
    ((1.0,), (0.2,), 100.0, [1.0, 0.9999999999944917, 0.9999943164433487, 0.9943164914138953, 0.0, 0.0, 0.0]),
    ((1.0,), (0.0,), 100.0, [1.0, 0.9999999999935323, 0.9999943158777933, 0.9943159258720844, 0.0, 0.0, 0.0]),
    ((1.0, 1.0), (0.2, -0.2), 100.0, [1.0, 1.0, 0.9999999999762024, 0.9999746297493121, 0.0, 0.0, 0.0]),
    ((1e-3,) * 3, (0.01,) * 3, 1e6, [1.0, 1.0, 0.9999999999056145, 0.918732081350917, 0.0, 0.0, 0.0]),
]


@pytest.mark.parametrize("lams, theta, n, expected", EXTREME_RADII_MASSES)
def test_contraction_mass_at_extreme_radii_keeps_its_bits(lams, theta, n, expected):
    spectrum, truth = spectrum_of(*lams), truth_of(*theta)
    assert [contraction_mass(spectrum, truth, n, r) for r in EXTREME_RADII] == expected
    assert contraction_mass(spectrum, truth, n, np.array(EXTREME_RADII)).tolist() == expected


@given(
    lams=st.lists(st.sampled_from([0.0, 1e-4, 1e-2, 1.0]), min_size=1, max_size=6),
    scale=st.floats(0.0, 2.0),
    n=st.floats(10.0, 1e5),
    r1=st.floats(1e-3, 3.0),
    r2=st.floats(1e-3, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_contraction_mass_is_a_probability_nonincreasing_in_the_radius(lams, scale, n, r1, r2):
    spectrum = spectrum_of(*lams)
    theta = truth_of(*(scale * np.cos(np.arange(len(lams)))))
    b, v = error_law(spectrum, theta, n)
    spread = math.sqrt(float(np.sum(b * b + v))) or 1.0
    near, far = sorted((r1, r2))
    inner = contraction_mass(spectrum, theta, n, near * spread)
    outer = contraction_mass(spectrum, theta, n, far * spread)
    assert 0.0 <= outer <= 1.0 and 0.0 <= inner <= 1.0
    assert outer <= inner + 2.0 * MASS_TOLERANCE


def test_contraction_mass_respects_mass_floor_at_quarter_radius():
    # The configuration of the nested Monte Carlo floor test above, exact.
    n = 1000.0
    spectrum = spectrum_of(*([0.001] * 4))
    theta = truth_of(*([0.5] * 4))
    mu_sq = exact_risk(spectrum, theta, n)
    floor = 0.25 * max(1.0 - 4.0 * math.exp(-n * mu_sq / 32.0), 0.0) ** 2
    assert contraction_mass(spectrum, theta, n, math.sqrt(mu_sq) / 4.0) >= floor - MASS_TOLERANCE


def test_contraction_mass_on_spectra_spanning_the_float_range_raises_no_warning():
    # Eigenvalues from 1e-300 to 1e300 at n = 100 put the form's mean up to
    # 1e100 of its standard deviation and its variances across 300 decades.
    n, K = 100.0, 61
    spectrum = Spectrum(10.0 ** np.linspace(-300.0, 300.0, K), BASIS)
    # radius^2 = factor * exact risk
    factors = (1e-6, 0.25, 0.9, 1.0, 1.1, 4.0, 1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-3, 1.0, 1e3):
            theta = truth_of(*(scale * np.cos(np.arange(K))))
            risk = exact_risk(spectrum, theta, n)
            masses = [contraction_mass(spectrum, theta, n, math.sqrt(f * risk)) for f in factors]
            assert masses[0] == 1.0 and masses[-1] == 0.0
            assert all(0.0 <= a <= 1.0 for a in masses)
            assert all(far <= near + 2.0 * MASS_TOLERANCE for near, far in zip(masses, masses[1:]))


def test_contraction_mass_beyond_the_float_range_of_the_form_is_zero_without_a_warning():
    # the mean is 1e-300 and radius^2 = 1e300, so radius^2 in units of the
    # mean is past the float range; a stack mixes it with an open radius
    spectrum, theta = Spectrum([1e-300], BASIS), truth_of(0.0)
    radii = [1e150, 1e-150, 1e150]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert contraction_mass(spectrum, theta, 100.0, 1e150) == 0.0
        alone = [contraction_mass(spectrum, theta, 100.0, r) for r in radii]
        assert contraction_mass(spectrum, theta, 100.0, np.array(radii)).tolist() == alone
    assert alone[0] == alone[2] == 0.0 and 0.0 < alone[1] < 1.0


def test_contraction_mass_where_the_mean_is_far_above_the_standard_deviation():
    # At theta scale 1e3 the bias energy sum b_k^2 is about 3e7 standard
    # deviations of the form and radius^2 = exact risk sits within one of
    # the mean, so x and sum b_k^2 cancel in Imhof's phase.  Oracle: Monte
    # Carlo of the form itself, with the cancellation done exactly, as
    # sum_k (2 b_k s_k g_k + s_k^2 g_k^2) >= x - sum_k b_k^2.
    n, K = 100.0, 61
    spectrum = Spectrum(10.0 ** np.linspace(-300.0, 300.0, K), BASIS)
    theta = truth_of(*(1e3 * np.cos(np.arange(K))))
    risk = exact_risk(spectrum, theta, n)
    mass = contraction_mass(spectrum, theta, n, math.sqrt(risk))
    b, v = error_law(spectrum, theta, n)
    s = np.sqrt(v)
    gap = math.fsum(np.append(-b * b, risk))
    rng = np.random.default_rng(2024)
    hits = draws = 0
    for _ in range(20):
        g = rng.standard_normal((50_000, K))
        hits += int(np.count_nonzero(((2.0 * b + s * g) * s * g).sum(axis=1) >= gap))
        draws += g.shape[0]
    freq = hits / draws
    stderr = math.sqrt(freq * (1.0 - freq) / draws)
    assert 0.1 < freq < 0.9
    assert abs(mass - freq) <= 3.0 * stderr


def bounded_brent_log_bound(b_sq, v, x, mean):
    """The Chernoff bound minimised by bounded Brent over the doubling bracket (oracle)."""

    def log_bound(t):
        s = 2.0 * t * v
        return float(np.sum(t * b_sq / (1.0 - s) - 0.5 * np.log1p(-s))) - t * x

    def slope(t):
        s = 1.0 - 2.0 * t * v
        return float(np.sum((v + b_sq / s) / s)) - x

    side = 1.0 if x > mean else -1.0
    t, pole = 1.0, 0.5 / float(v.max())
    while (side < 0.0 or t < pole) and side * slope(side * t) < 0.0:
        t *= 2.0
    bounds = (0.0, min(t, pole)) if side > 0.0 else (-t, 0.0)
    return float(minimize_scalar(log_bound, bounds=bounds, method="bounded").fun)


def random_chernoff_forms(count, seed):
    """Random forms at x = mean + z sd, |z| <= 12, as (b_sq, v, x, mean) in the
    units of _quadratic_form_tail (scaled by the mean, then by the standard deviation)."""
    rng = np.random.default_rng(seed)
    forms = 0
    while forms < count:
        K = int(rng.integers(1, 40))
        v = np.exp(rng.normal(0.0, 2.0, K))
        b_sq = np.exp(rng.normal(0.0, 3.0, K)) * (rng.random(K) < 0.7)
        mean = float(np.sum(b_sq + v))
        x = mean + math.sqrt(float(np.sum(2.0 * v * v + 4.0 * b_sq * v))) * rng.uniform(-12.0, 12.0)
        if x <= 0.0:
            continue
        forms += 1
        b_sq, v, x = b_sq / mean, v / mean, x / mean
        sd = math.sqrt(float(np.sum(2.0 * v * v + 4.0 * b_sq * v)))
        yield b_sq / sd, v / sd, x / sd, 1.0 / sd


def test_chernoff_ladder_certifies_only_forms_the_minimisers_certify():
    # Every rung is an admissible t, so the ladder may miss a saturated form
    # but must never certify one whose minimised bound is above 1e-12.  A form
    # it misses goes to Imhof and still comes back within MASS_TOLERANCE of 0 or 1.
    saturated = math.log(1e-12)
    minimised = laddered = 0
    for b_sq, v, x, mean in random_chernoff_forms(2000, seed=67):
        certified = bool(_ladder_settles(b_sq, v, np.array([x]), mean)[0])
        brent = bounded_brent_log_bound(b_sq, v, x, mean)
        if certified:
            assert brent <= saturated
        elif brent <= saturated:
            mass = float(_quadratic_form_tail(b_sq, v, np.array([x]))[0])
            assert abs(mass - (x < mean)) <= MASS_TOLERANCE
        minimised += brent <= saturated
        laddered += certified
    assert minimised == 221
    assert laddered >= 218


def test_chernoff_ladder_certifies_upper_tail_minima_below_half_the_pole():
    # forms 700 and 1291 of random_chernoff_forms(2000, seed=67): saturated
    # upper tails whose bound is least at a t below every pole-side rung
    # pole (1 - 2^-j); the rungs t = 2^j below pole / 2 reach them
    forms = list(random_chernoff_forms(2000, seed=67))
    for index, minimum in ((700, -35.5), (1291, -45.0)):
        b_sq, v, x, mean = forms[index]
        assert x > mean
        assert bounded_brent_log_bound(b_sq, v, x, mean) == pytest.approx(minimum, abs=0.1)
        assert _ladder_settles(b_sq, v, np.array([x]), mean).tolist() == [True]


@pytest.mark.parametrize("K", [2**10, 2**14])
def test_chernoff_ladder_holds_about_two_rungs_and_stays_sound(K):
    # K coordinates in standard-deviation units, x = mean + z sd with
    # z = -12, -3, 3, 60: a rung is formed over all K at once, so the ladder
    # holds about two K-length arrays whatever the number of rungs
    rng = np.random.default_rng(68)
    v, b_sq = rng.random(K), rng.random(K)
    sd = math.sqrt(float(np.sum(2.0 * v * v + 4.0 * b_sq * v)))
    b_sq, v = b_sq / sd, v / sd
    mean = float(np.sum(b_sq + v))
    x = mean + np.array([-12.0, -3.0, 3.0, 60.0])
    tracemalloc.start()
    try:
        settled = _ladder_settles(b_sq, v, x, mean)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * K + 4096
    minimised = [bounded_brent_log_bound(b_sq, v, float(xi), mean) <= math.log(1e-12) for xi in x]
    assert settled.tolist() == minimised == [True, False, False, True]


def stacked_radii_case(name):
    """(spectrum, theta, n, radii) of one kind of probe stack."""
    if name == "saturated":
        spectrum, n = flat_spectrum(1024, basis_id=BASIS, tau=1e-3), 1e6
        theta = truth_of(*np.full(1024, 0.01))
        b, v = error_law(spectrum, theta, n)
        mean = float(np.sum(b * b + v))
        return spectrum, theta, n, [math.sqrt(f * mean) for f in (0.5, 2.0, 0.25, 4.0)]
    if name == "imhof":
        spectrum, n = flat_spectrum(3, basis_id=BASIS, tau=0.004), 500.0
        theta = truth_of(0.05, 0.08, 0.12)
        b, v = error_law(spectrum, theta, n)
        law = stats.ncx2(3, float(np.sum(b * b)) / v[0])
        return spectrum, theta, n, [math.sqrt(v[0] * law.isf(q)) for q in (0.3, 1e-30, 0.5, 0.9)]
    # no prior mass: the indicator 1{||theta||^2 >= radius^2}, ||theta|| = 0.5
    radii = [0.5 * (1.0 - 1e-12), 0.5, 0.5 * (1.0 + 1e-12), 2.0]
    return spectrum_of(0.0, 0.0, 0.0), truth_of(0.3, -0.4, 0.0), 50.0, radii


@pytest.mark.parametrize("name", ["saturated", "imhof", "indicator"])
def test_stacked_radii_give_the_one_radius_masses_bit_for_bit(name):
    spectrum, theta, n, radii = stacked_radii_case(name)
    stacked = contraction_mass(spectrum, theta, n, np.array(radii))
    single = [contraction_mass(spectrum, theta, n, r) for r in radii]
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(radii),)
    assert all(type(mass) is float for mass in single)
    assert stacked.tolist() == single
    exact = {"saturated": [1.0, 0.0, 1.0, 0.0], "indicator": [1.0, 1.0, 0.0, 0.0]}
    if name == "imhof":
        assert all(0.0 < single[i] < 1.0 for i in (0, 2, 3)) and single[1] == 0.0
    else:
        assert single == exact[name]


def with_tail(theta, tail):
    """``theta`` as a truth whose full squared norm exceeds its coefficients' by about ``tail``."""
    return TruthCoefficients(theta.theta, theta.basis_id, float(theta.theta @ theta.theta) + tail)


def test_risks_with_a_norm_add_the_truth_tail_last_bit_for_bit():
    rng = np.random.default_rng(12)
    for K in (1, 300, 20000):  # 20000: the tail's mass takes three 8192-term dots
        spectrum = Spectrum(10.0 ** rng.uniform(-4.0, 0.0, K), BASIS)
        theta = TruthCoefficients(rng.standard_normal(K) * (rng.random(K) < 0.5), BASIS)
        truth = with_tail(theta, 0.37)
        chunks = [theta.theta[i : i + 8192] for i in range(0, K, 8192)]
        assert truth.tail == max(truth.norm_sq - float(sum(c @ c for c in chunks)), 0.0) > 0.0
        assert theta.tail == 0.0
        assert exact_risk(spectrum, truth, 80.0) == exact_risk(spectrum, theta, 80.0) + truth.tail
        estimate, stderr = mc_risk(spectrum, truth, 80.0, 300, np.random.default_rng(4))
        in_span = mc_risk(spectrum, theta, 80.0, 300, np.random.default_rng(4))
        assert (estimate, stderr) == (in_span[0] + truth.tail, in_span[1])
    # a norm below the coefficients' own mass leaves no tail
    assert with_tail(theta, -1.0).tail == 0.0


@pytest.mark.parametrize("name", ["saturated", "imhof", "indicator"])
def test_contraction_mass_with_a_tail_is_the_in_span_mass_at_the_reduced_radius(name):
    spectrum, theta, n, in_span = stacked_radii_case(name)
    # the indicator's radius 0.5 sits on its jump, which an ulp of radius^2 - tail moves across
    in_span = [r for r in in_span if r != 0.5] if name == "indicator" else in_span
    truth = with_tail(theta, 0.5 * min(in_span) ** 2)
    # radii with the tail on top of each in-span radius, and two inside the tail
    radii = [math.sqrt(r * r + truth.tail) for r in in_span]
    radii += [math.sqrt(truth.tail), 0.5 * math.sqrt(truth.tail)]
    masses = contraction_mass(spectrum, truth, n, np.array(radii))
    assert masses[-2:].tolist() == [1.0, 1.0]
    reduced = [contraction_mass(spectrum, theta, n, math.sqrt(r * r - truth.tail)) for r in radii[:-2]]
    for mass, expected in zip(masses, reduced):
        if expected in (0.0, 1.0):  # settled by the ladder or the indicator
            assert mass == expected
        else:
            assert abs(mass - expected) <= 1e-12


def test_contraction_probability_takes_the_truth_tail_off_the_radius():
    coeffs = compute_coefficients(build_pyramid_family(1, 4), haar_tensor_basis(1, 4), 32)
    spectrum = tk_matched_spectrum(coeffs)
    theta = TruthCoefficients(coeffs.entries[0], coeffs.basis_id)
    truth, n = with_tail(theta, 1e-4), 1000.0
    b, v = error_law(spectrum, theta, n)
    radius = math.sqrt(float(np.sum(b * b + v)) + truth.tail)
    estimate = contraction_probability(spectrum, truth, n, radius, 50, 40, np.random.default_rng(2))
    reduced = math.sqrt(radius * radius - truth.tail)
    assert estimate == contraction_probability(spectrum, theta, n, reduced, 50, 40, np.random.default_rng(2))
    assert 0.2 < estimate[0] < 0.8
    inside = contraction_probability(spectrum, truth, n, 1e-3, 3, 5, np.random.default_rng(2))
    assert inside == (1.0, 0.0)


@pytest.mark.parametrize("norm_sq", [-1e-300, -1.0, math.nan, math.inf, -math.inf])
def test_a_bad_truth_norm_is_refused(norm_sq):
    with pytest.raises(DomainError):
        TruthCoefficients(np.ones(3), BASIS, norm_sq)
    rows = from_dense(SparseRows, np.eye(3), BASIS)
    with pytest.raises(DomainError):
        rows.risks(spectrum_of(1.0, 1.0, 1.0), 10.0, norm_sq)


def test_contraction_mass_validates_inputs():
    with pytest.raises(DomainError):
        contraction_mass(spectrum_of(1.0), truth_of(0.0), 10.0, 0.0)
    with pytest.raises(DomainError):
        contraction_mass(spectrum_of(1.0), truth_of(0.0), 10.0, math.inf)
    with pytest.raises(DomainError):
        contraction_mass(spectrum_of(1.0), truth_of(0.0), -1.0, 0.1)
    with pytest.raises(ContractError):
        contraction_mass(spectrum_of(1.0, 1.0), truth_of(0.0), 10.0, 0.1)
    with pytest.raises(DomainError):
        contraction_mass(spectrum_of(1.0), truth_of(0.0), 10.0, [0.1, 0.0])
    with pytest.raises(DomainError):
        contraction_mass(spectrum_of(1.0), truth_of(0.0), 10.0, [[0.1]])


# ---------------------------------------------------------------------------
# Spectrum presets
# ---------------------------------------------------------------------------

def test_polynomial_spectrum_values():
    spec = polynomial_spectrum(4, basis_id=BASIS, tau=2.0, alpha=1.0, d=1)
    p = 3.0
    assert np.allclose(spec.eigenvalues, 2.0 * np.arange(1, 5, dtype=float) ** -p)


def test_exponential_spectrum_geometric_tail():
    spec = exponential_spectrum(3, basis_id=BASIS, tau=1.5, beta=0.7)
    assert np.allclose(spec.eigenvalues, 1.5 * np.exp(-0.7 * np.arange(1, 4)))


def test_flat_spectrum_has_no_tail_closed_form():
    spec = flat_spectrum(5, basis_id=BASIS, tau=0.3)
    assert np.allclose(spec.eigenvalues, 0.3)


def test_preset_validation():
    with pytest.raises(DomainError):
        polynomial_spectrum(0, basis_id=BASIS)
    with pytest.raises(DomainError):
        polynomial_spectrum(3, basis_id=BASIS, tau=-1.0)
    with pytest.raises(DomainError):
        polynomial_spectrum(3, basis_id=BASIS, alpha=0.0)
    with pytest.raises(DomainError):
        exponential_spectrum(3, basis_id=BASIS, beta=0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_presets_refuse_an_infinite_or_nan_decay(value):
    # alpha = inf once gave [tau, 0, 0, 0] and beta = inf an all-zero prior
    with pytest.raises(DomainError, match="smoothness alpha must be positive and finite"):
        polynomial_spectrum(4, basis_id=BASIS, alpha=value)
    with pytest.raises(DomainError, match="decay rate beta must be positive and finite"):
        exponential_spectrum(4, basis_id=BASIS, beta=value)


def test_mc_risk_refuses_replications_beyond_two_to_the_53():
    # R enters the gamma shape as a float64, exact up to 2**53
    args = spectrum_of(0.5, 0.0), truth_of(0.1, 0.2), 10.0
    estimate, stderr = mc_risk(*args, 2**53, np.random.default_rng(0))
    assert estimate > 0.0 and stderr > 0.0
    with pytest.raises(DomainError, match=f"replications = {2**53 + 1} exceeds 2\\*\\*53"):
        mc_risk(*args, 2**53 + 1, np.random.default_rng(0))
    with pytest.raises(DomainError, match="replications must be an integer"):
        mc_risk(*args, 1000.0, np.random.default_rng(0))


def test_spectrum_rejects_negative_eigenvalues():
    with pytest.raises(DomainError):
        Spectrum(np.array([0.5, -0.1]), BASIS)


def test_truth_requires_finite_entries():
    with pytest.raises(DomainError):
        TruthCoefficients(np.array([1.0, np.inf]), BASIS)
