"""The property checks: one definition of each fact the lower bound rests on.

``CHECKS`` lists every check in order as (name, function).  A check takes
``(rng, full)`` and returns ``(ok, detail)``.  ``run_verify`` (``gplb
verify``) runs each at the quick size (``full=False``), check i on its own
generator ``task_rng(seed, i)``, so one check's draws never shift
another's.  Criteria 1-4, 7 and 9 of the acceptance battery
(``tests/test_acceptance.py``) run the same functions at the full size,
with more configurations and draws.  A check's tolerances are the same
at both sizes, or derived from the size.  Checks read their generator one
draw at a time; diagonal-domination, risk-floors and risk-concentration
then pass the draws to the library in stacks, whose every item gets the
bits of a call on that item alone.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from ..adversarial import (
    build_pyramid_family,
    compute_coefficients,
    concentration_bound,
    evaluate_pyramid,
    lower_bound_constants,
    mean_risk_floor,
    pyramid_norm_sq,
    risk_lower_bound,
)
from ..integrate import adaptive_box_integral
from ..sequence_core import (
    Spectrum,
    TruthCoefficients,
    exact_risk,
    flat_spectrum,
    posterior_update,
    sample_observation,
)
from ..sparse_linear import (
    LinearEstimator,
    brute_force_minimax,
    diagonal_reduction,
    linear_minimax_risk,
    reduce_to_sequence,
)
from ..wavelet import haar_tensor_basis
from .config import ExperimentConfig
from .study import task_rng

__all__ = ["CHECKS", "run_verify"]

# the pyramid families (d, k) that the geometry checks sweep at the full size
FULL_FAMILIES = ((1, 2), (1, 4), (2, 2), (2, 3), (3, 2))
SIGMAS = (0.1, 0.5, 1.0, 3.0)  # the noise levels diagonal-domination draws from


def _listed(cases) -> str:
    return ", ".join(str(case) for case in cases)


def pyramid_norms(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """Closed-form c_n^2 against adaptive quadrature of a squared member."""
    # the full size integrates to a tenth of the 1e-6 verdict level, which
    # keeps the d = 3 refinement shallow
    if full:
        cases, tol = tuple(product((1, 2, 3), (1, 2, 4))), 1e-7
    else:
        cases, tol = ((1, 1), (1, 2), (2, 1)), 1e-8
    worst = 0.0
    for d, k in cases:
        family = build_pyramid_family(d, k)
        closed = pyramid_norm_sq(d, k)

        def integrand(pts, family=family):
            return evaluate_pyramid(family, 0, pts) ** 2

        lo = family.centers[0] - family.bandwidth
        hi = family.centers[0] + family.bandwidth
        numeric = adaptive_box_integral(integrand, lo, hi, tol=closed * tol)
        worst = max(worst, abs(numeric - closed) / closed)
    return worst < 1e-6, f"max relative deviation {worst:.2e} (< 1e-06) over {len(cases)} (d, k) pairs"


def _worst_overlap(family, points: np.ndarray) -> tuple[float, float]:
    """The largest product f_a f_b, a != b, at ``points``, and the least l1
    distance of two centers minus twice the bandwidth, in grid units.

    Members are evaluated one at a time, and each point keeps its two
    largest values; they are nonnegative and a rounded product is monotone
    in each factor, so the largest top-two product is the largest pair
    product, bit for bit.

    A member's support is the l1 ball of radius ``bandwidth`` about its
    center, so two interiors share a point exactly when that margin is
    negative (the centers' midpoint lies in the cube, at distance under
    the bandwidth from both).
    """
    top = np.zeros((2, len(points)))
    for j in range(family.m):
        value = evaluate_pyramid(family, j, points)
        np.maximum(top[1], np.minimum(top[0], value), out=top[1])
        np.maximum(top[0], value, out=top[0])
    a, b = np.triu_indices(family.m, 1)
    distance = np.abs(family.centers[a] - family.centers[b]).sum(axis=1)
    return float(np.max(top[0] * top[1])), float(np.min(family.k * (distance - 2.0 * family.bandwidth)))


def disjoint_supports(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """Distinct members have zero product at random points, and no two supports overlap.

    Neighbouring centers lie exactly two bandwidths apart, so the margin is
    0 up to the rounding of the centers, a few ulps; the allowance of 1e-12
    grid units is fixed far above that and far below any real overlap.
    """
    cases = FULL_FAMILIES if full else ((2, 3),)
    worst_product, least_margin = 0.0, math.inf
    for d, k in cases:
        family = build_pyramid_family(d, k)
        product, margin = _worst_overlap(family, rng.random((4000, d)))
        worst_product, least_margin = max(worst_product, product), min(least_margin, margin)
    return worst_product == 0.0 and least_margin >= -1e-12, (
        f"max pairwise product {worst_product:.2e} at 4000 random points, least pairwise l1 "
        f"center distance minus twice the bandwidth {least_margin:.1e} grid units (>= -1e-12) "
        f"over (d, k) = {_listed(cases)}"
    )


def family_membership(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """Every member is 1-Lipschitz in l1 distance and peaks at 1/(2k)."""
    cases = FULL_FAMILIES if full else ((1, 2),)
    worst_lip = worst_sup_excess = -math.inf
    for d, k in cases:
        family = build_pyramid_family(d, k)
        # the centers are where the supremum is attained
        xs = np.vstack([family.centers, rng.random((4000, d))])
        ys = np.clip(xs + rng.uniform(-0.2, 0.2, xs.shape), 0.0, 1.0)
        distance = np.abs(xs - ys).sum(axis=1)
        moved = distance > 0
        fx = evaluate_pyramid(family, np.arange(family.m), xs)
        fy = evaluate_pyramid(family, np.arange(family.m), ys)
        worst_lip = max(worst_lip, float(np.max(np.abs(fx - fy)[:, moved] / distance[moved])))
        worst_sup_excess = max(worst_sup_excess, float(np.max(np.abs(fx))) - family.bandwidth)
    return worst_lip <= 1.0 + 1e-8 and worst_sup_excess <= 1e-12, (
        f"Lipschitz constant {worst_lip:.9f} (<= 1 + 1e-08), sup-norm minus 1/(2k) "
        f"{worst_sup_excess:.1e} (<= 1e-12) over (d, k) = {_listed(cases)}"
    )


def minimax_identity(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """Closed-form linear minimax risk m s^2/(1 + m s^2) against a grid search.

    The scalar risk (a - 1)^2 + m s^2 a^2 exceeds its minimum by
    (1 + m s^2)(a - a*)^2, so on a grid of step h the grid minimum lies at
    most (1 + m s^2)(h/2)^2 above the closed form; 1e-12 allows for rounding.
    """
    if full:
        pairs, grid_size = tuple(product((1, 2, 4, 8), (0.1, 0.5, 1.0, 2.0, 3.0))), 100000
    else:
        pairs, grid_size = ((1, 1.0), (4, 0.5), (7, 0.17)), 4001
    h = 1.0 / (grid_size - 1)
    ms, sigmas = zip(*pairs)
    grid_minima = brute_force_minimax(ms, sigmas, grid_size).tolist()
    closed_dev = excess = gap_ratio = 0.0
    for (m, sigma), grid_min in zip(pairs, grid_minima):
        t = m * sigma**2
        closed = t / (1.0 + t)
        risk = linear_minimax_risk(m, sigma).risk
        gap = grid_min - risk
        closed_dev = max(closed_dev, abs(risk - closed) / closed)
        excess = max(excess, -gap)
        gap_ratio = max(gap_ratio, gap / ((1.0 + t) * (h / 2.0) ** 2 + 1e-12))
    return closed_dev <= 1e-12 and excess <= 1e-12 and gap_ratio <= 1.0, (
        f"closed form within relative {closed_dev:.1e} of m s^2/(1 + m s^2) (<= 1e-12) and "
        f"{excess:.1e} above the {grid_size}-point grid minimum (<= 1e-12); grid gap at most "
        f"{gap_ratio:.2f} of (1 + m s^2)(h/2)^2 + 1e-12 over {len(pairs)} (m, sigma) pairs"
    )


def diagonal_domination(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """a_bar I dominates every square linear estimator A in worst-case risk."""
    draws = 500 if full else 100
    groups = {m: ([], []) for m in range(2, 9)}  # the matrices and sigmas of each size m
    for _ in range(draws):
        m = int(rng.integers(2, 9))
        groups[m][1].append(SIGMAS[int(rng.integers(len(SIGMAS)))])
        groups[m][0].append(rng.standard_normal((m, m)))
    violations = sum(
        int(np.count_nonzero(~diagonal_reduction(LinearEstimator(np.array(matrices)), sigmas)[1]))
        for matrices, sigmas in groups.values() if sigmas)
    return violations == 0, f"{violations} violations in {draws} random matrices"


def risk_floors(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """The worst member's risk clears both floors under random level-profile priors.

    Even draws are geometric profiles tau 2^{-decay l}; odd draws give each
    resolution group an independent log-uniform variance.
    """
    configs = ((1, 4, 1000.0, 8), (2, 3, 10000.0, 4)) if full else ((1, 4, 1000.0, 6),)
    draws = 500 if full else 100
    violations = checked = 0
    closest = math.inf
    sizes = []
    for d, k, n, level in configs:
        basis = haar_tensor_basis(d, level)
        sizes.append(str(basis.size))
        coeffs = compute_coefficients(build_pyramid_family(d, k), basis, basis.size)
        bound = risk_lower_bound(coeffs, n)
        floor = mean_risk_floor(d, n)
        levels = np.arange(basis.level + 1)
        profiles = []
        for i in range(draws):
            if i % 2 == 0:
                tau = 10.0 ** rng.uniform(-2.0, 2.0)
                profiles.append(tau * 2.0 ** (-rng.uniform(0.0, 3.0) * levels))
            else:
                profiles.append(10.0 ** rng.uniform(-6.0, 2.0, levels.size))
        spectra = Spectrum(np.array(profiles)[:, basis.groups], coeffs.basis_id)
        worst = coeffs.risks(spectra, n).max(axis=1)
        violations += int(np.count_nonzero(worst < bound - 1e-12))
        violations += int(np.count_nonzero(worst < floor - 1e-12))
        closest = min(closest, float(np.min(worst / bound)))
        checked += worst.size
    return violations == 0, (
        f"{violations} violations of the coordinatewise and mean floors (tolerance 1e-12) in "
        f"{checked} random spectra on tensor Haar bases of size {' and '.join(sizes)}; smallest "
        f"worst-member-risk / floor ratio {closest:.3f}"
    )


def one_sparse_law(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """reduce_to_sequence draws y = e_j + sigma_n w exactly, sigma_n = 1/sqrt(c_n^2 n).

    w is standard_normal(m) from a generator seeded like the one passed
    in, so a wrong sigma, index or shift shows on every draw.  The
    statistical law itself is tested by a Kolmogorov-Smirnov test in the
    test suite.
    """
    mismatches = 0
    cases = ((1, 4), (2, 3), (3, 2))
    for d, k in cases:
        family = build_pyramid_family(d, k)
        n = 10.0 ** rng.uniform(2.0, 6.0)
        j = int(rng.integers(family.m))
        seed = int(rng.integers(2**63))
        y, model = reduce_to_sequence(family, j, n, np.random.default_rng(seed))
        sigma = 1.0 / math.sqrt(pyramid_norm_sq(d, k) * n)
        expected = sigma * np.random.default_rng(seed).standard_normal(family.m)
        expected[j] += 1.0
        mismatches += not (np.array_equal(y, expected) and model.sigma == sigma)
    return mismatches == 0, f"{mismatches} of {len(cases)} draws differ from e_j + sigma_n w"


def _small_error_hits(
    spectrum: Spectrum, theta: TruthCoefficients, n: float, mu_sq: float, draws: int,
    rng: np.random.Generator,
) -> int:
    """How many of ``draws`` posterior means land within squared distance mu^2/4 of theta."""
    observations = sample_observation(theta, n, rng, draws=draws)
    err = posterior_update(spectrum, observations).means - theta.theta
    # row i's squared norm is the dot product a 1-d err_i @ err_i takes
    sq_norms = err[:, None, :] @ err[:, :, None]
    return int(np.count_nonzero(sq_norms <= mu_sq / 4.0))


def risk_concentration(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """P(squared error <= mu^2/4) stays under the cap 4 exp(-n mu^2/32).

    A flat prior on K = 8 coordinates at n = 500; each truth is solved so
    that n mu^2 hits a target.  Every quick target has a cap below 1
    (n mu^2 > 32 log 4), so an error law more concentrated than the cap
    allows, such as that of a posterior mean that does not shrink, fails.
    The draws of a target come from one stacked ``sample_observation`` and
    one ``posterior_update`` (``_small_error_hits``); they read the
    generator as ``draws`` single observations would, so the hit counts
    equal those of a loop over single draws.
    """
    n, K, tau = 500.0, 8, 0.02
    spectrum = flat_spectrum(K, basis_id="concentration-check", tau=tau)
    a = n * tau / (1.0 + n * tau)
    targets, draws = (np.linspace(10.0, 200.0, 20), 4000) if full else ((50.0, 200.0), 500)
    worst_excess = -math.inf
    realized = []
    for target in targets:
        # flat spectra make n mu^2 = n K (1-a)^2 c^2 + K a^2 solvable for c
        c = math.sqrt((target - K * a * a) / (n * K * (1.0 - a) ** 2))
        theta = TruthCoefficients(np.full(K, c), spectrum.basis_id)
        mu_sq = exact_risk(spectrum, theta, n)
        realized.append(n * mu_sq)
        freq = _small_error_hits(spectrum, theta, n, mu_sq, draws, rng) / draws
        stderr = math.sqrt(freq * (1.0 - freq) / draws)
        worst_excess = max(worst_excess, freq - concentration_bound(n, mu_sq) - 3.0 * stderr)
    on_target = max(abs(r - t) for r, t in zip(realized, targets)) <= 1e-6
    return worst_excess <= 0.0 and on_target, (
        f"worst frequency excess over the cap plus 3 binomial stderr {worst_excess:.2e} "
        f"across {len(targets)} truths with n mu^2 in [{min(realized):.0f}, "
        f"{max(realized):.0f}], {draws} draws each"
    )


def basis_orthonormality(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """The fast Haar transform of the d = 2, level-1 basis is orthonormal and pointwise right.

    W = analyze of the N^d unit cell indicators holds member p's value on
    cell c at W[c, p], so W^T W / N^d is the Gram matrix; W must also
    equal ``evaluate`` at the cell midpoints.
    """
    basis = haar_tensor_basis(2, 1)
    shape = (basis.cells_per_axis,) * basis.d
    cells = math.prod(shape)
    values = basis.analyze(np.eye(cells).reshape((cells,) + shape))
    gram_dev = float(np.max(np.abs(values.T @ values / cells - np.eye(basis.size))))
    midpoints = (np.indices(shape).reshape(basis.d, cells).T + 0.5) / basis.cells_per_axis
    pointwise = all(
        np.array_equal(values[:, p], basis.evaluate(p, midpoints)) for p in range(basis.size)
    )
    return gram_dev < 1e-12 and pointwise, f"max Gram deviation {gram_dev:.2e}"


def constant_identities(rng: np.random.Generator, full: bool) -> tuple[bool, str]:
    """C_d / C_d' = 1/5 and the rate exponent (2+d)/(4+4d) > 1/(2+d), d = 1..10."""
    ratio_dev = exponent_dev = 0.0
    ordered = True
    for d in range(1, 11):
        constants = lower_bound_constants(d)
        exponent = (2.0 + d) / (4.0 + 4.0 * d)
        ratio_dev = max(ratio_dev, abs(constants.probability_constant / constants.mean_constant - 0.2))
        exponent_dev = max(exponent_dev, abs(constants.rate_exponent - exponent) / exponent)
        ordered &= 1.0 / (2.0 + d) < constants.rate_exponent
    return ratio_dev < 1e-12 and exponent_dev <= 1e-15 and ordered, (
        f"ratio deviation {ratio_dev:.2e}, rate exponent deviation {exponent_dev:.1e}, "
        f"exponent ordering 1/(2+d) < (2+d)/(4+4d) for d = 1..10: {ordered}"
    )


CHECKS = (
    ("pyramid-norms", pyramid_norms),
    ("disjoint-supports", disjoint_supports),
    ("family-membership", family_membership),
    ("minimax-identity", minimax_identity),
    ("diagonal-domination", diagonal_domination),
    ("risk-floors", risk_floors),
    ("one-sparse-law", one_sparse_law),
    ("risk-concentration", risk_concentration),
    ("basis-orthonormality", basis_orthonormality),
    ("constant-identities", constant_identities),
)


def run_verify(config: ExperimentConfig) -> tuple[bool, list[str]]:
    """Run every check at the quick size; returns (all_passed, one PASS/FAIL line per check)."""
    lines = []
    passed = True
    for i, (name, check) in enumerate(CHECKS):
        ok, detail = check(task_rng(config.seed, i), False)
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        passed &= bool(ok)
    return passed, lines
