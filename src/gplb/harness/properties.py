"""The `verify` battery: fast randomized checks of the core inequalities.

Each check prints one PASS/FAIL line; the battery is deterministic (fixed
seeds) and sized to run in seconds.  It is a smoke layer for CI and for
users who want evidence the installed build preserves the mathematical
contracts; the exhaustive versions live in the test suite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as _stats

from ..adversarial import (
    build_pyramid_family,
    compute_coefficients,
    evaluate_pyramid,
    lower_bound_constants,
    mean_risk_floor,
    pyramid_norm_sq,
    risk_lower_bound,
)
from ..integrate import adaptive_box_integral
from ..sequence_core import Spectrum, TruthCoefficients, exact_risk, exact_risks, sample_observation
from ..sparse_linear import (
    LinearEstimator,
    diagonal_reduction,
    linear_minimax_risk,
    reduce_to_sequence,
)
from ..wavelet import haar_tensor_basis
from .config import ExperimentConfig
from .transfer import concentration_bound

__all__ = ["run_verify", "random_calibrated_spectrum"]


def random_calibrated_spectrum(rng: np.random.Generator, K: int, basis_id: str) -> Spectrum:
    """A random prior: decay profile and scale drawn over moderate ranges.

    Profiles mix polynomial and exponential decay with a log-uniform scale
    in [1e-2, 1e2].  Moderate scales keep some coordinates away from the
    per-coordinate risk minimizer, which is the regime where the
    coordinatewise floor is expected to hold at full strength.
    """
    tau = 10.0 ** rng.uniform(-2.0, 2.0)
    k = np.arange(1, K + 1, dtype=float)
    if rng.random() < 0.5:
        profile = k ** -rng.uniform(0.5, 3.0)
    else:
        profile = np.exp(-rng.uniform(0.01, 0.5) * k)
    return Spectrum(tau * profile, basis_id)


def _check(lines: list[str], name: str, ok: bool, detail: str) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def run_verify(config: ExperimentConfig) -> tuple[bool, list[str]]:
    """Run the property battery; returns (all_passed, report lines)."""
    lines: list[str] = []
    ok = True
    rng = np.random.default_rng(config.seed)

    # closed-form pyramid norms against adaptive quadrature
    worst = 0.0
    for d, k in ((1, 1), (1, 2), (2, 1)):
        family = build_pyramid_family(d, k)
        closed = pyramid_norm_sq(d, k)

        def integrand(pts, family=family):
            return np.asarray(evaluate_pyramid(family, 0, pts)) ** 2

        lo = family.centers[0] - family.bandwidth
        hi = family.centers[0] + family.bandwidth
        numeric = adaptive_box_integral(integrand, lo, hi, tol=closed * 1e-8)
        worst = max(worst, abs(numeric - closed) / closed)
    ok &= _check(lines, "pyramid-norms", worst < 1e-6, f"max relative deviation {worst:.2e}")

    # disjoint supports: pairwise pointwise products vanish
    family = build_pyramid_family(2, 3)
    grid = rng.random((4000, 2))
    values = np.stack([np.asarray(evaluate_pyramid(family, j, grid)) for j in range(family.m)])
    cross = 0.0
    for a in range(family.m):
        for b in range(a + 1, family.m):
            cross = max(cross, float(np.max(values[a] * values[b])))
    ok &= _check(lines, "disjoint-supports", cross == 0.0, f"max pairwise product {cross:.2e}")

    # membership: coordinatewise Lipschitz constant at most 1, sup at most 1/(2k)
    steps = np.linspace(0.0, 1.0, 257)
    fam1 = build_pyramid_family(1, 2)
    vals = np.asarray(evaluate_pyramid(fam1, 1, steps[:, None]))
    lip = float(np.max(np.abs(np.diff(vals)))) / (steps[1] - steps[0])
    sup = float(np.max(vals))
    ok &= _check(
        lines,
        "family-membership",
        lip <= 1.0 + 1e-8 and sup <= fam1.bandwidth + 1e-12,
        f"lipschitz {lip:.6f}, sup {sup:.6f}",
    )

    # scalar minimax identity on a dense grid
    a = np.linspace(0.0, 1.0, 4001)
    worst_gap = 0.0
    for m, sigma in ((1, 1.0), (4, 0.5), (7, 0.17)):
        risks = (a - 1.0) ** 2 + m * sigma**2 * a**2
        worst_gap = max(worst_gap, linear_minimax_risk(m, sigma).risk - float(risks.min()))
    ok &= _check(lines, "minimax-identity", worst_gap <= 1e-12, f"max closed-form excess {worst_gap:.2e}")

    # diagonal domination on random matrices
    violations = 0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        sigma = float(rng.choice([0.1, 1.0, 3.0]))
        _, dominated = diagonal_reduction(LinearEstimator(rng.standard_normal((m, m))), sigma)
        violations += not dominated
    ok &= _check(lines, "diagonal-domination", violations == 0, f"{violations} violations in 100 draws")

    # coordinatewise floor against exact risk for random spectra
    fam = build_pyramid_family(1, 4)
    basis = haar_tensor_basis(1, 6)
    coeffs = compute_coefficients(fam, basis, basis.size)
    n = 1000.0
    bound = risk_lower_bound(coeffs, n)
    floor = mean_risk_floor(1, n)
    bad = 0
    for _ in range(100):
        spectrum = random_calibrated_spectrum(rng, coeffs.K, coeffs.basis_id)
        worst_risk = float(
            exact_risks(spectrum, coeffs.entries, n, basis_id=coeffs.basis_id).max()
        )
        bad += worst_risk < bound - 1e-12
        bad += worst_risk < floor - 1e-12
    ok &= _check(lines, "risk-floors", bad == 0, f"{bad} floor violations in 100 random spectra")

    # one-sparse reduction marginals (Kolmogorov-Smirnov per coordinate)
    draws = np.array([reduce_to_sequence(fam, 1, n, rng)[0] for _ in range(4000)])
    sigma_n = 1.0 / math.sqrt(pyramid_norm_sq(1, 4) * n)
    min_p = 1.0
    for i in range(fam.m):
        loc = 1.0 if i == 1 else 0.0
        result = _stats.kstest(draws[:, i], "norm", args=(loc, sigma_n))
        min_p = min(min_p, float(result.pvalue))
    ok &= _check(lines, "one-sparse-law", min_p > 1e-3, f"min KS p-value {min_p:.4f}")

    # concentration of the squared error around its mean
    worst_excess = -1.0
    for tau, n_conc in ((0.01, 2000.0), (0.05, 5000.0)):
        spectrum = Spectrum(np.full(8, tau), "flat8")
        theta = TruthCoefficients(np.full(8, 0.05), "flat8")
        mu_sq = exact_risk(spectrum, theta, n_conc)
        weights = spectrum.eigenvalues * n_conc / (spectrum.eigenvalues * n_conc + 1.0)
        draws = 4000
        hits = 0
        for _ in range(draws):
            obs = sample_observation(theta, n_conc, rng)
            err = weights * obs.coefficients - theta.theta
            hits += float(err @ err) <= mu_sq / 4.0
        frequency = hits / draws
        cap = concentration_bound(n_conc, mu_sq)
        stderr = math.sqrt(max(frequency * (1.0 - frequency), 1.0 / draws) / draws)
        worst_excess = max(worst_excess, frequency - cap - 3.0 * stderr)
    ok &= _check(
        lines, "risk-concentration", worst_excess <= 0.0, f"worst frequency excess {worst_excess:.2e}"
    )

    # tensor basis orthonormality
    basis2 = haar_tensor_basis(2, 1)
    gram_dev = 0.0
    for i, gi in enumerate(basis2.indices):
        for gj in basis2.indices[i:]:
            target = 1.0 if gi == gj else 0.0
            gram_dev = max(gram_dev, abs(basis2.pair_inner(gi, gj) - target))
    ok &= _check(lines, "basis-orthonormality", gram_dev < 1e-12, f"max Gram deviation {gram_dev:.2e}")

    # constants: ratio and exponent identities
    ratio_dev = max(
        abs(lower_bound_constants(d).probability_constant / lower_bound_constants(d).mean_constant - 0.2)
        for d in range(1, 11)
    )
    exponent_ok = all(
        1.0 / (2.0 + d) < (2.0 + d) / (4.0 + 4.0 * d) for d in range(1, 11)
    )
    ok &= _check(
        lines,
        "constant-identities",
        ratio_dev < 1e-12 and exponent_ok,
        f"ratio deviation {ratio_dev:.2e}, exponent ordering {exponent_ok}",
    )

    return bool(ok), lines
