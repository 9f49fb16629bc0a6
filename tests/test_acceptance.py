"""Acceptance battery: ten end-to-end criteria, one PASS/FAIL line each.

Each criterion exercises a whole subsystem at its stated tolerance:
closed forms against quadrature, oracles against grid searches, exact
risks against Monte Carlo, floors against randomized adversaries, and
the reproducibility contract of the report pipeline.  The verdict lines
are echoed in the pytest terminal summary (see conftest.py).

Criteria 1-4 and 7, and the exponent part of 9, run the property checks
of ``gplb.harness.properties`` at their full size; ``gplb verify`` runs
the same checks at the quick size.  Randomized criteria use fixed seeds.
The floor criteria (4 and 9) do not rely on seed luck: criterion 4 runs
on calibrated family/basis configurations whose measured violation rate
is zero with wide margins, and criterion 9's five test functions carry
an analytic certificate (their level-profile risk infimum already clears
the floor) so dominance holds for every prior drawn from that family.
"""

from __future__ import annotations

import math
import time

import numpy as np

import conftest
from conftest import dispersed_test_functions
from gplb.adversarial import build_pyramid_family, compute_coefficients, transfer_threshold
from gplb.harness import properties
from gplb.harness.cli import main
from gplb.harness.config import ExperimentConfig
from gplb.harness.study import run_rate_study
from gplb.sequence_core import (
    MASS_TOLERANCE,
    Spectrum,
    TruthCoefficients,
    contraction_mass,
    exact_risk,
    exponential_spectrum,
    flat_spectrum,
    mc_risk,
    polynomial_spectrum,
)
from gplb.wavelet import (
    haar_tensor_basis,
    level_profile_risk_infimum,
    single_function_risk_bound,
    wavelet_prior_preset,
)


def record(index: int, name: str, ok: bool, detail: str) -> None:
    """Append the criterion verdict line, print it, and enforce it."""
    line = f"{'PASS' if ok else 'FAIL'} criterion {index:2d} [{name}]: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def run_checks(index: int, name: str, seed: int, *checks) -> None:
    """Record registry checks at the full size, drawing in turn from one seeded generator."""
    rng = np.random.default_rng(seed)
    results = [check(rng, True) for check in checks]
    record(index, name, all(ok for ok, _ in results), "; ".join(detail for _, detail in results))


def test_criterion_01_pyramid_norms_match_adaptive_quadrature():
    start = time.perf_counter()
    ok, detail = properties.pyramid_norms(np.random.default_rng(101), True)
    elapsed = time.perf_counter() - start
    record(1, "pyramid norms", ok and elapsed < 10.0, f"{detail} in {elapsed:.1f}s (< 10s)")


def test_criterion_02_orthogonality_and_class_membership():
    run_checks(
        2, "orthogonality and membership", 202,
        properties.disjoint_supports, properties.family_membership,
    )


def test_criterion_03_linear_minimax_oracle_and_diagonal_domination():
    run_checks(3, "linear minimax", 303, properties.minimax_identity, properties.diagonal_domination)


def test_criterion_04_worst_member_risk_dominates_coordinatewise_floor():
    run_checks(4, "coordinatewise risk floor", 404, properties.risk_floors)


def test_criterion_05_worst_case_rate_slope_and_envelope():
    start = time.perf_counter()
    config = ExperimentConfig(
        mode="rates",
        d=1,
        grid_rule="round",
        spectrum="matched",
        tau=1.0,
        seed=5,
        replications=2,
    )
    report = run_rate_study(config)
    slope = report.fits["slope"]
    envelope_constant = (0.25 * (1.0 / 12.0) ** 0.125) ** 2
    margins = [row.exact_risk / (envelope_constant * row.n**-0.75) for row in report.rows]
    elapsed = time.perf_counter() - start
    ok = abs(slope + 0.75) <= 0.03 and min(margins) >= 1.0 and elapsed < 120.0
    record(
        5,
        "worst-case rate",
        ok,
        f"fitted log-log slope {slope:.4f} (target -0.75 +/- 0.03) over "
        f"n = 1e3..1e6; every risk at least the closed-form envelope "
        f"(min ratio {min(margins):.2f}); {elapsed:.0f}s (< 120s)",
    )


def test_criterion_06_monte_carlo_risk_agrees_with_exact_risk():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_sigmas = 0.0
    for i in range(100):
        K = int(rng.integers(4, 65))
        basis_id = f"mc-agreement-{i}"
        tau = 10.0 ** rng.uniform(-2.0, 2.0)
        kind = i % 3
        if kind == 0:
            spectrum = polynomial_spectrum(
                K, basis_id=basis_id, tau=tau, alpha=float(rng.uniform(0.5, 3.0)), d=1
            )
        elif kind == 1:
            spectrum = exponential_spectrum(
                K, basis_id=basis_id, tau=tau, beta=float(rng.uniform(0.05, 1.0))
            )
        else:
            spectrum = flat_spectrum(K, basis_id=basis_id, tau=tau)
        scale = 10.0 ** rng.uniform(-1.5, 0.5)
        theta = TruthCoefficients(scale * rng.standard_normal(K), basis_id)
        n = 10.0 ** rng.uniform(2.0, 6.0)
        exact = exact_risk(spectrum, theta, n)
        estimate, stderr = mc_risk(spectrum, theta, n, 10000, rng)
        worst_sigmas = max(worst_sigmas, abs(estimate - exact) / stderr)
    elapsed = time.perf_counter() - start
    ok = worst_sigmas <= 4.0 and elapsed < 300.0
    record(
        6,
        "Monte Carlo agreement",
        ok,
        f"largest |mc - exact| over 100 random configurations is "
        f"{worst_sigmas:.2f} standard errors (<= 4) at 1e4 replications "
        f"each; {elapsed:.0f}s (< 300s)",
    )


def test_criterion_07_small_error_frequency_respects_concentration_cap():
    run_checks(7, "error concentration", 707, properties.risk_concentration)


def test_criterion_08_posterior_mass_floor_beyond_transfer_threshold():
    threshold = transfer_threshold(0.1)
    cases = ((1, 1e-6, 2000.0), (1, 1e-4, 2000.0), (2, 1e-5, 20000.0), (1, 1e-3, 30000.0))
    summaries = []
    ok = True
    for k, tau, n in cases:
        family = build_pyramid_family(1, k)
        basis = haar_tensor_basis(1, 6)
        coeffs = compute_coefficients(family, basis, basis.size)
        spectrum = flat_spectrum(basis.size, basis_id=coeffs.basis_id, tau=tau)
        truths = [
            TruthCoefficients(coeffs.entries[j], coeffs.basis_id) for j in range(family.m)
        ]
        risks = [exact_risk(spectrum, truth, n) for truth in truths]
        j_star = int(np.argmax(risks))
        gamma_sq = risks[j_star]
        ok &= n * gamma_sq >= threshold
        radius = math.sqrt(gamma_sq) / 5.0
        mass = contraction_mass(spectrum, truths[j_star], n, radius)
        ok &= mass >= 0.15 - MASS_TOLERANCE
        summaries.append(f"n*gamma^2={n * gamma_sq:.0f} mass={mass:.3f}")
    record(
        8,
        "contraction mass floor",
        bool(ok),
        "worst-member posterior mass outside gamma/5 stayed above "
        "0.15 - 1e-10 whenever n*gamma^2 cleared "
        f"{threshold:.2f}: " + "; ".join(summaries),
    )


def test_criterion_09_single_function_floor_and_exponent_ordering():
    n = 1000.0
    basis = haar_tensor_basis(1, 4)
    functions = dispersed_test_functions(basis, n)
    levels = np.arange(basis.level + 1)
    rng = np.random.default_rng(909)
    violations = 0
    certified = 0
    for theta in functions.values():
        truth = TruthCoefficients(theta, basis.basis_id)
        bound = single_function_risk_bound(truth, n)
        certified += level_profile_risk_infimum(truth, basis, n) >= bound
        for i in range(50):
            if i % 2 == 0:
                prior = wavelet_prior_preset(
                    basis,
                    tau=10.0 ** rng.uniform(-2.0, 2.0),
                    alpha=float(rng.uniform(0.05, 3.0)),
                )
                spectrum = prior.to_spectrum()
            else:
                per_level = 10.0 ** rng.uniform(-4.0, 3.0, levels.size)
                spectrum = Spectrum(per_level[basis.groups], basis.basis_id)
            violations += exact_risk(spectrum, truth, n) < bound
    exponents_ok, exponents = properties.constant_identities(rng, True)
    ok = violations == 0 and certified == len(functions) and exponents_ok
    record(
        9,
        "single-function floor",
        ok,
        f"{violations} violations over 5 certified test functions x 50 "
        f"random wavelet spectra ({certified}/5 level-profile certificates "
        f"hold); {exponents}",
    )


def test_criterion_10_identical_configs_rerun_byte_identically(tmp_path):
    config_path = tmp_path / "repro.ini"
    config_path.write_text(
        "[experiment]\nn_grid = 300, 3000\nseed = 17\n\n"
        "[mc]\nreplications = 50\n",
        encoding="utf-8",
    )
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["rates", "--config", str(config_path), "--out", str(first)]) == 0
    assert main(["rates", "--config", str(config_path), "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    lines = first.read_text(encoding="utf-8").count("\n")
    record(
        10,
        "reproducibility",
        identical,
        f"two CLI runs of the same config and seed wrote byte-identical "
        f"CSV reports ({lines} lines each)",
    )
