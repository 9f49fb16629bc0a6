"""Experiment runners: rate studies, contraction probes, batteries.

Every runner maps an ExperimentConfig to a RiskReport.  Randomized work is
split into tasks (one per grid point, or per Monte Carlo block) and each
task seeds its own generator from (master seed, task index), so results
are identical whatever the thread count, and reruns of the same config
are byte-identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
from scipy import stats as _stats

from ..adversarial import (
    build_pyramid_family,
    choose_grid,
    coefficient_work_bytes,
    compute_coefficients,
    grid_target,
    mean_risk_floor,
    risk_lower_bound,
    tk_matched_spectrum,
)
from ..errors import ConfigError
from ..sequence_core import (
    Spectrum,
    TruthCoefficients,
    contraction_probability,
    exact_risk,
    exact_risks,
    exponential_spectrum,
    flat_spectrum,
    mc_risk,
    polynomial_spectrum,
)
from ..sparse_linear import brute_force_minimax, linear_minimax_risk
from ..wavelet import (
    HaarTensorBasis,
    SawtoothSurrogate,
    haar_tensor_basis,
    single_function_risk_bound,
    wavelet_prior_preset,
)
from .config import ExperimentConfig, resolved_items
from .report import RiskReport, RiskRow
from .transfer import transfer_threshold

__all__ = [
    "MAX_COEFFICIENT_BYTES",
    "task_rng",
    "fit_loglog_slope",
    "minimal_basis_level",
    "grid_count",
    "run_rate_study",
    "run_risk_study",
    "run_contraction_study",
    "run_minimax_battery",
    "run_wavelet_study",
]


def task_rng(seed: int, task_index: int) -> np.random.Generator:
    """Generator for one task, independent of all other task indices."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(task_index,)))


def fit_loglog_slope(ns, values) -> dict | None:
    """Least-squares slope of log(values) against log(ns), with a 95% band.

    Returns None when fewer than two points are available or any value is
    nonpositive.  The band comes from the residual variance; with exactly
    two points it degenerates to the slope itself.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.size < 2 or np.any(values <= 0.0) or np.any(ns <= 0.0):
        return None
    x = np.log(ns)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    df = ns.size - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    if df > 0 and sxx > 0:
        stderr = math.sqrt(float(residuals @ residuals) / df / sxx)
        half_width = float(_stats.t.ppf(0.975, df)) * stderr
    else:
        stderr = 0.0
        half_width = 0.0
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "stderr": stderr,
        "low": float(slope - half_width),
        "high": float(slope + half_width),
    }


def minimal_basis_level(k: int) -> int:
    """Coarsest Haar level whose cells are no wider than the pyramid bandwidth."""
    return max(0, math.ceil(math.log2(2 * k)))


_AUTO_EXTRA_LEVELS = 3  # captures all but ~4^-3 of the coefficient mass


def grid_count(d: int, n: float, rule: str) -> tuple[int, int]:
    """Integer grid count under the configured rounding rule.

    "ceil" is the canonical construction (norm wedged below m/n); "round"
    and "floor" track the continuous target more closely, which matters
    when fitting empirical rates across a short n-range.
    """
    if rule == "ceil":
        return choose_grid(d, n)
    t = grid_target(d, n)
    if rule == "round":
        k = max(1, round(t))
    elif rule == "floor":
        k = max(1, math.floor(t))
    else:
        raise ConfigError(f"unknown grid rule {rule!r}")
    return k, k**d


def _resolve_level(config: ExperimentConfig, k: int) -> int:
    minimal = minimal_basis_level(k)
    if config.level is None:
        return minimal + _AUTO_EXTRA_LEVELS
    if config.level < minimal:
        raise ConfigError(
            f"basis level {config.level} cannot resolve the k = {k} grid; "
            f"the minimal level is {minimal}"
        )
    return config.level


def _spectrum_for(config: ExperimentConfig, coeffs):
    """The configured prior spectrum on the coefficient basis."""
    K = coeffs.K
    if config.spectrum == "matched":
        spectrum = tk_matched_spectrum(coeffs, scale=config.tau)
        spectrum_id = f"matched:tau={config.tau:g}"
    elif config.spectrum == "polynomial":
        spectrum = polynomial_spectrum(
            K, basis_id=coeffs.basis_id, tau=config.tau, alpha=config.alpha, d=config.d
        )
        spectrum_id = f"polynomial:tau={config.tau:g}:alpha={config.alpha:g}"
    elif config.spectrum == "exponential":
        spectrum = exponential_spectrum(K, basis_id=coeffs.basis_id, tau=config.tau, beta=config.beta)
        spectrum_id = f"exponential:tau={config.tau:g}:beta={config.beta:g}"
    else:
        spectrum = flat_spectrum(K, basis_id=coeffs.basis_id, tau=config.tau)
        spectrum_id = f"flat:tau={config.tau:g}"
    return spectrum, spectrum_id


# Largest coefficient-engine working set (coefficient_work_bytes) that a
# family study may plan; larger grid points are refused before any work.
MAX_COEFFICIENT_BYTES = 2**30


def _grid_tasks(config: ExperimentConfig) -> list[tuple[int, float, tuple[int, int, int]]]:
    """(grid index, n, (k, level, K)) for every grid point, checked before any work.

    Raises ConfigError naming the sizes when a point's coefficient matrix
    and transform temporaries would exceed MAX_COEFFICIENT_BYTES.
    """
    tasks = []
    for index, n in enumerate(config.n_grid):
        k, m = grid_count(config.d, n, config.grid_rule)
        level = _resolve_level(config, k)
        basis = HaarTensorBasis(config.d, level)
        K = basis.size if config.K is None else config.K
        if K > basis.size:
            raise ConfigError(
                f"K = {K} exceeds the {basis.size} functions of the level-{level} basis"
            )
        needed = coefficient_work_bytes(m, K, basis.size)
        if needed > MAX_COEFFICIENT_BYTES:
            raise ConfigError(
                f"d = {config.d}, n = {n:g}: k = {k}, m = {m}, level = {level}, K = {K} "
                f"needs about {needed} bytes for coefficients, over the limit of "
                f"{MAX_COEFFICIENT_BYTES} bytes; lower the basis level or K"
            )
        tasks.append((index, n, (k, level, K)))
    return tasks


def _family_setup(config: ExperimentConfig, n: float, point: tuple[int, int, int]):
    """Build (family, coeffs, spectrum, spectrum_id, risks per member) at n."""
    k, level, K = point
    family = build_pyramid_family(config.d, k)
    basis = haar_tensor_basis(config.d, level)
    coeffs = compute_coefficients(family, basis, K)
    spectrum, spectrum_id = _spectrum_for(config, coeffs)
    risks = exact_risks(spectrum, coeffs.entries, n, basis_id=coeffs.basis_id)
    return family, coeffs, spectrum, spectrum_id, risks


def _run_tasks(config: ExperimentConfig, tasks, worker):
    if config.threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return list(pool.map(worker, tasks))
    return [worker(task) for task in tasks]


def run_rate_study(
    config: ExperimentConfig, *, fit: bool = True, probabilities: bool = True
) -> RiskReport:
    """Worst-case risk of the configured prior over the adversarial family.

    For each n: build the grid family, compute exact risks of all members,
    Monte Carlo the risk at the worst member, and record the coordinatewise
    floor and the closed-form envelope.  With ``probabilities`` each grid
    point contributes two rows sharing those values, carrying the posterior
    mass outside radius mu/4 and gamma/5 (mu^2 = gamma^2 = the worst
    member's exact risk).  With ``fit`` the log-log slope of the worst-case
    exact risk is fitted across the grid and written to the slope column of
    every row (the band is reported in the JSON fits).
    """
    def worker(task):
        index, n, point = task
        family, coeffs, spectrum, spectrum_id, risks = _family_setup(config, n, point)
        j_star = int(np.argmax(risks))
        truth = TruthCoefficients(coeffs.entries[j_star], coeffs.basis_id)
        rng = task_rng(config.seed, index)
        estimate, stderr = mc_risk(spectrum, truth, n, config.replications, rng)
        mu_sq = float(risks[j_star])
        shared = dict(
            d=config.d,
            n=n,
            k=family.k,
            m=family.m,
            spectrum_id=spectrum_id,
            K=coeffs.K,
            exact_risk=mu_sq,
            mc_risk=estimate,
            mc_stderr=stderr,
            lemma4_bound=risk_lower_bound(coeffs, n),
            thm2_floor=mean_risk_floor(config.d, n),
            seed=config.seed,
        )
        if not probabilities:
            return [RiskRow(**shared)]
        rows = []
        for divisor in (4.0, 5.0):
            radius = math.sqrt(mu_sq) / divisor
            prob, _ = contraction_probability(
                spectrum, truth, n, radius, config.outer, config.inner, rng
            )
            rows.append(RiskRow(**shared, contraction_prob=prob, radius=radius))
        return rows

    groups = _run_tasks(config, _grid_tasks(config), worker)
    rows = [row for group in groups for row in group]
    fits = None
    if fit:
        fits = fit_loglog_slope(
            [group[0].n for group in groups], [group[0].exact_risk for group in groups]
        )
        if fits is not None:
            rows = [replace(row, slope=fits["slope"]) for row in rows]
    return RiskReport(rows=rows, config_items=resolved_items(config), fits=fits)


def run_risk_study(config: ExperimentConfig) -> RiskReport:
    """Rate-study rows without the slope fit or contraction estimates."""
    return run_rate_study(config, fit=False, probabilities=False)


def run_contraction_study(config: ExperimentConfig) -> RiskReport:
    """Posterior mass outside the transfer radii at the worst family member.

    Two rows per grid point: radius mu/4 (mu^2 the worst member's exact
    risk, the single-truth floor radius) and radius gamma/5 (gamma^2 the
    worst-case risk, the uniform no-contraction radius).  The JSON fits
    block records n gamma^2 against the delta-threshold so consumers can
    see which rows the mass floor 1/4 - delta applies to.
    """
    def worker(task):
        index, n, point = task
        family, coeffs, spectrum, spectrum_id, risks = _family_setup(config, n, point)
        j_star = int(np.argmax(risks))
        truth = TruthCoefficients(coeffs.entries[j_star], coeffs.basis_id)
        mu_sq = float(risks[j_star])
        shared = dict(
            d=config.d,
            n=n,
            k=family.k,
            m=family.m,
            spectrum_id=spectrum_id,
            K=coeffs.K,
            exact_risk=mu_sq,
            lemma4_bound=risk_lower_bound(coeffs, n),
            thm2_floor=mean_risk_floor(config.d, n),
            seed=config.seed,
        )
        rows = []
        for sub, divisor in ((0, 4.0), (1, 5.0)):
            radius = math.sqrt(mu_sq) / divisor
            estimate, _ = contraction_probability(
                spectrum,
                truth,
                n,
                radius,
                config.outer,
                config.inner,
                task_rng(config.seed, 2 * index + sub),
            )
            rows.append(RiskRow(**shared, contraction_prob=estimate, radius=radius))
        return rows, n * mu_sq

    results = _run_tasks(config, _grid_tasks(config), worker)
    rows = [row for pair, _ in results for row in pair]
    fits = {
        "n_gamma_sq": [float(v) for _, v in results],
        "threshold": transfer_threshold(config.delta),
        "mass_target": 0.25 - config.delta,
    }
    return RiskReport(rows=rows, config_items=resolved_items(config), fits=fits)


def run_minimax_battery(config: ExperimentConfig) -> RiskReport:
    """Closed-form vs grid-search linear minimax risk over (m, sigma) pairs.

    exact_risk holds the closed form m sigma^2/(1+m sigma^2) and mc_risk
    the scalar grid-search value; their largest gap lands in the fits.
    """
    rows = []
    worst_gap = 0.0
    for m in config.m_values:
        for sigma in config.sigma_values:
            closed = linear_minimax_risk(m, sigma).risk
            searched = brute_force_minimax(m, sigma, config.grid_size)
            worst_gap = max(worst_gap, abs(closed - searched))
            rows.append(
                RiskRow(
                    m=m,
                    spectrum_id=f"one_sparse:sigma={sigma:g}",
                    exact_risk=closed,
                    mc_risk=searched,
                    seed=config.seed,
                )
            )
    fits = {"grid_size": config.grid_size, "max_abs_gap": worst_gap}
    return RiskReport(rows=rows, config_items=resolved_items(config), fits=fits)


def run_wavelet_study(config: ExperimentConfig) -> RiskReport:
    """Risk of a wavelet series prior at a concrete fine-scale ridge truth.

    The truth is a sawtooth ridge two octaves coarser than the basis, so
    the basis retains genuine detail coefficients (wavelets at the
    sawtooth's own level integrate it to zero by symmetry, coarser ones
    by periodicity).  Its retained coefficients are exact, and mass
    beyond them is added to the risk as irreducible bias.  lemma4_bound
    carries the single-function floor sum of coefficient^2 AND 1/n over
    the retained coordinates (a valid partial sum of the full floor),
    and thm2_floor the universal envelope, which applies to worst-case
    truths rather than this particular one.
    """
    level = config.level if config.level is not None else max(1, 6 // config.d)
    basis = haar_tensor_basis(config.d, level)
    K = basis.size if config.K is None else config.K
    if K > basis.size:
        raise ConfigError(f"K = {K} exceeds the {basis.size} functions of the level-{level} basis")
    sawtooth_level = max(0, level - 2)
    surrogate = SawtoothSurrogate(config.d, sawtooth_level)
    all_coefficients = surrogate.haar_coefficients(basis)
    theta = all_coefficients[:K]
    tail_bias = max(surrogate.norm_sq() - float(theta @ theta), 0.0)
    truth = TruthCoefficients(theta, basis.basis_id)
    prior = wavelet_prior_preset(basis, tau=config.tau, alpha=config.alpha)
    spectrum_full = prior.to_spectrum()
    spectrum = Spectrum(spectrum_full.eigenvalues[:K], spectrum_full.basis_id, tail_trace=None)
    spectrum_id = f"wavelet:tau={config.tau:g}:alpha={config.alpha:g}"

    def worker(task):
        index, n = task
        estimate, stderr = mc_risk(
            spectrum, truth, n, config.replications, task_rng(config.seed, index)
        )
        return RiskRow(
            d=config.d,
            n=n,
            m=1,
            spectrum_id=spectrum_id,
            K=K,
            exact_risk=exact_risk(spectrum, truth, n) + tail_bias,
            mc_risk=estimate + tail_bias,
            mc_stderr=stderr,
            lemma4_bound=single_function_risk_bound(truth, n),
            thm2_floor=mean_risk_floor(config.d, n),
            seed=config.seed,
        )

    rows = _run_tasks(config, list(enumerate(config.n_grid)), worker)
    fit = fit_loglog_slope([row.n for row in rows], [row.exact_risk for row in rows])
    if fit is not None:
        rows = [replace(row, slope=fit["slope"]) for row in rows]
    fits = dict(fit or {}, sawtooth_level=sawtooth_level, sawtooth_norm_sq=surrogate.norm_sq())
    return RiskReport(rows=rows, config_items=resolved_items(config), fits=fits)
