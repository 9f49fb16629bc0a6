"""Experiment runners: rate studies, contraction probes, batteries.

Every runner maps an ExperimentConfig to a RiskReport.  The risk, rates,
contraction and wavelet studies share one grid-point pipeline: a point's
candidate truths (the pyramid family at n, or the one sawtooth truth for
every n) and prior go to ``_grid_point``, which reports the worst
candidate's exact risk with its basis-truncation tail and runs the
study's stages, Monte Carlo risk ("mc") and/or the two contraction
probes ("probes").  The Monte Carlo risk of grid point i seeds its own
generator from (master seed, i); the probes are exact and use no
randomness.  So results are identical whatever the thread count and
whichever stages run, and reruns of the same config are byte-identical.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; here it stays in start-up

from ..adversarial import (
    build_pyramid_family,
    choose_grid,
    coefficient_work_bytes,
    compute_coefficients,
    grid_target,
    mean_risk_floor,
    member_risks,
    pyramid_norm_sq,
    risk_lower_bound,
    tk_matched_spectrum,
    worst_member,
)
from ..errors import ConfigError
from ..sequence_core import (
    Spectrum,
    TruthCoefficients,
    contraction_mass,
    contraction_probability,  # noqa: F401  rebound here by the benchmark's tracer (bench/layers.py)
    exact_risk,  # noqa: F401  rebound here by the benchmark's tracer (bench/layers.py)
    exponential_spectrum,
    flat_spectrum,
    mc_risk,
    polynomial_spectrum,
)
from ..sparse_linear import MAX_GRID_SIZE, brute_force_minimax, linear_minimax_risk
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
    "t_quantile_975",
    "fit_loglog_slope",
    "minimal_basis_level",
    "grid_count",
    "run_rate_study",
    "run_risk_study",
    "run_contraction_study",
    "run_minimax_battery",
    "run_wavelet_study",
]


def task_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for one task, independent of every other key."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def t_quantile_975(df: int) -> float:
    """The 97.5% quantile of Student's t with an integer number df of degrees of freedom.

    With t = sqrt(df) tan(theta), P(|T| < t) has a closed form in theta
    (Abramowitz & Stegun 26.7.3-4); bisection on theta in (0, pi/2) solves
    P(|T| < t) = 0.95 to the last bit of theta.
    """
    def central(theta):
        c = math.cos(theta)
        c_sq = c * c
        if df % 2:
            term = total = c if df > 1 else 0.0
            for j in range(1, (df - 1) // 2):
                term *= c_sq * (2 * j) / (2 * j + 1)
                total += term
            return 2.0 / math.pi * (theta + math.sin(theta) * total)
        term = total = 1.0
        for j in range(1, df // 2):
            term *= c_sq * (2 * j - 1) / (2 * j)
            total += term
        return math.sin(theta) * total

    lo, hi = 0.0, 0.5 * math.pi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if central(mid) < 0.95:
            lo = mid
        else:
            hi = mid
    return math.sqrt(df) * math.tan(hi)


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
        half_width = t_quantile_975(df) * stderr
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


# Largest coefficient-engine working set (coefficient_work_bytes), and
# largest minimax search grid, that a study may plan; larger ones are
# refused before any work.
MAX_COEFFICIENT_BYTES = 2**30


def _checked_K(config: ExperimentConfig, level: int, m: int, where: str) -> int:
    """Retained K at this basis level, refused when its coefficients would be too large.

    Raises ConfigError naming the sizes when the coefficient matrix and
    transform temporaries would exceed MAX_COEFFICIENT_BYTES.
    """
    size = HaarTensorBasis(config.d, level).size
    K = size if config.K is None else config.K
    if K > size:
        raise ConfigError(f"K = {K} exceeds the {size} functions of the level-{level} basis")
    needed = coefficient_work_bytes(m, K, size)
    if needed > MAX_COEFFICIENT_BYTES:
        raise ConfigError(
            f"{where}m = {m}, level = {level}, K = {K} needs about {needed} bytes for "
            f"coefficients, over the limit of {MAX_COEFFICIENT_BYTES} bytes; "
            f"lower the basis level or K"
        )
    return K


def _grid_tasks(config: ExperimentConfig) -> list:
    """(grid index, n, point builder) for every family grid point, sized before any work."""
    tasks = []
    for index, n in enumerate(config.n_grid):
        k, m = grid_count(config.d, n, config.grid_rule)
        level = _resolve_level(config, k)
        K = _checked_K(config, level, m, f"d = {config.d}, n = {n:g}: k = {k}, ")
        tasks.append((index, n, partial(_family_point, config, k, level, K)))
    return tasks


class _Point(NamedTuple):
    """What a grid point needs besides n: candidate truths and their prior."""

    rows: np.ndarray  # each candidate truth's first K coefficients
    norm_sq: float  # every candidate's full squared norm
    spectrum: Spectrum
    spectrum_id: str
    k: int | None
    lemma4_bound: Callable[[float], float]


def _family_point(config: ExperimentConfig, k: int, level: int, K: int) -> _Point:
    """The k^d pyramid family as candidate truths."""
    family = build_pyramid_family(config.d, k)
    coeffs = compute_coefficients(family, haar_tensor_basis(config.d, level), K)
    spectrum, spectrum_id = _spectrum_for(config, coeffs)
    return _Point(
        coeffs.entries,
        pyramid_norm_sq(config.d, k),
        spectrum,
        spectrum_id,
        k,
        lambda n: risk_lower_bound(coeffs, n),
    )


def _grid_point(config: ExperimentConfig, stages, task) -> list[RiskRow]:
    """The rows of one (grid index, n, point builder) task.

    The worst candidate's exact risk, basis-truncation tail included, is
    always reported.  Stage "mc" adds its Monte Carlo risk (stream
    ``(index,)``); stage "probes" gives two rows with the exact expected
    posterior mass outside mu/4 and gamma/5.
    """
    index, n, build = task
    point = build()
    risks, tails = member_risks(point.spectrum, point.rows, n, point.norm_sq)
    j = worst_member(risks)
    truth = TruthCoefficients(point.rows[j], point.spectrum.basis_id)
    mu_sq, tail = float(risks[j]), float(tails[j])
    row = RiskRow(
        d=config.d,
        n=n,
        k=point.k,
        m=len(point.rows),
        spectrum_id=point.spectrum_id,
        K=point.spectrum.size,
        exact_risk=mu_sq,
        lemma4_bound=point.lemma4_bound(n),
        thm2_floor=mean_risk_floor(config.d, n),
        seed=config.seed,
    )
    if "mc" in stages:
        rng = task_rng(config.seed, index)
        estimate, stderr = mc_risk(point.spectrum, truth, n, config.replications, rng)
        row = replace(row, mc_risk=estimate + tail, mc_stderr=stderr)
    if "probes" not in stages:
        return [row]
    rows = []
    for divisor in (4.0, 5.0):
        radius = math.sqrt(mu_sq) / divisor
        # the truncated mass is at distance tail from every posterior draw
        prob = 1.0
        if radius * radius > tail:
            prob = contraction_mass(point.spectrum, truth, n, math.sqrt(radius * radius - tail))
        rows.append(replace(row, contraction_prob=prob, radius=radius))
    return rows


def _run_tasks(config: ExperimentConfig, tasks, stages) -> list[list[RiskRow]]:
    """Each task's rows, in grid order, on ``config.threads`` threads."""
    worker = partial(_grid_point, config, stages)
    if config.threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return list(pool.map(worker, tasks))
    return [worker(task) for task in tasks]


def _report(config: ExperimentConfig, groups, *, fit: bool, fits: dict | None = None) -> RiskReport:
    """One report from per-point row groups; ``fit`` adds the log-log slope of exact_risk."""
    rows = [row for group in groups for row in group]
    if fit:
        slope = fit_loglog_slope(
            [group[0].n for group in groups], [group[0].exact_risk for group in groups]
        )
        if slope is not None:
            rows = [replace(row, slope=slope["slope"]) for row in rows]
        fits = slope if fits is None else dict(slope or {}, **fits)
    return RiskReport(rows=rows, config_items=resolved_items(config), fits=fits)


def run_rate_study(
    config: ExperimentConfig, *, fit: bool = True, probabilities: bool = True
) -> RiskReport:
    """Worst-case risk of the configured prior over the adversarial family.

    For each n: build the grid family, compute every member's exact risk
    (truncation tail included), Monte Carlo the risk at the worst member
    (the lowest index within 1e-12 of the largest), and record the coordinatewise
    floor and the closed-form envelope.  With ``probabilities`` each grid
    point contributes two rows sharing those values, carrying the posterior
    mass outside radius mu/4 and gamma/5 (mu^2 = gamma^2 = the worst
    member's exact risk).  With ``fit`` the log-log slope of the worst-case
    exact risk is fitted across the grid and written to the slope column of
    every row (the band is reported in the JSON fits).
    """
    stages = ("mc", "probes") if probabilities else ("mc",)
    groups = _run_tasks(config, _grid_tasks(config), stages)
    return _report(config, groups, fit=fit)


def run_risk_study(config: ExperimentConfig) -> RiskReport:
    """Rate-study rows without the slope fit or contraction estimates."""
    return run_rate_study(config, fit=False, probabilities=False)


def run_contraction_study(config: ExperimentConfig) -> RiskReport:
    """Posterior mass outside the transfer radii at the worst family member.

    The rate study's two probe rows per grid point, without Monte Carlo
    risk or slope: radius mu/4 (the single-truth floor radius) and gamma/5
    (the uniform no-contraction radius), mu^2 = gamma^2 the worst member's
    exact risk.  The JSON fits block records n gamma^2 against the
    delta-threshold so consumers can see which rows the mass floor
    1/4 - delta applies to.
    """
    groups = _run_tasks(config, _grid_tasks(config), ("probes",))
    fits = {
        "n_gamma_sq": [group[0].n * group[0].exact_risk for group in groups],
        "threshold": transfer_threshold(config.delta),
        "mass_target": 0.25 - config.delta,
    }
    return _report(config, groups, fit=False, fits=fits)


def run_minimax_battery(config: ExperimentConfig) -> RiskReport:
    """Closed-form vs grid-search linear minimax risk over (m, sigma) pairs.

    exact_risk holds the closed form m sigma^2/(1+m sigma^2) and mc_risk
    the scalar grid-search value; their largest gap lands in the fits.
    One ``brute_force_minimax`` call searches the grid for every pair.  A
    grid over MAX_GRID_SIZE (2^27) points, the sizes the search's
    exactness proof covers, is refused before any search.
    """
    if config.grid_size > MAX_GRID_SIZE:
        raise ConfigError(
            f"grid_size = {config.grid_size} is over the {MAX_GRID_SIZE} = 2^27 points that "
            "the exactness proof of the grid search covers; lower grid_size"
        )
    pairs = [(m, sigma) for m in config.m_values for sigma in config.sigma_values]
    ms, sigmas = zip(*pairs)
    searched = brute_force_minimax(ms, sigmas, config.grid_size)
    rows = []
    worst_gap = 0.0
    for (m, sigma), grid_min in zip(pairs, searched.tolist()):
        closed = linear_minimax_risk(m, sigma).risk
        worst_gap = max(worst_gap, abs(closed - grid_min))
        rows.append(
            RiskRow(
                m=m,
                spectrum_id=f"one_sparse:sigma={sigma:g}",
                exact_risk=closed,
                mc_risk=grid_min,
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
    by periodicity).  Its retained coefficients are exact: the cell
    integrals come from one closed-form pass over one period of cells
    (``SawtoothSurrogate.haar_coefficients``), and its squared norm is
    period^2/12, so beyond the one period the truth costs only the Haar
    transform of the N^d cells.  Mass beyond the retained coefficients
    is added to the risk as irreducible bias.  lemma4_bound
    carries the single-function floor sum of coefficient^2 AND 1/n over
    the retained coordinates (a valid partial sum of the full floor),
    and thm2_floor the universal envelope, which applies to worst-case
    truths rather than this particular one.  The one-truth point is
    built once and serves every n.
    """
    level = config.level if config.level is not None else max(1, 6 // config.d)
    K = _checked_K(config, level, 1, f"d = {config.d}: ")
    basis = haar_tensor_basis(config.d, level)
    sawtooth_level = max(0, level - 2)
    surrogate = SawtoothSurrogate(config.d, sawtooth_level)
    truth = TruthCoefficients(surrogate.haar_coefficients(basis)[:K], basis.basis_id)
    prior = wavelet_prior_preset(basis, tau=config.tau, alpha=config.alpha)
    spectrum = Spectrum(prior.to_spectrum().eigenvalues[:K], basis.basis_id)
    norm_sq = surrogate.norm_sq()
    point = _Point(
        truth.theta[None, :],
        norm_sq,
        spectrum,
        f"wavelet:tau={config.tau:g}:alpha={config.alpha:g}",
        None,
        lambda n: single_function_risk_bound(truth, n),
    )
    tasks = [(index, n, lambda: point) for index, n in enumerate(config.n_grid)]
    groups = _run_tasks(config, tasks, ("mc",))
    fits = {"sawtooth_level": sawtooth_level, "sawtooth_norm_sq": norm_sq}
    return _report(config, groups, fit=True, fits=fits)
