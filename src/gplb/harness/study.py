"""Experiment runners: rate studies, contraction probes, batteries.

Every runner maps an ExperimentConfig to a RiskReport.  The risk, rates,
contraction and wavelet studies share one grid runner, ``_run_grid``: each
point's builder returns its worst candidate truth (the pyramid family's
worst member at n, or the one sawtooth truth for every n), its prior and
its row, and the runner reports that truth's exact risk with its
basis-truncation tail and runs the study's stages: Monte Carlo risk
("mc"), the two contraction probes ("probes") and the slope fit
("fit").  The Monte Carlo risk of grid point i seeds its own generator
from (master seed, i); the probes are exact and use no randomness.  The
points run one at a time in grid order, so only one point's
coefficients are alive at once and each point's size check prices the
whole study.  Results are identical whichever stages run, and reruns of
the same config are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; here it stays in start-up

from ..adversarial import (
    build_pyramid_family,
    coefficient_work_bytes,
    compute_coefficients,
    grid_target,
    mean_risk_floor,
    pyramid_norm_sq,
    risk_lower_bound,
    tk_matched_spectrum,
    transfer_threshold,
    worst_member,
)
from ..errors import ConfigError
from ..sequence_core import (
    Spectrum,
    TruthCoefficients,
    contraction_mass,
    contraction_probability,  # noqa: F401  rebound here by the benchmark's tracer (bench/layers.py)
    exact_risk,
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
    sawtooth_work_bytes,
    single_function_risk_bound,
    wavelet_prior_preset,
)
from .config import ExperimentConfig, resolved_items
from .report import RiskReport, RiskRow

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

    Returns None when fewer than two points are available, any value is
    nonpositive or every log(n) is the same.  Each log is an integer over
    a power of two, so the normal equations are solved in Python integers
    and the slope and intercept are each the correctly rounded exact
    least-squares value of the log floats, rounded once by an integer
    true division.  The band comes from the residual variance; with
    exactly two points it degenerates to the slope itself.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.size < 2 or np.any(values <= 0.0) or np.any(ns <= 0.0):
        return None
    x = np.log(ns)
    y = np.log(values)
    (xs, x_scale), (ys, y_scale) = (_common_denominator(v.tolist()) for v in (x, y))
    sum_x, sum_y = sum(xs), sum(ys)
    sum_xx, sum_xy = sum(a * a for a in xs), sum(a * b for a, b in zip(xs, ys))
    det = ns.size * sum_xx - sum_x * sum_x  # N^2 times the variance of the x integers
    if det == 0:
        return None
    slope = (ns.size * sum_xy - sum_x * sum_y) * x_scale / (det * y_scale)
    intercept = (sum_xx * sum_y - sum_x * sum_xy) / (det * y_scale)
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
        "slope": slope,
        "intercept": intercept,
        "stderr": stderr,
        "low": slope - half_width,
        "high": slope + half_width,
    }


def _common_denominator(values: list[float]) -> tuple[list[int], int]:
    """Integers a_i and one power of two D with values[i] == a_i / D exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios], scale


def minimal_basis_level(k: int) -> int:
    """Coarsest Haar level whose cells are no wider than the pyramid bandwidth."""
    return max(0, math.ceil(math.log2(2 * k)))


_AUTO_EXTRA_LEVELS = 3  # captures all but ~4^-3 of the coefficient mass


def grid_count(d: int, n: float, rule: str) -> tuple[int, int]:
    """Integer grid count k and family size m = k^d under the configured rounding rule.

    "ceil" is the canonical construction k = ceil((r_d n)^{1/(2d+2)}),
    r_d = 1/(2 (d+2)!), decided exactly: the least k >= 1 with
    k^{2d+2} 2 (d+2)! >= n, an integer compared with n.  For n >= 1/r_d
    the common member norm is then wedged between (1/2)^{2d+2} m/n and
    m/n, where the coordinatewise floor saturates at order m/n.  "round"
    and "floor" track the continuous target more closely, which matters
    when fitting empirical rates across a short n-range.  No rule caps the
    family size: _checked_K refuses an oversize family (m >
    MAX_FAMILY_SIZE needs over 2^30 bytes) with the sizes named.
    """
    t = grid_target(d, n)
    if rule == "ceil":
        # t is a few ulps from the root; step from its ceiling to the least k
        scale, power = 2 * math.factorial(d + 2), 2 * d + 2
        k = math.ceil(t)
        while k > 1 and (k - 1) ** power * scale >= n:
            k -= 1
        while k**power * scale < n:
            k += 1
    elif rule == "round":
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
# study may plan; a larger one is refused before any work.  The minimax
# search grid has its own cap, sparse_linear.MAX_GRID_SIZE.
MAX_COEFFICIENT_BYTES = 2**30


def _checked_K(config: ExperimentConfig, level: int, m: int, where: str, work_bytes) -> int:
    """Retained K at this basis level, refused when its coefficients would be too large.

    ``work_bytes(K)`` bounds the peak bytes of computing the m candidate
    truths' first K coefficients.  Raises ConfigError naming the sizes
    when it exceeds MAX_COEFFICIENT_BYTES.
    """
    size = HaarTensorBasis(config.d, level).size
    K = size if config.K is None else config.K
    if K > size:
        raise ConfigError(f"K = {K} exceeds the {size} functions of the level-{level} basis")
    needed = work_bytes(K)
    if needed > MAX_COEFFICIENT_BYTES:
        raise ConfigError(
            f"{where}m = {m}, level = {level}, K = {K} needs about {needed} bytes for "
            f"coefficients, over the limit of {MAX_COEFFICIENT_BYTES} bytes; "
            f"lower the basis level or K"
        )
    return K


def _family_points(config: ExperimentConfig) -> list:
    """(n, point builder) for every family grid point, sized before any work."""
    points = []
    for n in config.n_grid:
        k, m = grid_count(config.d, n, config.grid_rule)
        level = _resolve_level(config, k)
        # the coefficient pass, and the point's passes over its store after it
        work_bytes = partial(coefficient_work_bytes, config.d, k, level)
        K = _checked_K(config, level, m, f"d = {config.d}, n = {n:g}: k = {k}, ", work_bytes)
        points.append((n, partial(_family_point, config, k, level, K)))
    return points


def _family_point(config: ExperimentConfig, k: int, level: int, K: int, n: float):
    """The worst member of the k^d pyramid family at n, its prior and its row."""
    family = build_pyramid_family(config.d, k)
    coeffs = compute_coefficients(family, haar_tensor_basis(config.d, level), K)
    spectrum, spectrum_id = _spectrum_for(config, coeffs)
    norm_sq = pyramid_norm_sq(config.d, k)
    # the store's sums only choose the worst truth; its reported risk comes
    # from its dense row, so it keeps its bits whatever family it came from
    j = worst_member(coeffs.risks(spectrum, n, norm_sq))
    truth = TruthCoefficients(coeffs.row(j), coeffs.basis_id, norm_sq)
    row = RiskRow(k=k, m=coeffs.m, spectrum_id=spectrum_id, lemma4_bound=risk_lower_bound(coeffs, n))
    return truth, spectrum, row


def _run_grid(config: ExperimentConfig, points, stages, fits: dict | None = None) -> RiskReport:
    """The report of the (n, point builder) pairs, run one at a time in grid order.

    A builder maps n to (truth, spectrum, row): the point's worst candidate
    truth (first K coefficients, with the full squared norm), its prior
    and a RiskRow holding the columns the point fixes (k, m, spectrum_id,
    lemma4_bound).  The truth's exact risk, basis-truncation tail
    included, is always reported.  Stage "mc" adds its Monte Carlo risk
    (stream ``(index,)``); stage "probes" gives two rows with the exact
    expected posterior mass outside mu/4 and gamma/5; stage "fit" writes
    the log-log slope of exact_risk across the grid to every row and
    merges its band into ``fits``.
    """
    rows, heads = [], []
    for index, (n, build) in enumerate(points):
        truth, spectrum, row = build(n)
        mu_sq = exact_risk(spectrum, truth, n)
        row = replace(row, d=config.d, n=n, K=spectrum.size, exact_risk=mu_sq,
                      thm2_floor=mean_risk_floor(config.d, n), seed=config.seed)
        if "mc" in stages:
            rng = task_rng(config.seed, index)
            estimate, stderr = mc_risk(spectrum, truth, n, config.replications, rng)
            row = replace(row, mc_risk=estimate, mc_stderr=stderr)
        heads.append(row)
        if "probes" in stages:
            radii = [math.sqrt(mu_sq) / divisor for divisor in (4.0, 5.0)]
            masses = contraction_mass(spectrum, truth, n, radii)
            rows += [replace(row, contraction_prob=float(mass), radius=r) for r, mass in zip(radii, masses)]
        else:
            rows.append(row)
        del truth, spectrum  # so the next point builds with only its own arrays alive
    if "fit" in stages:
        slope = fit_loglog_slope([row.n for row in heads], [row.exact_risk for row in heads])
        if slope is not None:
            rows = [replace(row, slope=slope["slope"]) for row in rows]
        fits = slope if fits is None else dict(slope or {}, **fits)
    return RiskReport(rows=rows, config_items=resolved_items(config), fits=fits)


def run_rate_study(config: ExperimentConfig) -> RiskReport:
    """Worst-case risk of the configured prior over the adversarial family.

    For each n: build the grid family, compute every member's exact risk
    (truncation tail included), Monte Carlo the risk at the worst member
    (the lowest index within 1e-12 of the largest), and record the coordinatewise
    floor and the closed-form envelope.  Each grid point contributes two
    rows sharing those values, carrying the posterior mass outside radius
    mu/4 and gamma/5 (mu^2 = gamma^2 = the worst member's exact risk).  The
    log-log slope of the worst-case exact risk is fitted across the grid and
    written to the slope column of every row (the band is reported in the
    JSON fits).
    """
    return _run_grid(config, _family_points(config), ("mc", "probes", "fit"))


def run_risk_study(config: ExperimentConfig) -> RiskReport:
    """Rate-study rows without the slope fit or contraction estimates."""
    return _run_grid(config, _family_points(config), ("mc",))


def run_contraction_study(config: ExperimentConfig) -> RiskReport:
    """Posterior mass outside the transfer radii at the worst family member.

    The rate study's two probe rows per grid point, without Monte Carlo
    risk or slope: radius mu/4 (the single-truth floor radius) and gamma/5
    (the uniform no-contraction radius), mu^2 = gamma^2 the worst member's
    exact risk.  The JSON fits block records n gamma^2 against the
    delta-threshold so consumers can see which rows the mass floor
    1/4 - delta applies to.
    """
    report = _run_grid(config, _family_points(config), ("probes",))
    report.fits = {
        "n_gamma_sq": [row.n * row.exact_risk for row in report.rows[::2]],  # two rows per point
        "threshold": transfer_threshold(config.delta),
        "mass_target": 0.25 - config.delta,
    }
    return report


def run_minimax_battery(config: ExperimentConfig) -> RiskReport:
    """Closed-form vs grid-search linear minimax risk over (m, sigma) pairs.

    exact_risk holds the closed form m sigma^2/(1+m sigma^2) and mc_risk
    the scalar grid-search value; their largest gap lands in the fits.
    One ``brute_force_minimax`` call searches the grid for every pair, at most
    the 2^27 points its exactness proof covers (the config refuses more).
    """
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
    truths rather than this particular one.  The one truth and its prior
    are built once and serve every n.
    """
    level = config.level if config.level is not None else max(1, 6 // config.d)
    K = _checked_K(config, level, 1, f"d = {config.d}: ", partial(sawtooth_work_bytes, config.d, level))
    basis = haar_tensor_basis(config.d, level)
    sawtooth_level = max(0, level - 2)
    surrogate = SawtoothSurrogate(config.d, sawtooth_level)
    norm_sq = surrogate.norm_sq()
    truth = TruthCoefficients(surrogate.haar_coefficients(basis)[:K], basis.basis_id, norm_sq)
    prior = wavelet_prior_preset(basis, tau=config.tau, alpha=config.alpha)
    spectrum = Spectrum(prior.to_spectrum().eigenvalues[:K], basis.basis_id)
    spectrum_id = f"wavelet:tau={config.tau:g}:alpha={config.alpha:g}"

    def point(n):
        return truth, spectrum, RiskRow(m=1, spectrum_id=spectrum_id,
                                        lemma4_bound=single_function_risk_bound(truth, n))

    fits = {"sawtooth_level": sawtooth_level, "sawtooth_norm_sq": norm_sq}
    return _run_grid(config, [(n, point) for n in config.n_grid], ("mc", "fit"), fits)
