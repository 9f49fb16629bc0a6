"""One-sparse Gaussian reduction and exact linear-minimax analysis.

Testing a regression estimator against m orthogonal functions f_1 .. f_m
with common squared norm c_n^2 and disjoint supports compresses, after
normalizing the integrals y_i = (1/c_n^2) int f_i dY, into the m-coordinate
model

    y = e_{j*} + sigma_n w,      sigma_n = 1 / (c_n sqrt(n)),

whose parameter set is the standard basis {e_1, .., e_m}: a one-sparse
Gaussian location problem.  Within that problem, linear estimators
theta_hat = A y admit an exact bias-variance risk formula, are dominated
by diagonal homogeneous matrices a I, and the scalar family has minimax
risk m sigma^2 / (1 + m sigma^2) at a* = 1 / (1 + m sigma^2).  Chaining
the reduction with the scalar solution turns any Gaussian-process
posterior mean into a lower-bounded competitor: its worst-case risk over
the family is at least c_n^2 times the linear minimax risk.

The closed form is checked by an independent grid search: the minimum of
the scalar risk over linspace(0, 1, N), the same bits as a full scan,
found in O(log N) risk evaluations by bisecting the convex risk and then
scanning a window around the bisected point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversarial import CoefficientMatrix, PyramidFamily, pyramid_norm_sq
from .errors import DomainError, _check_count, _check_positive
from .sequence_core import Spectrum

__all__ = [
    "OneSparseModel",
    "LinearEstimator",
    "DominationCheck",
    "reduce_to_sequence",
    "linear_estimator_risk",
    "diagonal_reduction",
    "linear_minimax_risk",
    "brute_force_minimax",
    "gp_mean_dominates_linear",
]


@dataclass(frozen=True)
class OneSparseModel:
    """y = e_j + sigma w on m coordinates, parameters restricted to {e_1..e_m}."""

    m: int
    sigma: float
    c_n_sq: float

    def __post_init__(self):
        _check_count(self.m, "one-sparse size m", 1)
        _check_positive(self.sigma, "noise level sigma")
        _check_positive(self.c_n_sq, "common squared norm c_n_sq")


@dataclass(frozen=True)
class LinearEstimator:
    """Estimator theta_hat = A y for a square matrix A, or a stack (g, m, m) of them."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=float)
        if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
            raise DomainError("estimator matrix must be square, or a stack of square matrices")
        if not np.all(np.isfinite(arr)):
            raise DomainError("estimator matrix must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def m(self) -> int:
        return int(self.matrix.shape[-1])


def reduce_to_sequence(
    family: PyramidFamily,
    j_star: int,
    n: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, OneSparseModel]:
    """Draw the normalized family integrals of one observation at truth j_star.

    Because the family members are orthogonal with a common squared norm
    c_n^2, the vector y_i = (1/c_n^2) int f_i dY is exactly distributed as
    e_{j_star} + sigma_n w with sigma_n = 1/(c_n sqrt(n)) and iid standard
    Gaussian w; the draw uses that law directly.
    """
    if not 0 <= j_star < family.m:
        raise DomainError(f"truth index {j_star} out of range for family of size {family.m}")
    _check_positive(n, "sample size n")
    c_n_sq = pyramid_norm_sq(family.d, family.k)
    sigma = 1.0 / math.sqrt(c_n_sq * n)
    model = OneSparseModel(family.m, sigma, c_n_sq)
    y = sigma * rng.standard_normal(family.m)
    y[j_star] += 1.0
    return y, model


def _check_sigma(sigma, shape: tuple = ()) -> np.ndarray:
    sigmas = np.asarray(sigma, dtype=float)  # one per item of a stack of that shape
    if sigmas.shape != shape:
        raise DomainError(f"noise level sigma must have shape {shape}, got {sigmas.shape}")
    _check_positive(sigmas, "noise level sigma")
    return sigmas


def linear_estimator_risk(estimator: LinearEstimator, theta_index: int, sigma: float) -> float:
    """Exact risk |(A - I) e_j|^2 + sigma^2 tr(A A^T) of theta_hat = A y.

    When sigma^2 overflows, the limit is returned: inf, or the bias alone
    when A = 0.
    """
    _check_sigma(sigma)
    A = estimator.matrix
    if A.ndim != 2:
        raise DomainError("linear_estimator_risk takes one matrix, not a stack")
    if not 0 <= theta_index < estimator.m:
        raise DomainError(f"theta index {theta_index} out of range for m = {estimator.m}")
    column = A[:, theta_index].copy()
    column[theta_index] -= 1.0
    bias_sq = float(column @ column)
    return bias_sq + _noise_load(float(np.sum(A * A)), sigma)


def _worst_case_risk(estimator: LinearEstimator, sigma):
    """max_j of :func:`linear_estimator_risk`, in one pass over the columns of A - I.

    A stack gives one risk per matrix.  Each column's squared norm is the
    dot a 1-d ``column @ column`` takes, each ||A||_F^2 sums one contiguous
    matrix as ``np.sum(A * A)`` does, and adding the common noise term is
    monotone, so each maximum is bit-equal to the per-column one.
    """
    A = estimator.matrix
    sigmas = _check_sigma(sigma, A.shape[:-2])
    columns = np.subtract(np.swapaxes(A, -1, -2), np.eye(estimator.m), order="C")  # row j: (A - I) e_j
    bias_sq = (columns[..., :, None, :] @ columns[..., :, :, None]).max(axis=(-3, -2, -1))
    weights = np.sum(A * A, axis=(-2, -1))
    # sigma**2 by Python's power, as the scalar risks take it: NumPy's square differs in ~0.1%
    loads = [_noise_load(w, s) for w, s in zip(np.ravel(weights).tolist(), np.ravel(sigmas).tolist())]
    risks = bias_sq + np.reshape(loads, weights.shape)
    return float(risks) if A.ndim == 2 else risks


def diagonal_reduction(estimator: LinearEstimator, sigma):
    """Collapse A to the scalar a_bar = sqrt(mean of squared diagonal entries).

    Returns (a_bar, dominated) where dominated records that the one-sparse
    worst-case risk of a_bar I is no larger than that of A.  This holds for
    every matrix: the worst column bias dominates the average, the average
    diagonal bias dominates (a_bar - 1)^2 by Cauchy-Schwarz, and the trace
    term only shrinks when off-diagonal entries are dropped.  A stack of
    matrices with one sigma each gives both as arrays, one entry per matrix.
    """
    a_bar = np.sqrt(np.mean(np.diagonal(estimator.matrix, axis1=-2, axis2=-1) ** 2, axis=-1))
    scalar = LinearEstimator(a_bar[..., None, None] * np.eye(estimator.m))
    dominated = _worst_case_risk(scalar, sigma) <= _worst_case_risk(estimator, sigma)
    return (float(a_bar), bool(dominated)) if np.ndim(a_bar) == 0 else (a_bar, dominated)


class MinimaxSolution(NamedTuple):
    risk: float
    a_star: float


def _noise_load(weight: float, sigma: float) -> float:
    """weight * sigma^2, or its limit once sigma^2 overflows: inf, or 0 when weight is 0.

    With weight m it is t = m sigma^2, the curvature of the scalar risk less
    one; with weight ||A||_F^2 it is the variance term of A y.
    """
    try:
        return weight * sigma**2
    except OverflowError:
        return math.inf if weight else 0.0


def linear_minimax_risk(m: int, sigma: float) -> MinimaxSolution:
    """Exact linear minimax risk in the one-sparse model.

    min over scalars a of (a-1)^2 + m sigma^2 a^2 equals
    m sigma^2 / (1 + m sigma^2), attained at a* = 1 / (1 + m sigma^2).
    When m sigma^2 overflows, the limit is returned: risk 1 at a* = 0.
    """
    _check_count(m, "one-sparse size m", 1)
    _check_sigma(sigma)
    t = _noise_load(m, sigma)
    if math.isinf(t):
        return MinimaxSolution(1.0, 0.0)
    return MinimaxSolution(t / (1.0 + t), 1.0 / (1.0 + t))


# Half-width in grid steps of the window brute_force_minimax scans around
# its bisected index (10 suffice), and the largest grid its argument covers.
SEARCH_WINDOW = 64
MAX_GRID_SIZE = 2**27


def _check_grid_size(grid_size) -> None:
    _check_count(grid_size, "grid_size", 2)  # the endpoints 0 and 1
    if grid_size > MAX_GRID_SIZE:
        raise DomainError(
            f"grid_size = {grid_size} is over the {MAX_GRID_SIZE} = 2^27 points that "
            "the exactness proof of the grid search covers; lower grid_size"
        )


def _grid_points(index, grid_size: int):
    """Points ``index`` of linspace(0, 1, grid_size), computed as NumPy computes them."""
    return np.where(index == grid_size - 1, 1.0, index * (1.0 / (grid_size - 1)))


def _grid_risks(load, index, grid_size: int):
    """Risk t a^2 + (a - 1)^2 at grid points ``index``, by the full scan's expression."""
    a = _grid_points(index, grid_size)
    risks = load * a**2
    risks += (a - 1.0) ** 2
    return risks


def _first_rise(load, grid_size: int):
    """Per load t, the first grid index whose right neighbour's computed risk is not lower."""
    lo = np.zeros(load.shape, dtype=np.int64)
    hi = np.full(load.shape, grid_size - 1, dtype=np.int64)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        left, right = _grid_risks(load, np.stack([mid, mid + 1]), grid_size)
        rising = (lo == hi) | (right >= left)  # a finished pair stays put
        hi = np.where(rising, mid, hi)
        lo = np.where(rising, lo, mid + 1)
    return lo


def brute_force_minimax(m, sigma, grid_size: int):
    """Scalar-grid oracle: min over a in linspace(0, 1, grid_size) of the risk, per pair.

    The one-sparse risk of a I is theta-independent, r(a) = (a-1)^2 + t a^2
    with t = m sigma^2, so a dense scalar grid brackets the closed-form
    minimax value from above within one grid step around a*.  Scalar
    ``m`` and ``sigma`` give one float, equal-length sequences one minimum
    per pair.  When t overflows, every grid point but a = 0 has infinite
    risk and the minimum is exactly 1.

    The minima equal a full scan's bit for bit, without building the grid:
    point i is ``float(i) * (1.0 / (grid_size - 1))`` and the last is 1.0,
    as ``np.linspace`` computes them, and each risk is the scan's
    ``t * a**2 + (a - 1.0)**2``.  r is convex, so one bisection for all
    pairs finds the first index i whose right neighbour's risk is not lower
    (``>=``); the minimum is taken over i +- SEARCH_WINDOW.  a* = 1 / (1 + t)
    is never used: the grid minimum stays an independent check of it.

    Exactness, with h the step, u = 2^-53 and distances in steps from a*:
    r(0) = 1 bounds the grid minimum, and each computed risk is within 4u r
    of the true risk t / (1 + t) + (1 + t)(a - a*)^2.  A point d >= 5 steps
    from the grid point nearest a* exceeds it by (1 + t) h^2 d (d - 1) >=
    20 h^2 > 8u, as h >= 1 / (2^27 - 1) for grid_size <= MAX_GRID_SIZE, so
    it cannot hold the float minimum.  Neighbours x >= 9 steps from a*
    differ by at least (1 + t) h^2 (2x - 1), more than the noise
    8u (t / (1 + t) + (1 + t) h^2 (x + 1)^2) of their comparison, so float
    noise can misplace the bisection only inside that flat band: it lands
    within 10 steps of a*, well inside the window.
    """
    ms = np.atleast_1d(m)
    if ms.ndim != 1:
        raise DomainError("one-sparse size m must be a scalar or a sequence")
    _check_count(ms, "one-sparse size m", 1)
    sigmas = _check_sigma(np.atleast_1d(sigma), ms.shape)
    _check_grid_size(grid_size)
    t = np.array([_noise_load(mi, si) for mi, si in zip(ms.tolist(), sigmas.tolist())])
    finite = np.isfinite(t)
    load = t[finite]
    window = _first_rise(load, grid_size)[:, None] + np.arange(-SEARCH_WINDOW, SEARCH_WINDOW + 1)
    window = np.clip(window, 0, grid_size - 1)
    minima = np.ones(t.shape)
    minima[finite] = _grid_risks(load[:, None], window, grid_size).min(axis=1)
    return float(minima[0]) if np.ndim(m) == 0 and np.ndim(sigma) == 0 else minima


class DominationCheck(NamedTuple):
    gp_risk_max: float
    linear_minimax: float
    holds: bool


def gp_mean_dominates_linear(
    spectrum: Spectrum, coeffs: CoefficientMatrix, n: float
) -> DominationCheck:
    """Worst-case posterior-mean risk vs the reduced linear minimax floor.

    The posterior mean built from ``spectrum`` lives in the truncated
    basis span; coefficient mass of a family member beyond the truncation
    (its norm minus the row mass) is therefore missed entirely and enters
    the exact risk as additional squared bias.  The floor is c_n^2 times
    the one-sparse linear minimax risk at noise sigma_n = 1/(c_n sqrt(n)),
    and the returned flag records gp_risk_max >= floor, which the
    reduction guarantees for every spectrum.  A spectrum on another basis
    raises ContractError from ``coeffs.risks``.
    """
    _check_positive(n, "sample size n")
    family = coeffs.family
    c_n_sq = pyramid_norm_sq(family.d, family.k)
    sigma = 1.0 / math.sqrt(c_n_sq * n)
    gp_risk_max = float(coeffs.risks(spectrum, n, c_n_sq).max())
    floor = c_n_sq * linear_minimax_risk(family.m, sigma).risk
    return DominationCheck(gp_risk_max, floor, gp_risk_max >= floor)
