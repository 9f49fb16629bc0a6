"""Adversarial pyramid families and the universal coordinatewise risk bound.

For a per-axis grid count k, place centers at the m = k^d points whose
coordinates are (l - 1/2)/k and define

    f_a(x) = (1/(2k) - |x - a|_1)_+ .

The supports are pairwise disjoint sup-norm boxes, each member is
1-Lipschitz in every coordinate with sup-norm 1/(2k) <= 1, and the common
squared L^2 norm is k^{-(d+2)} / (2 (d+2)!).  Functions of this shape are
simultaneously generalized additive (a ridge composition per orthant) and
maximally spread out, which is what makes them adversarial for any fixed
Gaussian-process prior.

Averaging squared basis coefficients over the family yields per-coordinate
masses T_k = (1/m) sum_j <f_j, phi_k>^2, and the worst-case posterior-mean
risk over the family is bounded below by sum_k T_k AND 1/n for every prior
spectrum on that basis.  Grid selection, the closed-form constants, and
the sample-size threshold for the contraction machinery live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError
# adaptive_box_integral and pyramid_box_integral are no longer called here;
# they stay bound in this module because the benchmark's tracer rebinds
# them here (bench/layers.py).
from .integrate import (  # noqa: F401
    adaptive_box_integral,
    pyramid_box_integral,
    pyramid_grid_integrals,
)
from .sequence_core import Spectrum, exact_risks

__all__ = [
    "MAX_FAMILY_SIZE",
    "PyramidFamily",
    "CoefficientMatrix",
    "LowerBoundConstants",
    "build_pyramid_family",
    "evaluate_pyramid",
    "pyramid_norm_sq",
    "compute_coefficients",
    "coefficient_work_bytes",
    "tk_values",
    "tk_matched_spectrum",
    "risk_lower_bound",
    "member_risks",
    "worst_member",
    "grid_target",
    "choose_grid",
    "lower_bound_constants",
    "n_threshold",
    "mean_risk_floor",
]

MAX_FAMILY_SIZE = 10_000_000

_FACTORIAL_CUTOFF = 15  # exact math.factorial below, log-gamma above


def _half_inverse_factorial(d: int) -> float:
    """r_d = 1 / (2 (d+2)!), evaluated in log space for large d."""
    if d <= _FACTORIAL_CUTOFF:
        return 1.0 / (2.0 * math.factorial(d + 2))
    return 0.5 * math.exp(-math.lgamma(d + 3))


def _log_half_inverse_factorial(d: int) -> float:
    return -math.log(2.0) - math.lgamma(d + 3)


@dataclass(frozen=True)
class PyramidFamily:
    """The m = k^d disjoint-support pyramids on the (l - 1/2)/k grid."""

    d: int
    k: int
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise DomainError("pyramid family needs d >= 1 and k >= 1")
        m = self.k**self.d
        if m > MAX_FAMILY_SIZE:
            raise DomainError(
                f"family size k^d = {m} exceeds the supported limit {MAX_FAMILY_SIZE}"
            )
        axis = (np.arange(1, self.k + 1) - 0.5) / self.k
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=-1)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)

    @property
    def m(self) -> int:
        return self.k**self.d

    @property
    def bandwidth(self) -> float:
        return 1.0 / (2.0 * self.k)


def build_pyramid_family(d: int, k: int) -> PyramidFamily:
    """Construct the grid family of m = k^d pyramid functions."""
    return PyramidFamily(d, k)


def evaluate_pyramid(family: PyramidFamily, j, x) -> np.ndarray | float:
    """Evaluate family member j at x in [0,1]^d ((d,) point or (npts, d)).

    An array of members j gives one row per member, at the points (npts, d)
    or at each member's own points (members, npts, d).
    """
    members = np.asarray(j)
    if np.any((members < 0) | (members >= family.m)):
        raise DomainError(f"member index {j} out of range for family of size {family.m}")
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != family.d:
        raise DomainError(f"points must have {family.d} columns, got {pts.shape[-1]}")
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise DomainError("evaluation points must lie in the unit cube")
    centers = family.centers[members][..., None, :] if members.ndim else family.centers[members]
    # the l1 distance added up axis by axis, as NumPy sums an axis shorter than 8
    distance = sum(np.abs(pts[..., i] - centers[..., i]) for i in range(family.d))
    values = np.maximum(family.bandwidth - distance, 0.0)
    return values if np.ndim(x) > 1 or members.ndim else float(values[0])


def pyramid_norm_sq(d: int, k: int) -> float:
    """Common squared L^2 norm of every family member: k^{-(d+2)}/(2(d+2)!)."""
    if d < 1 or k < 1:
        raise DomainError("pyramid_norm_sq needs d >= 1 and k >= 1")
    return _half_inverse_factorial(d) * float(k) ** -(d + 2)


@dataclass(frozen=True)
class CoefficientMatrix:
    """All inner products <f_j, phi_k>: rows index the family, columns the basis.

    Row sums of squares may not exceed the common member norm (orthonormal
    coefficients obey the Bessel inequality); construction enforces this
    with a small rounding allowance.
    """

    entries: np.ndarray
    basis_id: str
    family: PyramidFamily

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ContractError("coefficient entries must form a 2-d matrix")
        if arr.shape[0] != self.family.m:
            raise ContractError(
                f"entry rows {arr.shape[0]} do not match family size {self.family.m}"
            )
        norm_sq = pyramid_norm_sq(self.family.d, self.family.k)
        row_mass = np.einsum("ij,ij->i", arr, arr)
        if np.any(row_mass > norm_sq * (1.0 + 1e-8) + 1e-15):
            raise ContractError(
                "coefficient rows exceed the member norm; inner products are inconsistent"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return int(self.entries.shape[0])

    @property
    def K(self) -> int:
        return int(self.entries.shape[1])


def _member_cells(family: PyramidFamily, N: int):
    """Yield each member's exact integrals over the N^d finest dyadic cells.

    Member j sits at 0-based grid position (l_1, ..., l_d) and is supported
    on prod_i [l_i/k, (l_i+1)/k]; only the cells meeting that block are
    integrated, all at once, and every other cell is 0.
    """
    first = np.arange(family.k) * N // family.k
    stop = -((-np.arange(1, family.k + 1) * N) // family.k)
    edges = [np.arange(a, b + 1) / N for a, b in zip(first, stop)]
    for j, position in enumerate(np.ndindex(*(family.k,) * family.d)):
        cells = np.zeros((N,) * family.d)
        block = tuple(slice(first[l], stop[l]) for l in position)
        cells[block] = pyramid_grid_integrals(
            family.centers[j], family.bandwidth, [edges[l] for l in position]
        )
        yield cells


_TRANSFORM_COPIES = 4


def coefficient_work_bytes(m: int, K: int, cells: int) -> int:
    """Peak working bytes of :func:`compute_coefficients` on a Haar basis.

    Two m x K float64 matrices (the entries and the copy that
    :class:`CoefficientMatrix` keeps), plus the transform temporaries of
    one member at a time: its cell integrals, the analysis output, the
    pairwise sums and differences and the permuted copy, each at most
    ``cells`` = N^d floats.
    """
    return 8 * (2 * m * K + _TRANSFORM_COPIES * cells)


def compute_coefficients(family: PyramidFamily, basis, K: int) -> CoefficientMatrix:
    """Inner products of every family member against the first K basis functions.

    The coefficients are exact: each member's integrals over the finest
    dyadic cells come from the vertex formula, and the fast Haar transform
    of ``basis.analyze`` turns them into coefficients.
    """
    if family.d != basis.d:
        raise ContractError(f"family dimension {family.d} does not match basis dimension {basis.d}")
    if not 1 <= K <= basis.size:
        raise ContractError(f"need 1 <= K <= {basis.size}, got K = {K}")
    entries = np.zeros((family.m, K))
    for j, cells in enumerate(_member_cells(family, basis.cells_per_axis)):
        entries[j] = basis.analyze(cells)[:K]
    return CoefficientMatrix(entries, basis.basis_id, family)


def tk_values(coeffs: CoefficientMatrix) -> np.ndarray:
    """Family-averaged squared coefficients T_k = (1/m) sum_j <f_j, phi_k>^2."""
    return (coeffs.entries**2).mean(axis=0)


def tk_matched_spectrum(coeffs: CoefficientMatrix, *, scale: float = 1.0) -> Spectrum:
    """Prior spectrum lambda_k = scale * T_k on the coefficient basis.

    Matching the prior variances to the family's coordinate masses is the
    natural favorable tuning: coordinates the family never excites get
    zero prior mass, so none of the posterior variance budget is wasted.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise DomainError("scale must be positive and finite")
    return Spectrum(scale * tk_values(coeffs), coeffs.basis_id)


def risk_lower_bound(coeffs: CoefficientMatrix, n: float) -> float:
    """sum_k T_k AND 1/n: a floor on the worst-case risk over the family.

    For every prior spectrum on this basis the worst-case posterior-mean
    risk over the family is at least half this value: the coordinate
    contribution (1-a)^2 T + a^2/n is minimized at a = nT/(1+nT), where
    it equals T/(1+nT) >= (T AND 1/n)/2.  The full (unhalved) value is a
    valid floor except against priors tuned near that per-coordinate
    minimizer, a regime spanned by :func:`tk_matched_spectrum`; generic
    spectra sit above it because any coordinate shrunk too much or too
    little contributes its excess in full.
    """
    if not (n > 0 and math.isfinite(n)):
        raise DomainError("sample size n must be positive and finite")
    return float(np.minimum(tk_values(coeffs), 1.0 / n).sum())


def member_risks(spectrum: Spectrum, entries, n: float, norm_sq: float):
    """(risks, tails): the exact risk of the posterior mean at each row's full truth.

    Each row holds the first K coefficients of a truth of squared norm
    ``norm_sq``.  The posterior mean lives in the K-coordinate span, so
    the tail max(norm_sq - ||row||^2, 0) adds to the in-span risk as bias.
    """
    # ||row||^2 as BLAS dots of at most 8192 terms: exactly row @ row for
    # short rows, while OpenBLAS threads longer dots, which cost 6-8 ms a
    # call on a 2-vCPU VM and makes the last bits depend on the thread count
    mass = [sum(p @ p for p in np.split(row, range(8192, row.size, 8192))) for row in entries]
    tails = np.maximum(norm_sq - np.array(mass), 0.0)
    return exact_risks(spectrum, entries, n, basis_id=spectrum.basis_id) + tails, tails


def worst_member(risks) -> int:
    """Lowest index whose risk is within a relative 1e-12 of the largest.

    The grid's symmetry gives many members equal risks up to rounding, so
    a plain argmax would let rounding noise choose among them.
    """
    risks = np.asarray(risks, dtype=float)
    return int(np.flatnonzero(risks >= risks.max() * (1.0 - 1e-12))[0])


def grid_target(d: int, n: float) -> float:
    """The continuous risk-balancing grid count (r_d n)^{1/(2d+2)}."""
    if d < 1:
        raise DomainError("dimension d must be at least 1")
    if not (n >= 1 and math.isfinite(n)):
        raise DomainError("sample size n must be at least 1")
    exponent = 1.0 / (2.0 * d + 2.0)
    return math.exp((_log_half_inverse_factorial(d) + math.log(n)) * exponent)


def choose_grid(d: int, n: float) -> tuple[int, int]:
    """Risk-balancing grid count: k = ceil((r_d n)^{1/(2d+2)}), m = k^d.

    With this choice (and n >= 1/r_d) the common member norm is wedged
    between (1/2)^{2d+2} m/n and m/n, which is the regime where the
    coordinatewise floor saturates at order m/n.
    """
    t = grid_target(d, n)
    # ceil with a 4-ulp guard so exactly-integer targets (up to log/exp
    # rounding) do not spill to the next grid size
    k = max(1, math.ceil(t * (1.0 - 4e-16)))
    m = k**d
    if m > MAX_FAMILY_SIZE:
        raise DomainError(f"family size k^d = {m} exceeds the supported limit {MAX_FAMILY_SIZE}")
    return k, m


class LowerBoundConstants(NamedTuple):
    """Closed-form constants in the worst-case risk lower bounds.

    ``probability_constant`` scales the radius that the posterior cannot
    contract below (in-probability statement); ``mean_constant`` scales
    the floor on the expected posterior-mean error; ``rate_exponent`` is
    the shared n-exponent of both radii.
    """

    probability_constant: float
    mean_constant: float
    rate_exponent: float


def lower_bound_constants(d: int) -> LowerBoundConstants:
    """Evaluate (C_d, C_d', (2+d)/(4+4d)) exactly.

    C_d = r_d^{d/(4+4d)} / (10 2^d) and C_d' = r_d^{d/(4+4d)} / 2^{d+1}
    with r_d = 1/(2(d+2)!); their ratio is 1/5 for every d.
    """
    if d < 1:
        raise DomainError("dimension d must be at least 1")
    power = d / (4.0 + 4.0 * d)
    core = math.exp(power * _log_half_inverse_factorial(d))
    probability_constant = core / (10.0 * 2.0**d)
    mean_constant = core / (2.0 ** (d + 1))
    rate_exponent = (2.0 + d) / (4.0 + 4.0 * d)
    return LowerBoundConstants(probability_constant, mean_constant, rate_exponent)


def n_threshold(d: int, delta: float) -> float:
    """Smallest sample-size scale at which the contraction floor is active.

    Evaluates 2 (d+2)! 2^{(2d+2)^2 / d} [32 log(5 / (1 - sqrt(1-4 delta)))]^{(d+2)/d}
    in log space; returns inf when the value overflows a float.
    """
    if d < 1:
        raise DomainError("dimension d must be at least 1")
    if not 0.0 < delta < 0.25:
        raise DomainError("delta must lie strictly between 0 and 1/4")
    log_factor = math.log(32.0 * math.log(5.0 / (1.0 - math.sqrt(1.0 - 4.0 * delta))))
    log_value = (
        -_log_half_inverse_factorial(d)
        + (2.0 * d + 2.0) ** 2 / d * math.log(2.0)
        + (d + 2.0) / d * log_factor
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def mean_risk_floor(d: int, n: float) -> float:
    """The squared-risk floor C_d'^2 n^{-(2+d)/(2+2d)} on the expected error.

    Valid once n clears :func:`n_threshold` for some admissible delta;
    this helper just evaluates the envelope.
    """
    if not (n >= 1 and math.isfinite(n)):
        raise DomainError("sample size n must be at least 1")
    constants = lower_bound_constants(d)
    return constants.mean_constant**2 * float(n) ** (-(2.0 + d) / (2.0 + 2.0 * d))
