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
spectrum on that basis.  The risk-balancing grid target, the closed-form
constants and the contraction sample-size threshold live here too, with
the closed-form caps that tie the exact risk mu_n^2 = E ||fbar_n - f0||^2
to the full posterior (the studies compute the mass they bound exactly):

- the squared error concentrates: P(||fbar_n - f0||^2 <= mu_n^2 / 4) is at
  most 4 exp(-n mu_n^2 / 32);
- Anderson's inequality transfers posterior mass to the mean:
  P(||fbar_n - f0|| >= 2 gamma) <= 2 sqrt(E Pi(||f - f0|| >= gamma | Y));
- combining the two floors the expected posterior mass outside radius
  mu_n / 4 by (1/4)(1 - 4 exp(-n mu_n^2 / 32))_+^2, and once
  n gamma^2 clears 32 log(5 / (1 - sqrt(1 - 4 delta))) the mass outside
  gamma/5 cannot drop below 1/4 - delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError, _check_count, _check_delta, _check_dimension
from .errors import _check_positive, _check_sample_size, _unit_cube_points
# adaptive_box_integral and pyramid_box_integral are no longer called here;
# they stay bound in this module because the benchmark's tracer rebinds
# them here (bench/layers.py).
from .integrate import (  # noqa: F401
    adaptive_box_integral,
    pyramid_box_integral,
    pyramid_grid_integrals,
)
from .sequence_core import SparseRows, Spectrum

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
    "tk_matched_spectrum",
    "risk_lower_bound",
    "worst_member",
    "grid_target",
    "lower_bound_constants",
    "n_threshold",
    "mean_risk_floor",
    "concentration_bound",
    "anderson_transfer",
    "transfer_threshold",
    "contraction_mass_floor",
]

MAX_FAMILY_SIZE = 10_000_000


def _log_half_inverse_factorial(d: int) -> float:
    return -math.log(2.0) - math.lgamma(d + 3)


@dataclass(frozen=True)
class PyramidFamily:
    """The m = k^d disjoint-support pyramids on the (l - 1/2)/k grid."""

    d: int
    k: int
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dimension(self.d)
        _check_count(self.k, "grid count k", 1)
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
    pts = _unit_cube_points(x, family.d)
    centers = family.centers[members][..., None, :] if members.ndim else family.centers[members]
    # the l1 distance added up axis by axis, as NumPy sums an axis shorter than 8
    distance = sum(np.abs(pts[..., i] - centers[..., i]) for i in range(family.d))
    values = np.maximum(family.bandwidth - distance, 0.0)
    return values if np.ndim(x) > 1 or members.ndim else float(values[0])


def pyramid_norm_sq(d: int, k: int) -> float:
    """Common squared L^2 norm of every family member: k^{-(d+2)}/(2(d+2)!)."""
    _check_dimension(d)
    _check_count(k, "grid count k", 1)
    return 1 / (2 * math.factorial(d + 2)) * float(k) ** -(d + 2)


@dataclass(frozen=True)
class CoefficientMatrix(SparseRows):
    """All inner products <f_j, phi_k> on the first K basis functions, one row per member.

    Each member's row keeps only its nonzero coefficients, at their basis
    positions (:class:`SparseRows`: ``values``, ``columns``,
    ``row_starts``).  Row sums of squares may not exceed the common member
    norm (orthonormal coefficients obey the Bessel inequality); construction
    enforces this with a small rounding allowance.  ``tk`` holds
    T_k = (1/m) sum_j <f_j, phi_k>^2, read-only, with the bits of the dense
    column mean (entries ** 2).mean(axis=0): for K >= 2 NumPy adds each
    column's squares in row order, as one ``np.bincount`` of the squared
    values over their columns does; a lone column (K = 1) it sums pairwise,
    and there the row masses are that column's squares, averaged as an
    (m, 1) column.
    """

    family: PyramidFamily
    tk: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if self.m != self.family.m:
            raise ContractError(f"coefficient rows {self.m} do not match family size {self.family.m}")
        norm_sq = pyramid_norm_sq(self.family.d, self.family.k)
        if np.any(self.row_mass > norm_sq * (1.0 + 1e-8) + 1e-15):
            raise ContractError(
                "coefficient rows exceed the member norm; inner products are inconsistent"
            )
        if self.K == 1:
            tk = np.mean(self.row_mass[:, None], axis=0)
        else:
            tk = np.bincount(self.columns, np.square(self.values), minlength=self.K) / self.m
        tk.setflags(write=False)
        object.__setattr__(self, "tk", tk)


def _blocks(k: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, stop): grid position l's support [l/k, (l+1)/k] meets cells first_l .. stop_l - 1 of N."""
    return np.arange(k) * N // k, -((-np.arange(1, k + 1) * N) // k)


def _window_plan(k: int, N: int) -> tuple[int, int]:
    """(T, W): the k per-axis windows are aligned to 2^T and W cells wide.

    Aligned to 2^T, position l's block spans 2^T (ceil((l+1) r) - floor(l r))
    cells, r = N / (k 2^T) = p/q in lowest terms; that is 2^T ceil(f + r)
    with f the fractional part of l r, widest at f = (q - 1)/q, which some
    l < q <= k reaches.  So W = 2^T ceil((p + q - 1)/q) without a pass over
    the positions.  The T kept has the fewest cells plus coefficients per
    window, W + (N/2^T + W - W/2^T), the largest T on a tie.
    """
    best = None
    for T in range(N.bit_length()):
        g = math.gcd(N >> T, k)
        p, q = (N >> T) // g, k // g
        width = (p + 2 * q - 2) // q << T
        cost = 2 * width + (N >> T) - (width >> T)
        if best is None or cost <= best[0]:
            best = (cost, T, width)
    return best[1], best[2]


def _windows(k: int, N: int) -> tuple[np.ndarray, int]:
    """Starts and common width W of the k per-axis cell windows of the family.

    Each support block (:func:`_blocks`) widened to cells aligned to 2^T
    (:func:`_window_plan`); a window that would run past cell N - 1 is
    pulled back inside.
    """
    T, width = _window_plan(k, N)
    first, _ = _blocks(k, N)
    return np.minimum(first >> T << T, N - width), width


_STACK_COPIES = 6
_TABLE_COPIES = 4
_FIXED_BYTES = 2**16  # array headers and other small objects
# arrays of K beside the store: T_k and its bincount, then the spectrum,
# the shrinkage, the worst row and its error law and scale groups of the
# passes a grid point makes over the store
_K_VECTORS = 10


def coefficient_work_bytes(d: int, k: int, level: int, K: int) -> int:
    """Peak working bytes of :func:`compute_coefficients` for k^d members on the level basis.

    The basis's ``order`` and ``rank``, built on first use with their sort
    and index temporaries, 24 bytes a member of the N^d = size basis; then
    the larger of two phases, and ``_FIXED_BYTES``.  The stacked pass holds
    at most ``_STACK_COPIES`` float64 or index arrays the size of the
    largest stack, k^d P^d with P the larger of the W + 2 vertex points and
    the D coefficients per window (:func:`_window_plan`,
    :meth:`HaarTensorBasis.analyze_windows`), and at most ``_TABLE_COPIES``
    per-axis tables of k P entries for each axis, which only at d = 1 are as
    large as the stack; cutting the window stack to the store fits in those
    copies.  The store then holds at most k^d min(K, D^d) nonzeros, a value
    and a column each; building :class:`CoefficientMatrix` adds one square
    and one column copy per nonzero (``np.bincount`` copies read-only
    input) and a few arrays of m, and ``_K_VECTORS`` arrays of K: T_k and
    what a grid point's passes over the store hold beside it, which need
    no more per nonzero than one product.  Arithmetic only:
    no array the size of k or N is made, so absurd sizes are priced at once.
    """
    N, m = 2 ** (level + 1), k**d
    T, width = _window_plan(k, N)
    coefficients = (N >> T) + width - (width >> T)
    per_axis = k * max(width + 2, coefficients)
    stack = _STACK_COPIES * per_axis**d + _TABLE_COPIES * d * per_axis
    store = 4 * m * min(K, coefficients**d) + _K_VECTORS * K + 5 * m
    return 8 * (3 * N**d + max(stack, store)) + _FIXED_BYTES


def compute_coefficients(family: PyramidFamily, basis, K: int) -> CoefficientMatrix:
    """Inner products of every family member against the first K basis functions.

    The coefficients are exact and come from one stacked pass over all
    members.  Along each axis, grid position l gets a window of cells
    aligned to a power of two that covers its support block
    (:func:`_windows`).  The vertex formula gives every member's integrals
    over the cells of its window box (:func:`pyramid_grid_integrals` on the
    stacked per-axis tables), and the windowed fast Haar transform
    (``basis.analyze_windows``) turns them into the coefficients the
    windows reach.  Member (l_1, ..., l_d) is row l_1 k^{d-1} + ... + l_d,
    like the centers; it keeps, in its window's order, those coefficients
    that are not 0 and sit at a basis position below K.  Every other
    coefficient of the member is 0, and each kept value has the bits of the
    dense transform of the member's N^d cell integrals.  No m x K array is
    made.
    """
    if family.d != basis.d:
        raise ContractError(f"family dimension {family.d} does not match basis dimension {basis.d}")
    if not 1 <= K <= basis.size:
        raise ContractError(f"need 1 <= K <= {basis.size}, got K = {K}")
    # the stacked pass's arrays are freed before the matrix's T_k pass
    return CoefficientMatrix(*_stacked_store(family, basis, K), K, basis.basis_id, family)


def _stacked_store(family: PyramidFamily, basis, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only (values, columns, row_starts) of :func:`compute_coefficients`."""
    d, k, N = family.d, family.k, basis.cells_per_axis
    starts, width = _windows(k, N)
    axis_centers = family.centers[:k, -1]  # the k center coordinates along every axis
    edges = (starts[:, None] + np.arange(width + 1)) / N
    cells = pyramid_grid_integrals([axis_centers] * d, family.bandwidth, [edges] * d)
    # a cell beyond the support block is 0; the formula can leave a rounding
    # residue there, from a support edge one ulp off the cell edge
    first, stop = _blocks(k, N)
    cell = starts[:, None] + np.arange(width)
    inside = ((first[:, None] <= cell) & (cell < stop[:, None])).astype(float)
    for axis in range(d):
        shape = [1] * (2 * d)
        shape[2 * axis : 2 * axis + 2] = inside.shape
        cells *= inside.reshape(shape)
    values, positions = basis.analyze_windows(cells, starts)
    del cells
    # the (l_1, ..., l_d) axes ahead of the (u_1, ..., u_d) ones: a row of D^d per member
    axes = [*range(0, 2 * d, 2), *range(1, 2 * d, 2)]
    values = values.transpose(axes).reshape(family.m, -1)
    positions = positions.transpose(axes).reshape(family.m, -1)
    kept = values != 0.0
    if K < basis.size:
        kept &= positions < K
    row_starts = np.zeros(family.m + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(kept, axis=1), out=row_starts[1:])
    store = values[kept], positions[kept], row_starts
    for arr in store:
        arr.setflags(write=False)
    return store


def tk_matched_spectrum(coeffs: CoefficientMatrix, *, scale: float = 1.0) -> Spectrum:
    """Prior spectrum lambda_k = scale * T_k on the coefficient basis.

    Matching the prior variances to the family's coordinate masses is the
    natural favorable tuning: coordinates the family never excites get
    zero prior mass, so none of the posterior variance budget is wasted.
    """
    _check_positive(scale, "scale")
    return Spectrum(scale * coeffs.tk, coeffs.basis_id)


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
    _check_positive(n, "sample size n")
    return float(np.minimum(coeffs.tk, 1.0 / n).sum())


def worst_member(risks) -> int:
    """Lowest index whose risk is within a relative 1e-12 of the largest.

    The grid's symmetry gives many members equal risks up to rounding, so
    a plain argmax would let rounding noise choose among them.
    """
    risks = np.asarray(risks, dtype=float)
    return int(np.flatnonzero(risks >= risks.max() * (1.0 - 1e-12))[0])


def grid_target(d: int, n: float) -> float:
    """The continuous risk-balancing grid count (r_d n)^{1/(2d+2)}."""
    _check_dimension(d)
    _check_sample_size(n)
    exponent = 1.0 / (2.0 * d + 2.0)
    return math.exp((_log_half_inverse_factorial(d) + math.log(n)) * exponent)


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
    _check_dimension(d)
    power = d / (4.0 + 4.0 * d)
    core = math.exp(power * _log_half_inverse_factorial(d))
    probability_constant = core / (10.0 * 2.0**d)
    mean_constant = core / (2.0 ** (d + 1))
    rate_exponent = (2.0 + d) / (4.0 + 4.0 * d)
    return LowerBoundConstants(probability_constant, mean_constant, rate_exponent)


def n_threshold(d: int, delta: float) -> float:
    """Smallest sample-size scale at which the contraction floor is active.

    Evaluates 2 (d+2)! 2^{(2d+2)^2 / d} [:func:`transfer_threshold` (delta)]^{(d+2)/d}
    in log space; returns inf when the value overflows a float.
    """
    _check_dimension(d)
    log_value = (
        -_log_half_inverse_factorial(d)
        + (2.0 * d + 2.0) ** 2 / d * math.log(2.0)
        + (d + 2.0) / d * math.log(transfer_threshold(delta))
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
    _check_sample_size(n)
    constants = lower_bound_constants(d)
    return constants.mean_constant**2 * float(n) ** (-2.0 * constants.rate_exponent)


def concentration_bound(n: float, mu_sq: float) -> float:
    """4 exp(-n mu_sq / 32): cap on P(squared error <= quarter of its mean)."""
    _check_positive(n, "sample size n")
    _check_positive(mu_sq, "mean squared error mu_sq")
    return 4.0 * math.exp(-n * mu_sq / 32.0)


def anderson_transfer(v: float) -> float:
    """2 sqrt(v): cap on P(||fbar - f0|| >= 2 gamma) from posterior mass v."""
    if not 0.0 <= v <= 1.0:
        raise DomainError("expected posterior mass v must lie in [0, 1]")
    return 2.0 * math.sqrt(v)


def transfer_threshold(delta: float) -> float:
    """Smallest n gamma^2 at which mass outside gamma/5 must reach 1/4 - delta."""
    _check_delta(delta)
    # 1 - sqrt(1 - 4 delta) as 4 delta / (1 + sqrt(1 - 4 delta)): no cancellation as delta -> 0
    return 32.0 * math.log(5.0 / (4.0 * delta / (1.0 + math.sqrt(1.0 - 4.0 * delta))))


def contraction_mass_floor(n: float, mu_sq: float) -> float:
    """(1/4)(1 - 4 exp(-n mu_sq/32))_+^2: floor on mass outside radius mu/4.

    mu_sq is the exact posterior-mean risk at the truth; the floor is
    nontrivial once n mu_sq > 32 log 4.
    """
    base = 1.0 - concentration_bound(n, mu_sq)
    if base <= 0.0:
        return 0.0
    return 0.25 * base * base
