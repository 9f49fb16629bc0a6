"""Tensor-product Haar wavelets, wavelet series priors, and a sharp risk bound.

The univariate Haar system on [0, 1] consists of the scaling function
(constant 1, indexed by level -1) and, for each level j >= 0, the 2^j
translates psi_{j,t}(u) = 2^{j/2} (1 on [t 2^{-j}, (t + 1/2) 2^{-j}),
-1 on [(t + 1/2) 2^{-j}, (t + 1) 2^{-j})).  Tensor products over the d
axes give an orthonormal basis of L^2[0,1]^d whose members are constant
on dyadic panels, so inner products against piecewise polynomial
functions are exact finite sums.

A mean-zero Gaussian wavelet series prior assigns each retained index an
independent N(0, lambda_gamma) coefficient.  Whatever the profile of the
lambda_gamma, the posterior-mean risk at a fixed truth f is at least half
of

    sum_gamma  <f, psi_gamma>^2 AND 1/n,

the single-function risk floor computed by
:func:`single_function_risk_bound`.  The factor half is sharp only for
priors tuned coordinate by coordinate to the truth; against the priors
actually constructed here, whose variance is constant on each resolution
group, :func:`level_profile_risk_infimum` evaluates the exact attainable
infimum, which for truths with spread-out within-group energy exceeds
the full unhalved floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, DomainError
from .integrate import PiecewisePolynomial
from .integrate import ridge_box_integral  # noqa: F401  rebound here by the benchmark's tracer (bench/layers.py)
from .sequence_core import Spectrum, TruthCoefficients

__all__ = [
    "WaveletIndex",
    "HaarTensorBasis",
    "haar_tensor_basis",
    "WaveletPrior",
    "wavelet_prior_preset",
    "sample_wavelet_prior",
    "single_function_risk_bound",
    "level_profile_risk_infimum",
    "wavelet_prior_rate",
    "SawtoothSurrogate",
]

SCALING_LEVEL = -1


@dataclass(frozen=True, order=True)
class WaveletIndex:
    """Index of one tensor Haar function: a (level, translate) pair per axis.

    Level -1 denotes the univariate scaling function (translate must be 0);
    level j >= 0 admits translates 0 .. 2^j - 1.
    """

    axes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.axes) < 1:
            raise DomainError("a wavelet index needs at least one axis")
        for level, translate in self.axes:
            if level < SCALING_LEVEL:
                raise DomainError(f"wavelet level must be >= {SCALING_LEVEL}, got {level}")
            if level == SCALING_LEVEL:
                if translate != 0:
                    raise DomainError("the scaling function admits only translate 0")
            elif not 0 <= translate < 2**level:
                raise DomainError(
                    f"translate {translate} out of range for level {level} (need 0..{2**level - 1})"
                )

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def resolution(self) -> int:
        """Finest univariate level appearing in the tuple (-1 if all scaling)."""
        return max(level for level, _ in self.axes)


def _axis_panels(level: int, translate: int) -> list[tuple[float, float, float]]:
    """Nonzero constant pieces (lo, hi, value) of one univariate factor."""
    if level == SCALING_LEVEL:
        return [(0.0, 1.0, 1.0)]
    width = 0.5**level
    lo = translate * width
    amp = 2.0 ** (level / 2.0)
    return [(lo, lo + width / 2.0, amp), (lo + width / 2.0, lo + width, -amp)]


def _axis_values(level: int, translate: int, u: np.ndarray) -> np.ndarray:
    """Evaluate one univariate factor at points u in [0, 1].

    The right endpoint u = 1 is folded into the last dyadic cell so the
    function is defined on the closed cube.
    """
    if level == SCALING_LEVEL:
        return np.ones_like(u)
    scaled = u * 2.0**level
    cell = np.minimum(np.floor(scaled), 2**level - 1)
    frac = scaled - cell
    amp = 2.0 ** (level / 2.0)
    values = np.where(frac < 0.5, amp, -amp)
    return np.where(cell == translate, values, 0.0)


def _univariate_indices(J: int) -> list[tuple[int, int]]:
    """(level, translate) of each univariate Haar function through level J.

    The order (-1, 0), (0, 0), (1, 0), (1, 1), (2, 0), ... is the basis
    order on one axis and the output layout of :func:`_haar_analysis`.
    """
    return [(SCALING_LEVEL, 0)] + [(j, t) for j in range(J + 1) for t in range(2**j)]


def _haar_analysis(values: np.ndarray, axis: int) -> np.ndarray:
    """One-dimensional Haar analysis of finest-cell integrals along ``axis``.

    Mallat's pyramid algorithm: adjacent pairs of level-(j+1) cell sums add
    to the level-j sums, and their differences scaled by 2^{j/2} are the
    level-j detail coefficients, stored at positions 2^j .. 2^{j+1} - 1.
    The total integral, the scaling coefficient, lands at position 0.
    """
    values = np.moveaxis(values, axis, -1)
    out = np.empty_like(values)
    sums = values
    while sums.shape[-1] > 1:
        half = sums.shape[-1] // 2
        even, odd = sums[..., 0::2], sums[..., 1::2]
        out[..., half : 2 * half] = 2.0 ** ((half.bit_length() - 1) / 2.0) * (even - odd)
        sums = even + odd
    out[..., 0] = sums[..., 0]
    return np.moveaxis(out, -1, axis)


@dataclass(frozen=True)
class HaarTensorBasis:
    """All tensor Haar functions on [0,1]^d through univariate level J.

    Indices are ordered coarse to fine: primarily by resolution (the finest
    level in the tuple), then lexicographically, so truncating the sequence
    always keeps a complete multiresolution prefix.  The univariate count
    through level J is 2^{J+1}; the tensor count is 2^{d (J+1)}.

    Every member is constant on the N^d finest dyadic cells, N = 2^{J+1},
    so :meth:`analyze` turns a function's exact cell integrals into its
    exact coefficients.  Computations read the members from the integer
    arrays ``order`` and ``groups``; the ``indices`` tuple of
    :class:`WaveletIndex` objects, for evaluation and exact pairwise
    inner products, is built only on first access.
    """

    d: int
    level: int

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension d must be at least 1")
        if self.level < 0:
            raise DomainError("max level J must be at least 0")

    @property
    def size(self) -> int:
        return 2 ** (self.d * (self.level + 1))

    @property
    def cells_per_axis(self) -> int:
        """N = 2^{J+1}: the finest dyadic cells along each axis."""
        return 2 ** (self.level + 1)

    @cached_property
    def _resolution(self) -> np.ndarray:
        """Resolution of the member at each flat position of the (N,)*d tensor layout."""
        levels = np.array([level for level, _ in _univariate_indices(self.level)], dtype=np.int8)
        resolution = levels
        for _ in range(self.d - 1):
            resolution = np.maximum.outer(resolution, levels)
        return resolution.ravel()

    @cached_property
    def order(self) -> np.ndarray:
        """Flat positions, in the (N,)*d tensor layout, of the members in basis order.

        Position (u_1, ..., u_d) holds the product of the univariate
        functions at positions u_i; row-major order of the positions is the
        lexicographic order of the index tuples, so a stable sort on
        resolution gives the coarse-to-fine basis order.
        """
        order = np.argsort(self._resolution, kind="stable")
        order.setflags(write=False)
        return order

    @cached_property
    def groups(self) -> np.ndarray:
        """Resolution group max(resolution, 0) of each member, in basis order.

        Nondecreasing with values 0 .. J: the all-scaling member shares
        group 0 with the level-0 members.
        """
        groups = np.maximum(self._resolution[self.order], 0).astype(np.intp)
        groups.setflags(write=False)
        return groups

    @cached_property
    def indices(self) -> tuple[WaveletIndex, ...]:
        univariate = _univariate_indices(self.level)
        positions = np.unravel_index(self.order, (self.cells_per_axis,) * self.d)
        return tuple(
            WaveletIndex(tuple(univariate[u] for u in cell))
            for cell in zip(*(axis.tolist() for axis in positions))
        )

    def analyze(self, cells) -> np.ndarray:
        """Exact coefficients, in basis order, from integrals over the finest cells.

        ``cells`` has shape (..., N, ..., N): its last d axes hold a
        function's integral over each finest dyadic cell (N = 2^{J+1} per
        axis), and any leading axes index functions.  The 1-D Haar analysis
        runs along each of the d axes (the fast wavelet transform), then the
        result is permuted into basis order; the output has shape
        (..., size).
        """
        cells = np.asarray(cells, dtype=float)
        shape = (self.cells_per_axis,) * self.d
        if cells.shape[cells.ndim - self.d :] != shape:
            raise ContractError(f"cell integrals must end in shape {shape}, got {cells.shape}")
        lead = cells.shape[: cells.ndim - self.d]
        for axis in range(len(lead), cells.ndim):
            cells = _haar_analysis(cells, axis)
        return cells.reshape(lead + (self.size,))[..., self.order]

    @property
    def basis_id(self) -> str:
        return f"haar{self.d}d_J{self.level}"

    def _check_member(self, index: WaveletIndex) -> None:
        if index.d != self.d:
            raise ContractError(f"index dimension {index.d} does not match basis dimension {self.d}")
        if index.resolution > self.level:
            raise ContractError(f"index resolution {index.resolution} exceeds basis level {self.level}")

    def evaluate(self, index: WaveletIndex, x) -> np.ndarray:
        """Evaluate psi_gamma at points x of shape (npts, d) or (d,)."""
        self._check_member(index)
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.d:
            raise DomainError(f"points must have {self.d} columns, got {pts.shape[1]}")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise DomainError("evaluation points must lie in the unit cube")
        values = np.ones(pts.shape[0])
        for axis, (level, translate) in enumerate(index.axes):
            values *= _axis_values(level, translate, pts[:, axis])
        return values if np.ndim(x) > 1 else values.reshape(-1)

    def constant_panels(self, index: WaveletIndex):
        """Yield (lo, hi, value) boxes covering the support of psi_gamma.

        The function equals ``value`` on each box and 0 elsewhere; there
        are at most 2^d boxes.  Exact integration against any integrable
        function reduces to a sum of box integrals.
        """
        self._check_member(index)
        per_axis = [_axis_panels(level, translate) for level, translate in index.axes]
        for combo in itertools.product(*per_axis):
            lo = np.array([seg[0] for seg in combo])
            hi = np.array([seg[1] for seg in combo])
            value = math.prod(seg[2] for seg in combo)
            yield lo, hi, value

    def pair_inner(self, first: WaveletIndex, second: WaveletIndex) -> float:
        """Exact L^2 inner product <psi_a, psi_b>, a product of axis integrals."""
        self._check_member(first)
        self._check_member(second)
        total = 1.0
        for (la, ta), (lb, tb) in zip(first.axes, second.axes):
            axis_ip = 0.0
            for alo, ahi, av in _axis_panels(la, ta):
                for blo, bhi, bv in _axis_panels(lb, tb):
                    overlap = min(ahi, bhi) - max(alo, blo)
                    if overlap > 0.0:
                        axis_ip += av * bv * overlap
            total *= axis_ip
            if total == 0.0:
                return 0.0
        return total


def haar_tensor_basis(d: int, J: int) -> HaarTensorBasis:
    """Build the tensor Haar basis on [0,1]^d complete through level J."""
    return HaarTensorBasis(d, J)


@dataclass(frozen=True)
class WaveletPrior:
    """Gaussian wavelet series prior: independent N(0, lambda_gamma) weights.

    ``variances`` holds lambda_gamma for every basis member in basis order;
    a member with variance 0 is not retained and gets prior mass at zero
    exactly.
    """

    basis: HaarTensorBasis
    variances: np.ndarray

    def __post_init__(self):
        variances = np.array(self.variances, dtype=float)
        if variances.shape != (self.basis.size,):
            raise ContractError(
                f"expected {self.basis.size} prior variances for {self.basis.basis_id}, "
                f"got shape {variances.shape}"
            )
        if not np.all(np.isfinite(variances)) or np.any(variances < 0.0):
            raise DomainError("prior variances must be finite and nonnegative")
        if not np.any(variances > 0.0):
            raise DomainError("a wavelet prior needs at least one retained index")
        variances.setflags(write=False)
        object.__setattr__(self, "variances", variances)

    def to_spectrum(self) -> Spectrum:
        """Eigenvalue vector in basis order, zero off the retained set."""
        return Spectrum(self.variances, self.basis.basis_id)


def wavelet_prior_preset(
    basis: HaarTensorBasis, *, tau: float = 1.0, alpha: float = 1.0
) -> WaveletPrior:
    """Smoothness-alpha prior: lambda_gamma = tau 2^{-l (2 alpha + d)}.

    l is the index's resolution group, with the all-scaling index placed at l = 0.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise DomainError("scale tau must be positive and finite")
    if alpha <= 0:
        raise DomainError("smoothness alpha must be positive")
    return WaveletPrior(basis, tau * 2.0 ** (-basis.groups * (2.0 * alpha + basis.d)))


def sample_wavelet_prior(prior: WaveletPrior, rng: np.random.Generator) -> TruthCoefficients:
    """Draw sqrt(lambda_gamma) xi_gamma with iid standard normal xi_gamma.

    Returns the coefficient vector in basis order (zero off the retained
    set), ready for risk evaluation in the matching sequence model.
    """
    xi = rng.standard_normal(prior.basis.size)
    return TruthCoefficients(np.sqrt(prior.variances) * xi, prior.basis.basis_id)


def single_function_risk_bound(coefficients, n: float) -> float:
    """sum_gamma <f, psi_gamma>^2 AND 1/n: the single-function risk floor.

    Whatever variances a Gaussian series prior puts on this basis, the
    posterior-mean risk at the function with these coefficients is at
    least HALF this value: per coordinate the risk (1-a)^2 c^2 + a^2/n is
    minimized over shrinkage weights at c^2/(1 + n c^2), which sits within
    a factor 2 of c^2 AND 1/n (equality at n c^2 = 1).  Generic priors sit
    above the full unhalved sum; a prior can dip below it only by pushing
    every weight toward its coordinatewise adversarial value, e.g. nearly
    interpolating (a ~ 1) a function whose coefficients all satisfy
    c^2 >= 1/n.  Accepts a TruthCoefficients or a raw vector.
    """
    if not (n > 0 and math.isfinite(n)):
        raise DomainError("sample size n must be positive and finite")
    theta = coefficients.theta if isinstance(coefficients, TruthCoefficients) else np.asarray(coefficients, dtype=float)
    return float(np.sum(np.minimum(theta**2, 1.0 / n)))


def level_profile_risk_infimum(coefficients, basis: HaarTensorBasis, n: float) -> float:
    """Exact risk infimum over priors constant on each resolution group.

    A level-profile prior gives every index of resolution group
    l = max(resolution, 0) the same variance, as wavelet_prior_preset
    does for any (tau, alpha).  All such priors shrink a whole group by a
    common weight a in [0, 1], so the group's risk (1-a)^2 S + a^2 L / n
    (S the truth energy in the group, L the group size) is minimized at
    a = nS / (nS + L) with value S (L/n) / (S + L/n), and the minima add
    across groups.

    Truths whose within-group energy is spread across many indices, or
    concentrated far above the noise level 1/n, make this infimum exceed
    the unhalved floor of :func:`single_function_risk_bound`; whenever
    that holds, no level-profile prior can dip below the floor, even
    though per-index priors matched to the truth coordinate by coordinate
    always can.  Accepts a TruthCoefficients or a raw vector in basis
    order.
    """
    if not (n > 0 and math.isfinite(n)):
        raise DomainError("sample size n must be positive and finite")
    if isinstance(coefficients, TruthCoefficients):
        if coefficients.basis_id != basis.basis_id:
            raise ContractError(
                f"coefficients carry basis {coefficients.basis_id!r}, expected {basis.basis_id!r}"
            )
        theta = coefficients.theta
    else:
        theta = np.asarray(coefficients, dtype=float)
    if theta.shape != (basis.size,):
        raise ContractError(f"expected {basis.size} coefficients, got {theta.shape}")
    total = 0.0
    for level in range(basis.level + 1):
        members = basis.groups == level
        energy = float(np.sum(theta[members] ** 2))
        size = float(np.count_nonzero(members))
        if energy > 0.0:
            total += energy * (size / n) / (energy + size / n)
    return total


def wavelet_prior_rate(d: int, n: float) -> float:
    """The n^{-1/(2+d)} risk scale forced on smoothness-matched series priors."""
    if d < 1:
        raise DomainError("dimension d must be at least 1")
    if not (n >= 1 and math.isfinite(n)):
        raise DomainError("sample size n must be at least 1")
    return float(n) ** (-1.0 / (2.0 + d))


@dataclass(frozen=True)
class SawtoothSurrogate:
    """g(x) = distance from x_1 + ... + x_d to the lattice 2^{-level} Z.

    A concrete additive ridge function with fine-scale oscillation: its
    profile is 1-Lipschitz, bounded by 2^{-level-1}, and crosses zero on
    every lattice hyperplane.  Serves as an explicit, fully computable
    stand-in for adversarial fine-scale constructions when exploring how
    much coefficient mass a ridge function places at high frequencies.
    """

    d: int
    level: int

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension d must be at least 1")
        if self.level < 0:
            raise DomainError("sawtooth level must be at least 0")

    @property
    def period(self) -> float:
        return 0.5**self.level

    def _profile(self) -> PiecewisePolynomial:
        """The univariate sawtooth s -> dist(s, period Z) on [0, d], piece by piece.

        Input of the ridge formula of :func:`ridge_box_integral`, which the
        tests keep as an independent oracle for the closed forms below.
        """
        half = self.period / 2.0
        teeth = int(math.ceil(self.d / half))
        xs = [i * half for i in range(teeth + 1)]
        ys = [0.0 if i % 2 == 0 else half for i in range(teeth + 1)]
        return PiecewisePolynomial.from_linear_breakpoints(xs, ys)

    def evaluate(self, x) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if pts.shape[1] != self.d:
            raise DomainError(f"points must have {self.d} columns, got {pts.shape[1]}")
        s = pts.sum(axis=1)
        rem = np.mod(s, self.period)
        values = np.minimum(rem, self.period - rem)
        return values if np.ndim(x) > 1 else values.reshape(-1)

    def haar_coefficients(self, basis: HaarTensorBasis) -> np.ndarray:
        """Exact inner products <g, psi_gamma> for every basis index.

        The basis turns g's integrals over the N^d finest cells (side
        h = 1/N) into coefficients.  A cell's integral depends only on the
        sum t of its indices, and only through t mod p, p = P/h, because
        the profile has period P.  On [0, infinity) the profile is
        sum_j w_j (s - x_j)_+ with kinks x_j = j P/2, w_0 = 1 and
        w_j = 2 (-1)^j after that, so the vertex formula with beta = 1
        gives the cell integral

            h^(d+1)/(d+1)! sum_j w_j sum_{r=0..d} C(d, r) (-1)^(d-r) (t + r - j p/2)_+^(d+1)

        for each residue t in 0 .. p-1, from the kinks up to (p + d) h.
        The double sum is an integer, exact in int64 (its terms stay below
        (p + d)^(d+1), far under 2^63 for any N^d cells that fit in memory),
        and the division by (d+1)! is the only rounding, so each entry is
        the correctly rounded exact value.  When P <= h the x_1 side of every cell spans
        whole periods, and every cell integrates to h^d P/4.
        """
        if basis.d != self.d:
            raise ContractError(f"basis dimension {basis.d} does not match surrogate dimension {self.d}")
        d, N = self.d, basis.cells_per_axis
        h = 1.0 / N
        p = max(N >> self.level, 1)
        if p == 1:
            residues = np.array([h**d * self.period / 4.0])
        else:
            t = np.arange(p, dtype=np.int64)
            total = np.zeros(p, dtype=np.int64)
            for j in range(2 * (p + d) // p + 1):
                weight = 1 if j == 0 else 2 * (-1) ** j
                for r in range(d + 1):
                    vertex = np.maximum(t + (r - j * p // 2), 0) ** (d + 1)
                    total += weight * math.comb(d, r) * (-1) ** (d - r) * vertex
            residues = total * h ** (d + 1) / math.factorial(d + 1)
        table = np.resize(residues, d * (N - 1) + 1)
        return basis.analyze(table[sum(np.indices((N,) * d, sparse=True))])

    def norm_sq(self) -> float:
        """Exact squared L^2 norm of g over the unit cube: P^2/12.

        The integral over x_1 in [0, 1] covers 2^level whole periods, on
        which the squared triangle wave of height P/2 has mean (P/2)^2/3.
        """
        return self.period**2 / 12.0
