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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContractError, DomainError, _check_count, _check_dimension, _check_positive
from .errors import _check_sample_size, _unit_cube_points
from .integrate import ridge_box_integral  # noqa: F401  rebound here by the benchmark's tracer (bench/layers.py)
from .sequence_core import Spectrum, TruthCoefficients, _check_same_basis, _frozen_array

__all__ = [
    "HaarTensorBasis",
    "haar_tensor_basis",
    "WaveletPrior",
    "wavelet_prior_preset",
    "single_function_risk_bound",
    "level_profile_risk_infimum",
    "wavelet_prior_rate",
    "SawtoothSurrogate",
    "sawtooth_work_bytes",
]

SCALING_LEVEL = -1


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


def _univariate_index(u: int) -> tuple[int, int]:
    """(level, translate) of the univariate Haar function at axis position u.

    Positions 0, 1, 2, 3, 4, ... hold (-1, 0), (0, 0), (1, 0), (1, 1),
    (2, 0), ...: the basis order on one axis and the output layout of
    :func:`_pyramid`.  Position u >= 1 has level u.bit_length() - 1.
    """
    if u == 0:
        return SCALING_LEVEL, 0
    level = u.bit_length() - 1
    return level, u - 2**level


def _pyramid(sums: np.ndarray, out: np.ndarray, offset: int, steps: int, level: int) -> np.ndarray:
    """``steps`` steps of Mallat's pyramid along the last axis; returns the remaining sums.

    ``sums`` holds cell sums at level ``level`` + 1, finest first.  A step
    at level j adds the adjacent pairs into the level-j sums and writes
    their differences, scaled by 2^{j/2}, as the level-j details to
    ``out[..., offset + half : offset + 2 half]``, half the number of
    pairs.  With offset 0, all J + 1 steps over a 2^{J+1}-cell axis leave
    the total integral and put the details in the layout of
    :func:`_univariate_index`.
    """
    for step in range(steps):
        half = sums.shape[-1] // 2
        even, odd = sums[..., 0::2], sums[..., 1::2]
        details = out[..., offset + half : offset + 2 * half]
        np.subtract(even, odd, out=details)
        details *= 2.0 ** ((level - step) / 2.0)
        sums = even + odd
    return sums


@dataclass(frozen=True)
class HaarTensorBasis:
    """All tensor Haar functions on [0,1]^d through univariate level J.

    A member is the product of one univariate function, a (level,
    translate) pair, per axis.  Members are ordered coarse to fine:
    primarily by resolution (the finest level among the axes), then
    lexicographically by their axis pairs, so truncating the sequence
    always keeps a complete multiresolution prefix.  The univariate count
    through level J is 2^{J+1}; the tensor count is 2^{d (J+1)}.  A member
    is addressed by its position 0 .. size - 1 in this order.

    Every member is constant on the N^d finest dyadic cells, N = 2^{J+1},
    so :meth:`analyze` turns a function's exact cell integrals into its
    exact coefficients, and :meth:`analyze_windows` does so for a stack of
    functions that each vanish outside a window box.  The integer arrays
    ``order``, ``rank`` and ``groups`` describe every member at once;
    :meth:`evaluate`, which the ``basis-orthonormality`` check compares
    with :meth:`analyze`, reads one member's axis pairs from ``order``.
    """

    d: int
    level: int

    def __post_init__(self):
        _check_dimension(self.d)
        _check_count(self.level, "basis level", 0)

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
        # level -1 at axis position 0, level j at positions 2^j .. 2^{j+1} - 1
        counts = [1] + [2**j for j in range(self.level + 1)]
        levels = np.repeat(np.arange(SCALING_LEVEL, self.level + 1, dtype=np.int8), counts)
        resolution = levels
        for _ in range(self.d - 1):
            resolution = np.maximum.outer(resolution, levels)
        return resolution.ravel()

    @cached_property
    def order(self) -> np.ndarray:
        """Flat positions, in the (N,)*d tensor layout, of the members in basis order.

        Position (u_1, ..., u_d) holds the product of the univariate
        functions at positions u_i; row-major order of the positions is the
        lexicographic order of the members' axis pairs, so a stable sort on
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
    def rank(self) -> np.ndarray:
        """Basis position of the member at each flat position of the (N,)*d tensor layout.

        The inverse permutation of ``order``.
        """
        rank = np.empty(self.size, dtype=np.intp)
        rank[self.order] = np.arange(self.size)
        rank.setflags(write=False)
        return rank

    def analyze(self, cells) -> np.ndarray:
        """Exact coefficients, in basis order, from integrals over the finest cells.

        ``cells`` has shape (..., N, ..., N): its last d axes hold a
        function's integral over each finest dyadic cell (N = 2^{J+1} per
        axis), and any leading axes index functions.  This is the one-window
        case of :meth:`analyze_windows`: one window, the whole axis, so the
        whole pyramid runs in it and the coefficients come out in the
        (N,)*d tensor layout, which ``order`` permutes into basis order.
        The output has shape (..., size).
        """
        cells = np.asarray(cells, dtype=float)
        N, d = self.cells_per_axis, self.d
        if cells.shape[cells.ndim - d :] != (N,) * d:
            raise ContractError(f"cell integrals must end in shape {(N,) * d}, got {cells.shape}")
        lead = cells.shape[: cells.ndim - d]
        values, _ = self._windowed_pyramid(cells.reshape(lead + (1, N) * d), np.zeros(1, np.int64))
        return values.reshape(lead + (self.size,))[..., self.order]

    def analyze_windows(self, cells, starts) -> tuple[np.ndarray, np.ndarray]:
        """Exact coefficients of a stack of functions, each zero outside its own window box.

        Along each axis a function sits in one of k windows of W finest
        cells; window l covers cells starts[l] .. starts[l] + W - 1.
        ``cells`` has shape (..., k, W, ..., k, W): the d (window, cell)
        pairs of axes hold the integrals of function (l_1, ..., l_d) over the
        W^d cells of its window box, and leading axes index more functions.

        Let 2^T be the largest power of two, at most N, dividing W and every
        start.  The 1-D Haar analysis of each axis in turn (the fast
        wavelet transform) runs its first T pyramid levels inside the
        windows; each window's W/2^T remaining sums go to its place in an
        axis of N/2^T coarse sums, where the pyramid finishes.  The
        operations on nonzero values are those of the pyramid over all N^d
        cells with zeros outside the window box, so each coefficient has the
        bits of :meth:`analyze` of the padded cells, up to the sign of zeros.

        Returns (values, positions).  ``values`` has shape
        (..., k, D, ..., k, D), D = N/2^T + W - W/2^T: per axis the N/2^T
        coarse coefficients and the W - W/2^T details inside the window.
        ``positions`` (shape (k, D, ..., k, D)) holds the basis position of
        each; every other coefficient of the function is 0.
        """
        N, d = self.cells_per_axis, self.d
        starts = np.asarray(starts, dtype=np.int64)
        values, T = self._windowed_pyramid(cells, starts)
        W = np.shape(cells)[-1]
        # 1-D output position of each window's coefficients along an axis: the
        # coarse ones first, then the window's details as _pyramid lays them
        # out, whose level-j translates start at starts / 2^{J+1-j}
        table = [np.broadcast_to(np.arange(N >> T), (starts.size, N >> T))]
        for step in reversed(range(T)):
            offset = (N - W + starts[:, None]) >> (step + 1)
            table.append(np.arange(W >> (step + 1), W >> step) + offset)
        table = np.concatenate(table, axis=1)
        flat = 0
        for axis in range(d):
            shape = [1] * (2 * d)
            shape[2 * axis : 2 * axis + 2] = table.shape
            flat = flat * N + table.reshape(shape)
        return values, self.rank[flat]

    def _windowed_pyramid(self, cells, starts: np.ndarray) -> tuple[np.ndarray, int]:
        """The pyramid of :meth:`analyze_windows`: its values and T.

        Along each axis, the N/2^T coarse coefficients come first, then the
        details inside the window in the layout :func:`_pyramid` leaves.
        """
        N, J, d = self.cells_per_axis, self.level, self.d
        cells = np.asarray(cells, dtype=float)
        lead = cells.ndim - 2 * d
        k, W = starts.size, cells.shape[-1] if cells.ndim else 0
        if (
            lead < 0 or starts.ndim != 1 or cells.shape[lead:] != (k, W) * d
            or not 1 <= W <= N or np.any(starts < 0) or np.any(starts > N - W)
        ):
            raise ContractError(
                f"windowed cells must end in {d} (window, cell) axis pairs of windows inside "
                f"0..{N - 1}, got shape {cells.shape} for starts {starts.tolist()}"
            )
        align = int(np.bitwise_or.reduce(starts, initial=W))
        T = min((align & -align).bit_length() - 1, J + 1)
        C, fine = N >> T, W >> T
        rows, cols = np.arange(k)[:, None], (starts >> T)[:, None] + np.arange(fine)
        values = cells
        for axis in range(lead, cells.ndim, 2):
            window = np.moveaxis(values, (axis, axis + 1), (-2, -1))
            out = np.empty(window.shape[:-1] + (C + W - fine,))
            sums = _pyramid(window, out, C - fine, T, J)
            if W < N:  # else the window's sums are the whole coarse axis
                coarse = np.zeros(window.shape[:-1] + (C,))
                coarse[..., rows, cols] = sums
                sums = coarse
            out[..., 0] = _pyramid(sums, out, 0, J + 1 - T, J - T)[..., 0]
            values = np.moveaxis(out, (-2, -1), (axis, axis + 1))
        return values, T

    @property
    def basis_id(self) -> str:
        return f"haar{self.d}d_J{self.level}"

    def _member_axes(self, position: int) -> list[tuple[int, int]]:
        """(level, translate) of each axis factor of the member at a basis position."""
        if not 0 <= position < self.size:
            raise ContractError(f"basis position {position} is outside 0..{self.size - 1}")
        cell = np.unravel_index(self.order[position], (self.cells_per_axis,) * self.d)
        return [_univariate_index(int(u)) for u in cell]

    def evaluate(self, position: int, x) -> np.ndarray:
        """Evaluate the member at a basis position at points x of shape (npts, d) or (d,)."""
        axes = self._member_axes(position)
        pts = _unit_cube_points(x, self.d)
        values = np.ones(pts.shape[0])
        for axis, (level, translate) in enumerate(axes):
            values *= _axis_values(level, translate, pts[:, axis])
        return values if np.ndim(x) > 1 else values.reshape(-1)


@lru_cache(maxsize=32)
def haar_tensor_basis(d: int, J: int) -> HaarTensorBasis:
    """The tensor Haar basis on [0,1]^d complete through level J.

    One shared basis per (d, J) among the 32 most recently asked for, so
    its ``order``, ``groups`` and ``rank`` arrays, all read-only, are built
    once per level and not at every grid point.
    """
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
        shape = np.shape(self.variances)
        if shape != (self.basis.size,):
            raise ContractError(
                f"expected {self.basis.size} prior variances for {self.basis.basis_id}, got shape {shape}"
            )
        variances = _frozen_array(self.variances, "prior variances", allow_negative=False)
        if not np.any(variances > 0.0):
            raise DomainError("a wavelet prior needs at least one retained index")
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
    _check_positive(tau, "scale tau")
    _check_positive(alpha, "smoothness alpha")
    return WaveletPrior(basis, tau * 2.0 ** (-basis.groups * (2.0 * alpha + basis.d)))


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
    _check_positive(n, "sample size n")
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
    _check_positive(n, "sample size n")
    if isinstance(coefficients, TruthCoefficients):
        _check_same_basis(coefficients.basis_id, basis.basis_id, "level_profile_risk_infimum")
        theta = coefficients.theta
    else:
        theta = np.asarray(coefficients, dtype=float)
    if theta.shape != (basis.size,):
        raise ContractError(f"expected {basis.size} coefficients, got {theta.shape}")
    energy = np.bincount(basis.groups, weights=theta**2)
    noise = np.bincount(basis.groups) / n
    held = energy > 0.0
    return float(np.sum(energy[held] * noise[held] / (energy[held] + noise[held])))


def wavelet_prior_rate(d: int, n: float) -> float:
    """The n^{-1/(2+d)} risk scale forced on smoothness-matched series priors."""
    _check_dimension(d)
    _check_sample_size(n)
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
        _check_dimension(self.d)
        _check_count(self.level, "sawtooth level", 0)

    @property
    def period(self) -> float:
        return 0.5**self.level

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
        # the table of every index sum is freed once the cells are read from it
        cells = np.resize(residues, d * (N - 1) + 1)[sum(np.indices((N,) * d, sparse=True))]
        return basis.analyze(cells)

    def norm_sq(self) -> float:
        """Exact squared L^2 norm of g over the unit cube: P^2/12.

        The integral over x_1 in [0, 1] covers 2^level whole periods, on
        which the squared triangle wave of height P/2 has mean (P/2)^2/3.
        """
        return self.period**2 / 12.0


_SAWTOOTH_COPIES = 6


def sawtooth_work_bytes(d: int, level: int, K: int) -> int:
    """Peak working bytes of the sawtooth truth's first K coefficients on the level basis.

    :meth:`SawtoothSurrogate.haar_coefficients` and the copy of K of them
    as a truth: the K kept float64 values, and at most ``_SAWTOOTH_COPIES``
    float64 or index arrays of the basis size N^d alive at once (the cell
    index and integral tables, the transform's output and pyramid
    temporaries, the permuted copy, and ``order`` with its sort), plus 64
    KiB for the small objects.
    """
    return 8 * (K + _SAWTOOTH_COPIES * 2 ** (d * (level + 1))) + 2**16
