"""Conjugate Gaussian-process inference in the white-noise sequence model.

Observations follow Y_k = theta_k + w_k / sqrt(n) with independent standard
Gaussian noise w_k, one coordinate per basis function of an orthonormal
system on the sample space.  A centered Gaussian-process prior with
Karhunen-Loeve eigenvalues lambda_k makes every coordinate conjugate:

    theta_k | Y_k  ~  N(a_k Y_k, lambda_k / (n lambda_k + 1)),
    a_k = n lambda_k / (n lambda_k + 1).

The posterior mean estimator fbar_n with coordinates a_k Y_k has the exact
frequentist squared risk

    E_theta || fbar_n - theta ||^2 = sum_k (a_k - 1)^2 theta_k^2 + a_k^2 / n,

which this module evaluates in closed form and by Monte Carlo, from one error
law per truth (``_error_law``).  The Monte Carlo risk draws the mean over R
replications directly: the noiseless coordinates add sum b_k^2 exactly, and
for each group G of coordinates sharing a scale s = a_k / sqrt(n) > 0 the sum
over the replications is the scaled noncentral chi-square
s^2 chi'^2_{R|G|}(R sum_G b_k^2 / s^2) with b_k = -(1 - a_k) theta_k, drawn as
one normal and one gamma whatever R is.  All randomness flows through numpy
Generators supplied by the caller (the Monte Carlo risk spawns one child for
its normals and one for its gammas), so every randomized operation is a pure
function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError, QuadratureError
from .errors import _check_count, _check_dimension, _check_positive

__all__ = [
    "Spectrum",
    "SequenceObservation",
    "GPPosterior",
    "TruthCoefficients",
    "SparseRows",
    "sample_observation",
    "posterior_update",
    "exact_risk",
    "mc_risk",
    "contraction_probability",
    "contraction_mass",
    "MASS_TOLERANCE",
    "polynomial_spectrum",
    "exponential_spectrum",
    "flat_spectrum",
]


def _frozen_array(values, name: str, *, allow_negative: bool, stacked: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")  # a stacked row then sums as it would alone
    if arr.ndim not in ((1, 2) if stacked else (1,)) or arr.size < 1:
        rows = " or a stack of such rows" if stacked else ""
        raise DomainError(f"{name} must be a one-dimensional array{rows} with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if not allow_negative and np.any(arr < 0.0):
        raise DomainError(f"{name} must be nonnegative")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Spectrum:
    """Prior eigenvalues lambda_k on the first K coordinates of a basis.

    ``eigenvalues`` may stack S spectra (S, K) for :meth:`SparseRows.risks`.
    Zero eigenvalues are permitted and describe coordinates the prior does
    not model (shrinkage weight 0, posterior variance 0), which covers
    finite-rank priors.  The prior puts no mass beyond coordinate K: a
    truth's mass there is error with no variance, its ``tail`` (see
    :class:`TruthCoefficients` and :meth:`SparseRows.risks`).
    """

    eigenvalues: np.ndarray
    basis_id: str

    def __post_init__(self):
        arr = _frozen_array(self.eigenvalues, "eigenvalues", allow_negative=False, stacked=True)
        object.__setattr__(self, "eigenvalues", arr)

    @property
    def size(self) -> int:
        return int(self.eigenvalues.shape[-1])


@dataclass(frozen=True)
class TruthCoefficients:
    """Coefficients of the true regression function in a named basis.

    ``norm_sq``, if given, is its full squared norm; the ``tail``
    max(norm_sq - ||theta||^2, 0) is error with no variance, which the
    risks add and the contraction probes take off radius^2.
    """

    theta: np.ndarray
    basis_id: str
    norm_sq: float | None = None
    tail: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _frozen_array(self.theta, "theta", allow_negative=True)
        object.__setattr__(self, "theta", arr)
        if self.norm_sq is not None:
            # BLAS dots of at most 8192 terms: OpenBLAS threads longer ones, which
            # makes their last bits depend on the thread count
            mass = sum(arr[i : i + 8192] @ arr[i : i + 8192] for i in range(0, arr.size, 8192))
            object.__setattr__(self, "tail", max(_checked_norm_sq(self.norm_sq) - float(mass), 0.0))

    @property
    def size(self) -> int:
        return int(self.theta.size)


def _checked_norm_sq(norm_sq) -> float:
    if not (norm_sq >= 0.0 and math.isfinite(norm_sq)):
        raise DomainError(f"norm_sq must be finite and nonnegative, got {norm_sq!r}")
    return float(norm_sq)


def _read_only(arr, dtype) -> np.ndarray:
    """``arr`` itself if it is a read-only array of ``dtype``, else a read-only copy."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and not arr.flags.writeable):
        arr = np.array(arr, dtype=dtype)
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SparseRows:
    """The first K coefficients of m truths in a named basis, kept as their nonzeros (compressed sparse rows).

    Row j holds ``values[row_starts[j]:row_starts[j + 1]]`` at the
    coordinates ``columns[row_starts[j]:row_starts[j + 1]]``; its other
    coefficients are 0.  A row must hold each coordinate at most once, as
    ``adversarial.compute_coefficients`` makes them.  That is not checked,
    since the check would sort the stored positions on every construction:
    a repeated coordinate would count twice in the row sums, while
    :meth:`row` and :attr:`entries` keep one of its values.  The three
    arrays are copied into read-only ones, unless they already are
    read-only arrays of float64, int64 and int64.
    ``row_mass`` holds each row's sum of squares.  Every pass over the
    rows costs O(nonzeros + m), not O(m K).
    """

    values: np.ndarray
    columns: np.ndarray
    row_starts: np.ndarray
    K: int
    basis_id: str
    row_mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = _read_only(self.values, np.float64)
        columns = _read_only(self.columns, np.int64)
        starts = _read_only(self.row_starts, np.int64)
        if not (
            values.ndim == columns.ndim == starts.ndim == 1 and values.size == columns.size
            and starts.size >= 2 and starts[0] == 0 and starts[-1] == values.size
            and np.all(starts[:-1] <= starts[1:])
        ):
            raise ContractError(
                "sparse rows need 1-d values and columns of one length, and row starts "
                "rising from 0 to that length"
            )
        if self.K < 1 or (columns.size and not 0 <= columns.min() <= columns.max() < self.K):
            raise ContractError(f"sparse rows need K >= 1 and columns in 0..K - 1, got K = {self.K}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "row_starts", starts)
        row_mass = self.row_sums(np.square(values))
        row_mass.setflags(write=False)
        object.__setattr__(self, "row_mass", row_mass)

    @property
    def m(self) -> int:
        return int(self.row_starts.size - 1)

    def row_sums(self, terms: np.ndarray) -> np.ndarray:
        """Each row's sum of ``terms``, one term per stored value along the last axis; 0 for a row with none.

        One ``np.add.reduceat``, which sums a row as its first term plus
        the pairwise sum of the rest, as ``np.sum`` sums that rest.
        """
        sums = np.zeros(terms.shape[:-1] + (self.m,))
        starts = self.row_starts[:-1]
        # reduceat gives an empty segment the next segment's first term, so
        # only the rows holding a term take part
        filled = starts < self.row_starts[1:]
        sums[..., filled] = np.add.reduceat(terms, starts[filled], axis=-1)
        return sums

    def row(self, j: int) -> np.ndarray:
        """Row j as its K coefficients, for j in 0..m - 1."""
        if not 0 <= j < self.m:
            raise DomainError(f"row index {j} out of range for {self.m} rows")
        lo, hi = self.row_starts[j], self.row_starts[j + 1]
        dense = np.zeros(self.K)
        dense[self.columns[lo:hi]] = self.values[lo:hi]
        return dense

    @property
    def entries(self) -> np.ndarray:
        """The m x K coefficients, made read-only on each access; no study reads them."""
        dense = np.zeros((self.m, self.K))
        dense[np.repeat(np.arange(self.m), np.diff(self.row_starts)), self.columns] = self.values
        dense.setflags(write=False)
        return dense

    def risks(self, spectrum: Spectrum, n: float, norm_sq: float | None = None) -> np.ndarray:
        """:func:`exact_risk` at every row, for a spectrum on their basis; S stacked spectra give (S, m).

        Row j gets the bias sum_k ((1 - a_k) theta_jk)^2 over its stored
        coefficients (:meth:`row_sums`), plus the variance sum_k a_k^2 / n,
        made once per spectrum with the bits it has in :func:`exact_risk`,
        plus, given ``norm_sq``, the rows' common full squared norm, the tail
        max(norm_sq - ``row_mass[j]``, 0).  The bias reads each stored value
        once per spectrum; its terms sum in another grouping than the dense
        row's, so a risk can differ from :func:`exact_risk` of the row in its
        last bits.  One shrinkage serves the whole stack, held at once with one
        product per stored value of each spectrum; row s of a stack has the
        bits of spectrum s alone.
        """
        _check_positive(n, "sample size n")
        _check_same_basis(spectrum.basis_id, self.basis_id, "SparseRows.risks")
        _check_same_shape(spectrum.eigenvalues.shape[-1:], (self.K,), "SparseRows.risks")
        weights, one_minus = _shrinkage(spectrum.eigenvalues, n)[:2]  # the variances go before the products
        terms = one_minus[..., self.columns]  # np.take along the last axis holds a second copy
        terms *= self.values
        np.square(terms, out=terms)
        risks = self.row_sums(terms) + (np.sum(np.square(weights, out=weights), axis=-1) / n)[..., None]
        if norm_sq is not None:
            risks += np.maximum(_checked_norm_sq(norm_sq) - self.row_mass, 0.0)
        return risks


@dataclass(frozen=True)
class SequenceObservation:
    """Observed sequence-model coefficients Y_k at noise level 1/sqrt(n).

    ``coefficients`` is one observation (K,) or a stack of independent
    observations (draws, K), one per row.
    """

    coefficients: np.ndarray
    n: float
    basis_id: str

    def __post_init__(self):
        arr = _frozen_array(self.coefficients, "coefficients", allow_negative=True, stacked=True)
        object.__setattr__(self, "coefficients", arr)
        _check_positive(self.n, "sample size n")


@dataclass(frozen=True)
class GPPosterior:
    """Coordinatewise conjugate posterior: N(means_k, variances_k)."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    basis_id: str
    n: float

    def __post_init__(self):
        for name in ("means", "variances", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _check_same_basis(basis_a: str, basis_b: str, what: str) -> None:
    if basis_a != basis_b:
        raise ContractError(f"{what}: basis {basis_a!r} does not match basis {basis_b!r}")


def _check_same_shape(shape_a: tuple, shape_b: tuple, what: str) -> None:
    if shape_a != shape_b:
        raise ContractError(f"{what}: coordinate shapes differ ({shape_a} vs {shape_b})")


def _shrinkage(lam: np.ndarray, n: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (weights a_k, 1 - a_k, posterior variances), overflow-safe.

    Uses variance = 1 / (n + 1/lambda) and a = n * variance, which stay
    accurate across the whole eigenvalue range, including lambda = 0.
    Each step writes in place, so three arrays the size of ``lam`` are all
    it holds; lambda = 0 needs no case of its own in 1 - a = 1 / (1 + n lambda).
    """
    with np.errstate(divide="ignore", over="ignore"):
        variances = np.divide(1.0, lam, out=np.full(lam.shape, np.inf), where=lam > 0.0)
        variances += n
        np.divide(1.0, variances, out=variances)
        one_minus = np.multiply(n, lam)
        one_minus += 1.0
        np.divide(1.0, one_minus, out=one_minus)
    return n * variances, one_minus, variances


def sample_observation(
    theta: TruthCoefficients, n: float, rng: np.random.Generator, *, draws: int | None = None
) -> SequenceObservation:
    """Draw Y_k = theta_k + w_k / sqrt(n) with iid standard Gaussian w_k.

    With ``draws`` unset the observation is one row (K,).  With ``draws``
    set it is a (draws, K) stack of independent observations from one
    ``rng.standard_normal((draws, K))`` call, which reads the same stream
    as ``draws`` calls of size K: row i equals the i-th of those draws,
    bit for bit.
    """
    _check_positive(n, "sample size n")  # before the draw: the noise scale is 1 / sqrt(n)
    if draws is not None:
        _check_count(draws, "draws", 1)
    shape = theta.size if draws is None else (draws, theta.size)
    noise = rng.standard_normal(shape) / math.sqrt(n)
    return SequenceObservation(theta.theta + noise, float(n), theta.basis_id)


def posterior_update(spectrum: Spectrum, observation: SequenceObservation) -> GPPosterior:
    """Exact conjugate update of the prior spectrum against an observation.

    A stacked observation (draws, K) gives stacked means, one row per draw;
    the weights and variances do not depend on the data and stay (K,).
    """
    _check_same_basis(spectrum.basis_id, observation.basis_id, "posterior_update")
    # one spectrum (K,): a stack of spectra differs from every observation row
    _check_same_shape(spectrum.eigenvalues.shape, observation.coefficients.shape[-1:], "posterior_update")
    weights, _, variances = _shrinkage(spectrum.eigenvalues, observation.n)
    return GPPosterior(
        means=weights * observation.coefficients,
        variances=variances,
        weights=weights,
        basis_id=spectrum.basis_id,
        n=observation.n,
    )


def _error_law(spectrum: Spectrum, theta: TruthCoefficients, n: float, what: str):
    """(b_k, a_k, posterior variances): fbar - theta = b + (a / sqrt(n)) w, w ~ N(0, I).

    b_k = -(1 - a_k) theta_k, formed in place of the 1 - a_k.  The one place
    that checks a (spectrum, truth, n) and forms its shrinkage, for the exact
    and Monte Carlo risks and the contraction probes alike.
    """
    _check_positive(n, "sample size n")
    _check_same_basis(spectrum.basis_id, theta.basis_id, what)
    _check_same_shape(spectrum.eigenvalues.shape, theta.theta.shape, what)  # one spectrum, not a stack
    weights, base, variances = _shrinkage(spectrum.eigenvalues, n)
    np.multiply(base, theta.theta, out=base)
    return np.negative(base, out=base), weights, variances


def exact_risk(spectrum: Spectrum, theta: TruthCoefficients, n: float) -> float:
    """Exact squared risk of the posterior mean at the given truth.

    Computes sum_k b_k^2 + sum_k a_k^2 / n from the error law, over the
    truncated coordinates, each sum pairwise over its K terms, plus the
    truth's ``tail``.  The risks of many truths are :meth:`SparseRows.risks`.
    """
    base, weights, _ = _error_law(spectrum, theta, n, "exact_risk")
    risk = float(np.sum(np.square(base, out=base)) + np.sum(np.square(weights, out=weights)) / n)
    return risk + theta.tail


_MC_CHUNK_BUDGET = 4_000_000  # scalars per Monte Carlo chunk


def _check_replications(replications) -> None:
    _check_count(replications, "replications", 2)
    if replications > 2**53:  # mc_risk forms R in float64, which holds every integer up to 2**53
        raise DomainError(
            f"replications = {replications} exceeds 2**53 = {2**53}, "
            "beyond which the Monte Carlo gamma shape is no longer exact"
        )


def mc_risk(
    spectrum: Spectrum,
    theta: TruthCoefficients,
    n: float,
    replications: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the posterior-mean squared risk.

    Returns (estimate, standard error).  The estimate is the mean of
    ||posterior mean - theta||^2 over R = ``replications`` fresh
    observations; the exact counterpart is :func:`exact_risk`.  The error is
    fbar - theta = b + s w with w ~ N(0, I) (see ``_error_law``), and the R
    replications of a group G of coordinates with equal scale s > 0 are
    drawn at once: sum_r sum_{k in G} (b_k + s w_rk)^2 is
    s^2 chi'^2_{R|G|}(R ||b_G||^2 / s^2), which has the law of
    (s Z + sqrt(R) ||b_G||)^2 + 2 s^2 Gamma((R |G| - 1) / 2).  Coordinates
    with s = 0 (no prior mass, or a scale that underflows) add sum b_k^2
    exactly, summed in index order before the grouping, so only the s > 0
    coordinates are sorted into groups; the ``tail`` comes last.  So the
    estimate has the law of the replication mean, at the cost of one normal
    and one gamma per distinct scale whatever R is, and the standard error
    is its exact standard deviation, sqrt(sum_G (2 s^4 |G| + 4 s^2 ||b_G||^2) / R).  R enters as a
    float64, so a huge integer R cannot overflow; it is exact up to 2^53, beyond which R is refused.
    The normals and the gammas come from two generators spawned from
    ``rng``, so the caller's generator does not advance.
    """
    _check_replications(replications)
    base, weights, _ = _error_law(spectrum, theta, n, "mc_risk")
    scale = weights / math.sqrt(n)
    live = scale > 0.0
    # in index order, first term plus the pairwise rest: the bits np.add.reduceat gives a segment
    noiseless = np.square(base[~live])
    exact = float(noiseless[0] + np.sum(noiseless[1:])) if noiseless.size else 0.0
    base, scale = base[live], scale[live]  # rebinding frees the K-long arrays before the sort
    scale, sizes, order = _scale_groups(scale)
    norm_sq = np.add.reduceat(base[order] ** 2, np.cumsum(sizes) - sizes)
    var, reps = scale**2, float(replications)
    normal_rng, gamma_rng = rng.spawn(2)
    center = scale * normal_rng.standard_normal(scale.size) + math.sqrt(reps) * np.sqrt(norm_sq)
    spread = gamma_rng.standard_gamma(0.5 * (reps * sizes - 1.0))
    estimate = exact + float(np.sum(center**2 + 2.0 * var * spread)) / reps + theta.tail
    stderr = math.sqrt(float(np.sum(2.0 * var**2 * sizes + 4.0 * var * norm_sq)) / reps)
    return estimate, stderr


def _scale_groups(scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct scales in increasing order, their counts, and ``np.argsort(scale, kind="stable")``.

    The order is a stable sort of the group ids cast to the least integer
    type that holds them, which NumPy does by radix sort up to 65,536
    groups, in place of a stable sort of the floats.
    """
    values, ids, sizes = np.unique(scale, return_inverse=True, return_counts=True)
    return values, sizes, np.argsort(ids.astype(np.min_scalar_type(values.size - 1)), kind="stable")


def contraction_probability(
    spectrum: Spectrum,
    theta: TruthCoefficients,
    n: float,
    radius: float,
    outer: int,
    inner: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Nested Monte Carlo estimate of E_theta Pi(||f - theta|| >= radius | Y).

    The outer loop draws observations, the inner loop draws posterior
    samples coordinatewise from N(mean_k, variance_k) and checks whether
    the squared distance to the truth reaches radius^2 less its ``tail``.
    Returns (estimate, standard error across outer draws).
    """
    _check_positive(radius, "radius")
    _check_count(outer, "outer", 1)
    _check_count(inner, "inner", 1)
    base, weights, variances = _error_law(spectrum, theta, n, "contraction_probability")
    scale = weights / math.sqrt(n)
    sd = np.sqrt(variances)
    r_sq = radius * radius - theta.tail
    K = spectrum.size

    fractions = np.empty(outer)
    inner_chunk = max(1, min(inner, _MC_CHUNK_BUDGET // max(1, K)))
    for o in range(outer):
        w = rng.standard_normal(K)
        center = base + scale * w  # posterior mean minus theta
        exceed = 0
        done = 0
        while done < inner:
            b = min(inner_chunk, inner - done)
            z = rng.standard_normal((b, K))
            dev = center[None, :] + sd[None, :] * z
            dist_sq = np.einsum("ij,ij->i", dev, dev)
            exceed += int(np.count_nonzero(dist_sq >= r_sq))
            done += b
        fractions[o] = exceed / inner
    estimate = float(fractions.mean())
    stderr = float(fractions.std(ddof=1) / math.sqrt(outer)) if outer >= 2 else 0.0
    return estimate, stderr


MASS_TOLERANCE = 1e-10  # absolute error of contraction_mass
_SATURATED = 1e-12  # a tail certified below this is reported as exactly 0
_TAIL_BUDGET = 1e-11  # share of MASS_TOLERANCE left to the truncated Imhof range
_SEGMENT_PHASE = 32.0 * math.pi  # Imhof segments over 16 periods use Fourier weights
# Chernoff ladder rungs: t = -2^j, j < _LOWER_RUNGS, reach |t| = 2^99 ~ 6e29 (K = 1 at
# radius 1e-150 first settles at j = 80); t = pole (1 - 2^-j) stops at j = _POLE_RUNGS,
# well short of j ~ 53, where 1 - 2 t max v rounds to 0
_LOWER_RUNGS = 100
_POLE_RUNGS = 40


def contraction_mass(
    spectrum: Spectrum, theta: TruthCoefficients, n: float, radius: float | np.ndarray
) -> float | np.ndarray:
    """Exact E_theta Pi(||f - theta|| >= radius | Y), within MASS_TOLERANCE.

    The quantity :func:`contraction_probability` estimates by nested Monte
    Carlo.  Over the observation and the posterior draw together,
    f - theta = (posterior mean - theta) + posterior noise is Gaussian with
    independent coordinates, xi_k ~ N(b_k, v_k), b_k = -(1 - a_k) theta_k
    and v_k = a_k^2 / n + a_k / n.  So the expected posterior mass is the
    single tail P(||xi||^2 >= radius^2 - tail) of a Gaussian quadratic form
    (1 where the truth's ``tail`` reaches radius^2); no randomness is used.
    It is settled in two steps (see ``_quadratic_form_tail``): the Chernoff
    bound on the fixed ladder of t of ``_ladder_settles`` gives exactly 0 or
    1 where it puts at most 1e-12 in the smaller tail, and Imhof's (1961)
    inversion gives every other mass.  ``radius`` is one radius, which gives
    a float, or a 1-d stack of radii, which gives one mass each from one
    error law; every mass has the bits of its one-radius call.  Raises
    QuadratureError when the inversion cannot certify MASS_TOLERANCE.
    """
    radii = np.asarray(radius, dtype=float)
    if radii.ndim > 1:
        raise DomainError("radius must be one radius or a 1-d stack of them")
    _check_positive(radii, "radius")
    base, weights, variances = _error_law(spectrum, theta, n, "contraction_mass")
    spread = (weights / math.sqrt(n)) ** 2 + variances  # s_k^2 + v_k
    masses = _quadratic_form_tail(base**2, spread, np.atleast_1d(radii * radii) - theta.tail)
    return float(masses[0]) if radii.ndim == 0 else masses


def _quadratic_form_tail(b_sq: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P(sum_k (b_k + sqrt(v_k) g_k)^2 >= x_i) for iid standard Gaussian g_k, at each x_i.

    Coordinates with v_k = 0 add b_k^2 exactly.  The rest is scaled to the
    form's standard deviation once for every x_i, and each x_i is settled
    in two steps:

    1. the Chernoff bound on the smaller tail at the fixed ladder of t of
       ``_ladder_settles``: at most 1e-12 at some rung gives 0 or 1;
    2. Imhof's inversion (``_imhof_tail``), within MASS_TOLERANCE, for
       every x_i the ladder leaves open.

    Each x_i gets the bits it would get alone.
    """
    live = v > 0.0
    x = x - float(np.sum(b_sq[~live]))
    masses = np.where(x <= 0.0, 1.0, 0.0)
    open_ = np.flatnonzero(x > 0.0)
    if open_.size == 0 or not np.any(live):
        return masses
    b_sq, v = b_sq[live], v[live]
    mean = float(np.sum(b_sq + v))
    # the variance sum_k 2 v_k^2 + 4 b_k^2 v_k, summed relative to the mean so it cannot underflow
    b_unit, v_unit = b_sq / mean, v / mean
    sd = math.sqrt(float(np.sum(2.0 * v_unit * v_unit + 4.0 * b_unit * v_unit)))
    # in units of the standard deviation of the form the scales are O(1)
    b_unit, v_unit, mean_unit = b_unit / sd, v_unit / sd, 1.0 / sd
    # an x_i beyond the float range in these units is infinitely far above
    # the mean; the first upper rung settles it to 0
    with np.errstate(over="ignore"):
        x_unit = x[open_] / mean / sd
    settled = _ladder_settles(b_unit, v_unit, x_unit, mean_unit)
    masses[open_[settled]] = x_unit[settled] < mean_unit  # 1 below the mean, 0 above it
    for i in open_[~settled]:
        # sum_k b_k^2 - x, correctly rounded: Imhof's phase needs it where the two nearly cancel
        excess = math.fsum(np.append(b_sq, -x[i])) / mean / sd
        masses[i] = _imhof_tail(b_unit, v_unit, excess)
    return masses


def _ladder_settles(b_sq: np.ndarray, v: np.ndarray, x: np.ndarray, mean: float) -> np.ndarray:
    """Which x_i the Chernoff bound on the smaller tail puts at most 1e-12 beyond, on a fixed ladder.

    For Q = sum_k (b_k + sqrt(v_k) g_k)^2, log P(Q >= x) <= log E exp(tQ) - t x
    at every 0 < t < 1 / (2 max v), the pole, and log P(Q <= x) is bounded by
    the same expression at every t < 0, where
    log E exp(tQ) = sum_k t b_k^2 / (1 - 2 t v_k) - log(1 - 2 t v_k) / 2.
    Every admissible t gives a valid bound, so the ladder certifies no x_i
    that the minimised bound leaves above 1e-12.  Its rungs are t = -2^j,
    j = 0..99, for x_i below the mean, and for x_i above it t = 2^j, j >= 0,
    below half the pole, then t = pole (1 - 2^-j), j = 1..40.  The sum over
    k does not depend on x_i, so each rung serves all of its side's x_i.
    The rungs are evaluated one at a time, each over all K coordinates, and
    a side stops at the first rung that settles all of its x_i.
    """
    settled = np.zeros(x.shape, dtype=bool)
    pole = 0.5 / float(v.max())
    doublings = max(0, math.ceil(math.log2(0.5 * pole)))  # the j >= 0 with 2^j < pole / 2
    for side, sign, powers, rungs in (
        (x < mean, -1.0, _LOWER_RUNGS, _LOWER_RUNGS),
        (x > mean, 1.0, doublings, doublings + _POLE_RUNGS),
    ):
        xs = x[side]
        hit = np.zeros(xs.shape, dtype=bool)
        for r in range(rungs):
            if hit.all():
                break
            t = sign * 2.0**r if r < powers else pole * (1.0 - 2.0 ** (powers - 1 - r))
            w = v * (-2.0 * t)
            w += 1.0
            np.divide(1.0, w, out=w)
            # sum_k t b_k^2 w_k - log(1 - 2 t v_k) / 2 = t (w . b^2) + sum_k log(w_k) / 2
            log_mgf = t * (w @ b_sq) + 0.5 * np.log(w, out=w).sum()
            hit |= log_mgf - t * xs <= math.log(_SATURATED)
        settled[side] = hit
    return settled


def _minus_cos(phase: float) -> float:
    return -math.cos(phase)


def _imhof_tail(b_sq: np.ndarray, v: np.ndarray, excess: float) -> float:
    """Imhof's P(Q > x) = 1/2 + (1/pi) int_0^inf sin(phase(u)) / (u rho(u)) du.

    With noncentralities written as b_k^2 / v_k the terms need no division:
    phase(u) = sum_k [atan(v_k u) + b_k^2 u / (1 + v_k^2 u^2)] / 2 - x u / 2 and
    log rho(u) = sum_k log(1 + v_k^2 u^2) / 4 + b_k^2 v_k u^2 / (2 (1 + v_k^2 u^2)).
    ``excess`` is sum_k b_k^2 - x.  On each range of u, a coordinate with
    v_k u <= 1 throughout has its phase term written as
    b_k^2 u - b_k^2 v_k^2 u^3 / (1 + v_k^2 u^2), and its b_k^2 u is taken
    out of the cancellation against x u into c u, c = excess - sum of the
    other b_k^2: a form whose mean is far above its standard deviation
    then keeps its phase to rounding.
    The range is integrated over [0, 1] and then in doubling segments until
    the rest is certified below 1e-11: |integrand| <= 1 / (u rho(u)), and
    for u >= U, rho(u) >= rho(U) sqrt(v_k u) / (1 + v_k^2 U^2)^(1/4) with v_k
    the largest, which integrates in closed form.  A segment spanning more
    than 16 periods of its local phase frequency goes to QUADPACK's
    Fourier-weighted rule (QAWO) at that frequency, so a heavy polynomial
    tail (few coordinates) costs a few calls per doubling.
    """
    from scipy.integrate import quad

    k = int(np.argmax(v))

    def phase(u, far, c):
        """phase(u), with the coordinates outside ``far`` rewritten around c."""
        vu_sq = (v * u) ** 2
        share = np.where(far, 1.0, -vu_sq) / (1.0 + vu_sq)
        return 0.5 * (float(np.sum(np.arctan(v * u) + b_sq * u * share)) + c * u)

    def log_rho(u):
        vu_sq = (v * u) ** 2
        return float(np.sum(0.25 * np.log1p(vu_sq) + 0.5 * b_sq * v * u * u / (1.0 + vu_sq)))

    def frequency(u, far, c):
        """phase'(u)."""
        vu_sq = (v * u) ** 2
        share = np.where(far, 1.0 - vu_sq, -vu_sq * (3.0 + vu_sq)) / (1.0 + vu_sq)
        return 0.5 * (float(np.sum((v + b_sq * share) / (1.0 + vu_sq))) + c)

    def integrand(u, far, c, nu=0.0, part=math.sin):
        """sin(phase(u)) / (u rho(u)), or with nu u added to the phase and sin replaced by part."""
        return part(phase(u, far, c) + nu * u) * math.exp(-log_rho(u)) / u

    def tail_bound(u):
        bound = log_rho(u) - 0.25 * math.log1p((v[k] * u) ** 2)
        return 2.0 / math.pi * math.exp(-bound) / math.sqrt(v[k] * u)

    def integral(lo, hi, *args, **options):
        value, err, _, *failure = quad(
            integrand, lo, hi, args, epsabs=1e-12, epsrel=0.0, limit=200, full_output=1, **options
        )
        if failure:
            raise QuadratureError(f"Imhof inversion on [{lo:g}, {hi:g}]: {failure[0]}")
        return value, err

    def split(hi):
        """(far, c) on a segment ending at hi."""
        far = v * hi > 1.0
        return far, excess - math.fsum(b_sq[far])

    total, error = integral(0.0, 1.0, *split(1.0))
    lo, hi = 1.0, 2.0
    while tail_bound(lo) > _TAIL_BUDGET and lo < 2.0**128:
        far, c = split(hi)
        nu = -frequency(0.5 * (lo + hi), far, c)
        if abs(nu) * (hi - lo) <= _SEGMENT_PHASE:
            value, err = integral(lo, hi, far, c)
        else:
            # sin(phase) = sin(phase + nu u) cos(nu u) - cos(phase + nu u) sin(nu u), the
            # first factors slowly varying: Fourier-weighted quadrature (QAWO)
            cos_part, cos_err = integral(lo, hi, far, c, nu, math.sin, weight="cos", wvar=nu)
            sin_part, sin_err = integral(lo, hi, far, c, nu, _minus_cos, weight="sin", wvar=nu)
            value, err = cos_part + sin_part, cos_err + sin_err
        total, error = total + value, error + err
        lo, hi = hi, 2.0 * hi
    error = error / math.pi + tail_bound(lo)
    if not error <= MASS_TOLERANCE:
        raise QuadratureError(
            f"Imhof inversion reached an error estimate of {error:.1e}, over {MASS_TOLERANCE:g}"
        )
    return min(max(0.5 + total / math.pi, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Spectrum presets
# ---------------------------------------------------------------------------

def polynomial_spectrum(K: int, *, basis_id: str, tau: float = 1.0, alpha: float = 1.0, d: int = 1) -> Spectrum:
    """lambda_k = tau * k^{-(1 + 2 alpha / d)}, the classical smoothness scale."""
    _check_count(K, "spectrum length K", 1)
    _check_positive(tau, "scale tau")
    _check_positive(alpha, "smoothness alpha")
    _check_dimension(d)
    p = 1.0 + 2.0 * alpha / d
    k = np.arange(1, K + 1, dtype=float)
    return Spectrum(tau * k**-p, basis_id)


def exponential_spectrum(K: int, *, basis_id: str, tau: float = 1.0, beta: float = 1.0) -> Spectrum:
    """lambda_k = tau * exp(-beta k)."""
    _check_count(K, "spectrum length K", 1)
    _check_positive(tau, "scale tau")
    _check_positive(beta, "decay rate beta")
    k = np.arange(1, K + 1, dtype=float)
    return Spectrum(tau * np.exp(-beta * k), basis_id)


def flat_spectrum(K: int, *, basis_id: str, tau: float = 1.0) -> Spectrum:
    """lambda_k = tau for every retained coordinate."""
    _check_count(K, "spectrum length K", 1)
    _check_positive(tau, "scale tau")
    return Spectrum(np.full(K, tau), basis_id)
