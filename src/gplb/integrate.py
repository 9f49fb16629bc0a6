"""Exact and adaptive integration over axis-aligned boxes.

Three engines live here.

1. A vertex formula for the positive part of an affine function.  For
   g(x) = alpha + sum_i beta_i x_i with every beta_i nonzero and a box
   B = prod_i [lo_i, hi_i],

       int_B (g(x))_+^p dx
           = (p! / (p+d)!) * (1 / prod_i beta_i)
             * sum_{v in vertices(B)} sigma(v) * (g(v)_+)^(p+d)

   where sigma(v) = (-1)^(#{i : v_i = lo_i}).  The identity follows by
   integrating one axis at a time: each pass raises the exponent by one
   and divides by (current exponent + 1) * beta_i, and the positive part
   survives differentiation of its own antiderivative.  This makes
   piecewise-affine integrands (hat functions, clipped cones) exactly
   integrable once the box is split so g is affine on each piece.

2. A ridge-function formula.  For h a piecewise polynomial of one
   variable and S(x) = x_1 + ... + x_d,

       int_B h(S(x)) dx
           = (1/(d-1)!) * sum_{e in {0,1}^d} (-1)^{|e|}
             int_{s_min}^{s_max} h(s) * ((s - c_e)_+)^(d-1) ds

   with c_e = sum_i (lo_i + e_i (hi_i - lo_i)) and [s_min, s_max] the
   range of S over B.  The bracketed sum is the (d-1)-volume of the
   slice {x in B : S(x) = s} (the classical convolution-of-uniforms
   density, scaled by the box volume), so the outer integral is exact
   whenever the pieces of h are polynomial.  No study calls it: the
   sawtooth truth of :mod:`gplb.wavelet` integrates in closed form, and
   the tests keep this formula as that closed form's independent oracle.

3. Tensor and adaptive Gauss-Legendre quadrature on one 8-point rule,
   written out below so that no call runs LAPACK, for integrands without
   exploitable structure.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError, _check_count, _check_positive

__all__ = [
    "affine_plus_power_integral",
    "pyramid_box_integral",
    "pyramid_grid_integrals",
    "PiecewisePolynomial",
    "ridge_box_integral",
    "gl_box",
    "adaptive_box_integral",
]


# ---------------------------------------------------------------------------
# Vertex formula for int_B (alpha + beta . x)_+^p dx
# ---------------------------------------------------------------------------

def affine_plus_power_integral(
    alpha: float,
    beta: Sequence[float],
    lo: Sequence[float],
    hi: Sequence[float],
    power: int = 1,
) -> float:
    """Integrate (alpha + beta.x)_+**power exactly over the box [lo, hi].

    Every component of beta must be nonzero; power must be a positive
    integer.  Degenerate boxes (hi_i <= lo_i on some axis) integrate to 0.
    """
    beta = np.asarray(beta, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = beta.size
    _check_count(power, "power", 1)
    if np.any(beta == 0.0):
        raise DomainError("vertex formula requires all beta components nonzero")
    if np.any(hi <= lo):
        return 0.0

    scale = math.factorial(power) / math.factorial(power + d)
    total = 0.0
    for mask in itertools.product((0, 1), repeat=d):
        v = np.where(mask, hi, lo)
        g = alpha + float(beta @ v)
        if g <= 0.0:
            continue
        sign = -1.0 if (d - sum(mask)) % 2 else 1.0
        total += sign * g ** (power + d)
    return scale * total / float(np.prod(beta))


def pyramid_box_integral(
    center: Sequence[float],
    halfwidth: float,
    lo: Sequence[float],
    hi: Sequence[float],
    power: int = 1,
) -> float:
    """Integrate ((halfwidth - |x - center|_1)_+)**power over the box [lo, hi].

    The integrand is affine in x on each sign-orthant around the center,
    so the box is split along the hyperplanes x_i = center_i and the
    vertex formula is applied on each piece.  Exact up to rounding.
    """
    center = np.asarray(center, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = center.size
    _check_positive(halfwidth, "halfwidth")

    # Clip to the support box; outside it the integrand vanishes.
    lo = np.maximum(lo, center - halfwidth)
    hi = np.minimum(hi, center + halfwidth)
    if np.any(hi <= lo):
        return 0.0

    # Per-axis segments on either side of the center, tagged with the sign
    # of (x_i - center_i) on that segment.
    segments: list[list[tuple[float, float, float]]] = []
    for i in range(d):
        segs = []
        if lo[i] < center[i]:
            segs.append((lo[i], min(hi[i], center[i]), -1.0))
        if hi[i] > center[i]:
            segs.append((max(lo[i], center[i]), hi[i], 1.0))
        segments.append(segs)

    total = 0.0
    for combo in itertools.product(*segments):
        box_lo = [seg[0] for seg in combo]
        box_hi = [seg[1] for seg in combo]
        signs = np.array([seg[2] for seg in combo])
        # On this piece |x - a|_1 = sum_i s_i (x_i - a_i).
        alpha = halfwidth + float(signs @ center)
        beta = -signs
        total += affine_plus_power_integral(alpha, beta, box_lo, box_hi, power)
    return total


def pyramid_grid_integrals(
    center: Sequence,
    halfwidth: float,
    edges: Sequence,
) -> np.ndarray:
    """Integrate (halfwidth - |x - center|_1)_+ over every box of a tensor grid, or of a stack.

    ``edges`` holds one strictly increasing breakpoint array per axis; box
    (c_1, ..., c_d) is prod_i [edges[i][c_i], edges[i][c_i + 1]] and the
    result has one entry per box.  For a stack, axis i has k_i rows of
    breakpoints (a (k_i, P_i) array) and ``center[i]`` the k_i center
    coordinates that go with them; the pyramid at row (l_1, ..., l_d) is
    integrated over the grid of those rows, and the result has shape
    (k_1, P_1 - 1, ..., k_d, P_d - 1).

    This is the power-1 vertex formula of :func:`pyramid_box_integral`
    evaluated for all boxes at once.  Every row is cut at its center
    (clipped into the row; a cut on a breakpoint adds a piece of width 0),
    so on each piece the integrand is (halfwidth - sum_i u_i)_+ with u_i
    the distance to the center along axis i, and the piece integral is

        (1/(d+1)!) sum_{e in {near, far}^d} (-1)^{#far}
                   (halfwidth - sum_i u_i^{e_i})_+^{d+1}.

    Neighbouring pieces share vertices, so the bracket is evaluated once
    per grid point, from per-axis tables of distances broadcast over the
    stack, and differenced along each axis; then, axis by axis, the piece
    after each cut is added into the piece before it and dropped, which
    leaves one value per box.  Boxes outside the support integrate to 0
    through the positive part, up to rounding at a support edge that falls
    on a breakpoint.
    """
    d = len(center)
    _check_positive(halfwidth, "halfwidth")
    if len(edges) != d:
        raise DomainError(f"need one edge array per axis ({d}), got {len(edges)}")
    stacked = any(np.ndim(axis_edges) == 2 for axis_edges in edges)
    gaps, signs, cuts = [], [], []
    for a, axis_edges in zip(center, edges):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        points = np.atleast_2d(np.asarray(axis_edges, dtype=float))
        if (
            points.ndim != 2 or a.shape != points.shape[:1] or points.shape[1] < 2
            or np.any(np.diff(points, axis=1) <= 0.0)
        ):
            raise DomainError("edges must be strictly increasing arrays of at least two points")
        rows, size = points.shape
        cut_at = np.clip(a, points[:, 0], points[:, -1])
        cut = np.count_nonzero(points < cut_at[:, None], axis=1)
        index = np.arange(size + 1)
        points = np.take_along_axis(points, index - (index > cut[:, None]), axis=1)
        points[np.arange(rows), cut] = cut_at
        gaps.append(np.abs(points - a[:, None]))
        # near minus far along the axis: the near vertex of a piece left of
        # the center is its right end, so there it is the forward difference
        signs.append(np.where(points[:, :-1] < a[:, None], 1.0, -1.0))
        cuts.append(cut)

    def spread(table, axis):
        shape = [1] * (2 * d)
        shape[2 * axis : 2 * axis + 2] = table.shape
        return table.reshape(shape)

    values = spread(gaps[0], 0)
    for axis in range(1, d):
        values = values + spread(gaps[axis], axis)
    values = halfwidth - values
    np.maximum(values, 0.0, out=values)
    values **= d + 1
    for axis, sign in enumerate(signs):
        values = np.diff(values, axis=2 * axis + 1) * spread(sign, axis)
    values /= math.factorial(d + 1)
    for axis, cut in enumerate(cuts):
        # the piece after each cut joins the piece before it, where there is one
        before = (slice(None),) * (2 * axis)
        rows = np.flatnonzero(cut)
        values[before + (rows, cut[rows] - 1)] += values[before + (rows, cut[rows])]
        kept = np.ones(values.shape[2 * axis : 2 * axis + 2], dtype=bool)
        kept[np.arange(cut.size), cut] = False
        shape = values.shape[: 2 * axis] + (cut.size, -1) + values.shape[2 * axis + 2 :]
        values = values[before + (kept,)].reshape(shape)
    return values if stacked else values.reshape(values.shape[1::2])


# ---------------------------------------------------------------------------
# Piecewise polynomials of one variable and the ridge-function formula
# ---------------------------------------------------------------------------

class PiecewisePolynomial:
    """Piecewise polynomial on [breaks[0], breaks[-1]], zero outside.

    ``coeffs[i]`` holds ascending global-variable coefficients of the
    polynomial on [breaks[i], breaks[i+1]].
    """

    def __init__(self, breaks: Sequence[float], coeffs: Sequence[Sequence[float]]):
        self.breaks = np.asarray(breaks, dtype=float)
        if self.breaks.ndim != 1 or self.breaks.size < 2:
            raise DomainError("need at least two breakpoints")
        if np.any(np.diff(self.breaks) <= 0):
            raise DomainError("breakpoints must be strictly increasing")
        if len(coeffs) != self.breaks.size - 1:
            raise DomainError("one coefficient row per piece required")
        width = max(len(c) for c in coeffs)
        table = np.zeros((len(coeffs), width))
        for i, c in enumerate(coeffs):
            table[i, : len(c)] = c
        self.coeffs = table

    @classmethod
    def from_linear_breakpoints(cls, xs: Sequence[float], ys: Sequence[float]) -> "PiecewisePolynomial":
        """Continuous piecewise-linear interpolant through (xs, ys)."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        rows = []
        for i in range(xs.size - 1):
            slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            rows.append([ys[i] - slope * xs[i], slope])
        return cls(xs, rows)

    def squared(self) -> "PiecewisePolynomial":
        rows = []
        for c in self.coeffs:
            p = np.polynomial.Polynomial(c)
            rows.append((p * p).coef.tolist())
        return PiecewisePolynomial(self.breaks, rows)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, s, side="right") - 1, 0, len(self.coeffs) - 1)
        out = np.zeros_like(s)
        inside = (s >= self.breaks[0]) & (s <= self.breaks[-1])
        for i in np.unique(idx[inside]):
            sel = inside & (idx == i)
            out[sel] = np.polynomial.polynomial.polyval(s[sel], self.coeffs[i])
        return out

    def integrate_against_shifted_power(self, c: float, q: int, lo: float, hi: float) -> float:
        """Exact value of int_{max(lo, c)}^{hi} h(s) (s - c)^q ds for q >= 0."""
        a = max(lo, self.breaks[0], c)
        b = min(hi, self.breaks[-1])
        if b <= a:
            return 0.0
        total = 0.0
        for i in range(len(self.coeffs)):
            left = max(a, self.breaks[i])
            right = min(b, self.breaks[i + 1])
            if right <= left:
                continue
            # Rewrite the piece in the shifted variable u = s - c, multiply
            # by u^q and integrate monomials exactly.
            piece = np.polynomial.Polynomial(self.coeffs[i])
            shifted = piece(np.polynomial.Polynomial([c, 1.0])).coef
            u0, u1 = left - c, right - c
            for t, coef in enumerate(shifted):
                if coef == 0.0:
                    continue
                e = t + q + 1
                total += coef * (u1**e - u0**e) / e
        return float(total)


def ridge_box_integral(h: PiecewisePolynomial, lo: Sequence[float], hi: Sequence[float]) -> float:
    """Exact integral of h(x_1 + ... + x_d) over the box [lo, hi].

    Uses the slice-volume expansion documented in the module docstring;
    h must be defined (as a piecewise polynomial) on the whole range of
    the coordinate sum over the box.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    if np.any(hi <= lo):
        return 0.0
    s_min, s_max = float(lo.sum()), float(hi.sum())
    widths = hi - lo
    scale = 1.0 / math.factorial(d - 1)
    total = 0.0
    for mask in itertools.product((0, 1), repeat=d):
        c = float(lo.sum() + np.asarray(mask) @ widths)
        sign = -1.0 if sum(mask) % 2 else 1.0
        total += sign * h.integrate_against_shifted_power(c, d - 1, s_min, s_max)
    return scale * total


# ---------------------------------------------------------------------------
# Tensor Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

# numpy.polynomial.legendre.leggauss(8) as the floats it returns, moved to [0, 1]
_GL_NODES = (np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362]) + 1.0) / 2.0
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]) / 2.0
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


def _gl_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre points (boxes, 8^d, d) and weights (boxes, 8^d).

    ``lo`` and ``hi`` stack one box per row.  The points run over the
    tensor grid in C order (axis 0 slowest), and each weight is the product
    of the axis weights taken from axis 0 up.  Both are built in C order by
    broadcasting the axis tables, so every box's row is contiguous.
    """
    boxes, d = lo.shape
    order = _GL_NODES.size
    width = (hi - lo)[:, :, None]
    axes_pts = lo[:, :, None] + width * _GL_NODES
    axes_wts = width * _GL_WEIGHTS

    def along(table, i):  # axis i's (boxes, order) table, spread over the tensor grid
        return table[:, i].reshape((boxes,) + (1,) * i + (order,) + (1,) * (d - 1 - i))

    pts = np.empty((boxes,) + (order,) * d + (d,))
    for i in range(d):
        pts[..., i] = along(axes_pts, i)
    wts = along(axes_wts, 0)
    for i in range(1, d):
        wts = wts * along(axes_wts, i)
    return pts.reshape(boxes, -1, d), wts.reshape(boxes, -1)


def gl_box(fn: Callable[[np.ndarray], np.ndarray], lo, hi):
    """Tensor 8-point Gauss-Legendre quadrature of fn over the box [lo, hi], or over each of a stack.

    ``fn`` maps an (npts, d) array of points to npts values; for a stack
    (boxes, d), the (boxes, npts, d) points of the boxes with no empty side
    to (boxes, npts) values.  An empty box gives 0.0, and each integral is
    its own box's dot of values and weights, whatever else is stacked.
    """
    stack = np.ndim(lo) > 1
    lo, hi = np.atleast_2d(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    integrals = np.zeros(len(lo))
    live = np.all(hi > lo, axis=1)
    if live.any():
        pts, wts = _gl_nodes(lo[live], hi[live])
        # a strided row would take BLAS's strided dot, which sums in another
        # order; values computed from the C-order points are C order already
        values = np.ascontiguousarray(fn(pts if stack else pts[0]), dtype=float).reshape(wts.shape)
        integrals[live] = (values[:, None, :] @ wts[:, :, None])[:, 0, 0]
    return integrals if stack else float(integrals[0])


def adaptive_box_integral(
    fn: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float,
    max_depth: int = 40,
) -> float:
    """Adaptive bisection tensor Gauss-Legendre quadrature.

    A box is accepted when halving every axis changes the estimate by at
    most the box's tolerance share; otherwise the children are refined
    with half the share each.  Halving (rather than dividing by the child
    count) keeps the budget meaningful for integrands whose roughness is
    concentrated on lower-dimensional kink sets, where only a thin layer
    of boxes ever needs refinement; smooth regions terminate immediately
    because the 8-point rule is exact for them.
    Non-convergent boxes raise QuadratureError with diagnostics.

    Each box integrates all 2^d children in one stacked :func:`gl_box`
    call, so one ``fn`` call on their stacked points; a child's estimate is
    passed down as its coarse value, so no box is integrated twice.  ``fn``
    must evaluate every point on its own (row by row); then each estimate,
    and so the result, is bit-equal to :func:`gl_box` applied box by box.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    d = lo.size
    upper = np.array(list(itertools.product((False, True), repeat=d)))  # child c's upper halves

    def stacked(pts):
        return np.asarray(fn(pts.reshape(-1, d)), dtype=float).reshape(pts.shape[:-1])

    def recurse(box_lo, box_hi, coarse, box_tol, depth):
        mid = (box_lo + box_hi) / 2.0
        c_lo = np.where(upper, mid, box_lo)
        c_hi = np.where(upper, box_hi, mid)
        estimates = gl_box(stacked, c_lo, c_hi).tolist()
        refined = sum(estimates)
        # Accept on the tolerance share, with a floor at rounding level.
        accept = max(box_tol, 4e-16 * (abs(coarse) + abs(refined)))
        if abs(refined - coarse) <= accept:
            return refined
        if depth >= max_depth:
            raise QuadratureError(
                "adaptive quadrature failed to converge",
                diagnostics={
                    "box_lo": box_lo.tolist(),
                    "box_hi": box_hi.tolist(),
                    "coarse": coarse,
                    "refined": refined,
                    "difference": abs(refined - coarse),
                    "tolerance": box_tol,
                    "depth": depth,
                },
            )
        return sum(
            recurse(child_lo, child_hi, estimate, box_tol / 2.0, depth + 1)
            for child_lo, child_hi, estimate in zip(c_lo, c_hi, estimates)
        )

    return recurse(lo, hi, gl_box(fn, lo, hi), tol, 0)
