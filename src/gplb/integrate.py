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

3. Composite / adaptive tensor Gauss-Legendre quadrature for integrands
   without exploitable structure.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import numpy.polynomial  # noqa: F401  numpy loads it on first use; here it stays in start-up

from .errors import DomainError, QuadratureError

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
    if power < 1:
        raise DomainError("power must be a positive integer")
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
    if halfwidth <= 0.0:
        raise DomainError("halfwidth must be positive")

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
    center: Sequence[float],
    halfwidth: float,
    edges: Sequence[Sequence[float]],
) -> np.ndarray:
    """Integrate (halfwidth - |x - center|_1)_+ over every box of a tensor grid.

    ``edges`` holds one strictly increasing breakpoint array per axis; box
    (c_1, ..., c_d) is prod_i [edges[i][c_i], edges[i][c_i + 1]] and the
    result has one entry per box.  This is the power-1 vertex formula of
    :func:`pyramid_box_integral` evaluated for all boxes at once.  Every
    axis is cut at the center, so on each piece the integrand is
    (halfwidth - sum_i u_i)_+ with u_i the distance to the center along
    axis i, and the piece integral is

        (1/(d+1)!) sum_{e in {near, far}^d} (-1)^{#far}
                   (halfwidth - sum_i u_i^{e_i})_+^{d+1}.

    Neighbouring pieces share vertices, so the bracket is evaluated once
    per grid point and differenced along each axis; the pieces of a box
    cut by the center are then added back together.  Boxes outside the
    support integrate to 0 through the positive part.
    """
    center = np.asarray(center, dtype=float)
    d = center.size
    if halfwidth <= 0.0:
        raise DomainError("halfwidth must be positive")
    if len(edges) != d:
        raise DomainError(f"need one edge array per axis ({d}), got {len(edges)}")
    gaps, signs, starts = [], [], []
    for a, axis_edges in zip(center, edges):
        points = np.asarray(axis_edges, dtype=float)
        if points.ndim != 1 or points.size < 2 or np.any(np.diff(points) <= 0.0):
            raise DomainError("edges must be strictly increasing arrays of at least two points")
        boxes = np.arange(points.size - 1)
        cut = int(np.searchsorted(points, a))
        if 0 < cut < points.size and points[cut] != a:
            # box cut - 1 straddles the center: split it into two pieces
            points = np.insert(points, cut, a)
            boxes = boxes + (boxes >= cut)
        gaps.append(np.abs(points - a))
        # near minus far along the axis: the near vertex of a piece left of
        # the center is its right end, so there it is the forward difference
        signs.append(np.where(points[:-1] < a, 1.0, -1.0))
        starts.append(boxes)
    values = gaps[0]
    for gap in gaps[1:]:
        values = np.add.outer(values, gap)
    values = halfwidth - values
    np.maximum(values, 0.0, out=values)
    values **= d + 1
    for axis, sign in enumerate(signs):
        shape = [1] * d
        shape[axis] = sign.size
        values = np.diff(values, axis=axis) * sign.reshape(shape)
    values /= math.factorial(d + 1)
    for axis, axis_starts in enumerate(starts):
        values = np.add.reduceat(values, axis_starts, axis=axis)
    return values


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

    def integrate_between(self, a: float, b: float) -> float:
        """Exact integral of the piecewise polynomial over [a, b]."""
        a = max(a, self.breaks[0])
        b = min(b, self.breaks[-1])
        if b <= a:
            return 0.0
        total = 0.0
        for i in range(len(self.coeffs)):
            left = max(a, self.breaks[i])
            right = min(b, self.breaks[i + 1])
            if right <= left:
                continue
            anti = np.polynomial.Polynomial(self.coeffs[i]).integ()
            total += anti(right) - anti(left)
        return float(total)

    def integrate_against_shifted_power(self, c: float, q: int, lo: float, hi: float) -> float:
        """Exact value of int_{max(lo, c)}^{hi} h(s) (s - c)^q ds for q >= 0."""
        a = max(lo, self.breaks[0], c if q >= 0 else lo)
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
    if d == 1:
        return h.integrate_between(s_min, s_max)
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

@lru_cache(maxsize=32)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0


def gl_box(fn: Callable[[np.ndarray], np.ndarray], lo, hi, order: int = 8) -> float:
    """Tensor Gauss-Legendre quadrature of fn over the box [lo, hi].

    ``fn`` maps an (npts, d) array of points to npts values.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    if np.any(hi <= lo):
        return 0.0
    nodes, weights = _gl_rule(order)
    axes_pts = [lo[i] + (hi[i] - lo[i]) * nodes for i in range(d)]
    axes_wts = [(hi[i] - lo[i]) * weights for i in range(d)]
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = axes_wts[0]
    for w in axes_wts[1:]:
        wts = np.multiply.outer(wts, w)
    return float(np.asarray(fn(pts), dtype=float) @ wts.ravel())


def adaptive_box_integral(
    fn: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float,
    order: int = 8,
    max_depth: int = 40,
) -> float:
    """Adaptive bisection tensor Gauss-Legendre quadrature.

    A box is accepted when halving every axis changes the estimate by at
    most the box's tolerance share; otherwise the children are refined
    with half the share each.  Halving (rather than dividing by the child
    count) keeps the budget meaningful for integrands whose roughness is
    concentrated on lower-dimensional kink sets, where only a thin layer
    of boxes ever needs refinement; smooth regions terminate immediately
    because tensor Gauss-Legendre of this order is exact for them.
    Non-convergent boxes raise QuadratureError with diagnostics.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def recurse(box_lo, box_hi, box_tol, depth):
        coarse = gl_box(fn, box_lo, box_hi, order)
        mid = (box_lo + box_hi) / 2.0
        d = box_lo.size
        children = []
        for mask in itertools.product((0, 1), repeat=d):
            c_lo = np.where(mask, mid, box_lo)
            c_hi = np.where(mask, box_hi, mid)
            children.append((c_lo, c_hi))
        refined = sum(gl_box(fn, c_lo, c_hi, order) for c_lo, c_hi in children)
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
            recurse(c_lo, c_hi, box_tol / 2.0, depth + 1)
            for c_lo, c_hi in children
        )

    return recurse(lo, hi, tol, 0)
