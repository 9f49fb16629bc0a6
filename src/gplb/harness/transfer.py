"""Closed-form bridges between posterior-mean risk and posterior mass.

Three inequalities connect the exact risk mu_n^2 = E ||fbar_n - f0||^2 to
statements about the full posterior:

- the squared error concentrates: P(||fbar_n - f0||^2 <= mu_n^2 / 4) is at
  most 4 exp(-n mu_n^2 / 32);
- Anderson's inequality transfers posterior mass to the mean:
  P(||fbar_n - f0|| >= 2 gamma) <= 2 sqrt(E Pi(||f - f0|| >= gamma | Y));
- combining the two floors the expected posterior mass outside radius
  mu_n / 4 by (1/4)(1 - 4 exp(-n mu_n^2 / 32))_+^2, and once
  n gamma^2 clears 32 log(5 / (1 - sqrt(1 - 4 delta))) the mass outside
  gamma/5 cannot drop below 1/4 - delta.

These are closed-form caps only.  The studies compute the posterior mass
they bound exactly (``sequence_core.contraction_mass``), and the
risk-concentration check compares the cap with sampled squared errors.
"""

from __future__ import annotations

import math

from ..errors import DomainError

__all__ = [
    "concentration_bound",
    "anderson_transfer",
    "transfer_threshold",
    "contraction_mass_floor",
]


def concentration_bound(n: float, mu_sq: float) -> float:
    """4 exp(-n mu_sq / 32): cap on P(squared error <= quarter of its mean)."""
    if not (n > 0 and math.isfinite(n)):
        raise DomainError("sample size n must be positive and finite")
    if not (mu_sq > 0 and math.isfinite(mu_sq)):
        raise DomainError("mean squared error mu_sq must be positive and finite")
    return 4.0 * math.exp(-n * mu_sq / 32.0)


def anderson_transfer(v: float) -> float:
    """2 sqrt(v): cap on P(||fbar - f0|| >= 2 gamma) from posterior mass v."""
    if not 0.0 <= v <= 1.0:
        raise DomainError("expected posterior mass v must lie in [0, 1]")
    return 2.0 * math.sqrt(v)


def transfer_threshold(delta: float) -> float:
    """Smallest n gamma^2 at which mass outside gamma/5 must reach 1/4 - delta."""
    if not 0.0 < delta < 0.25:
        raise DomainError("delta must lie strictly between 0 and 1/4")
    return 32.0 * math.log(5.0 / (1.0 - math.sqrt(1.0 - 4.0 * delta)))


def contraction_mass_floor(n: float, mu_sq: float) -> float:
    """(1/4)(1 - 4 exp(-n mu_sq/32))_+^2: floor on mass outside radius mu/4.

    mu_sq is the exact posterior-mean risk at the truth; the floor is
    nontrivial once n mu_sq > 32 log 4.
    """
    base = 1.0 - concentration_bound(n, mu_sq)
    if base <= 0.0:
        return 0.0
    return 0.25 * base * base
