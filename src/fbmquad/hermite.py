"""Hermite polynomials with unit leading coefficient and monomial expansions.

The recurrence H_{q+1}(x) = x H_q(x) - q H_{q-1}(x) with H_0 = 1, H_1 = x
generates the probabilists' Hermite family normalized to leading coefficient
one, so E[H_p(N) H_q(N)] = q! 1{p=q} for a standard normal N.  Odd monomials
expand exactly as x^r = sum_p C(r, p) H_{r-2p}(x) with the integer
coefficients C(r, p) = r! / (2^p p! (r-2p)!), the number of ways to pair off p
disjoint pairs among r factors; they drive the chaos decomposition of
increment powers used by the variance analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Monomial powers for which an expansion is provided (the error analysis
#: never needs powers beyond the order-11 remainder).
SUPPORTED_POWERS = (1, 3, 5, 7, 9, 11)


def hermite_eval(q: int, x):
    """Evaluate H_q at x (scalar or array) by the upward recurrence."""
    if q < 0:
        raise ValueError(f"order q must be >= 0, got {q}")
    x = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(x)
    if q == 0:
        return float(prev) if x.ndim == 0 else prev
    cur = x.copy()
    for degree in range(1, q):
        prev, cur = cur, x * cur - degree * prev
    return float(cur) if x.ndim == 0 else cur


@dataclass(frozen=True)
class ChaosExpansion:
    """Integer coefficients C(r, p) with x^r = sum_p C(r, p) H_{r-2p}(x)."""

    power: int
    coeffs: tuple[int, ...]

    def reconstruct(self, x):
        """Evaluate sum_p C(r, p) H_{r-2p}(x); equals x**power up to rounding."""
        total = None
        for p, c in enumerate(self.coeffs):
            term = c * hermite_eval(self.power - 2 * p, x)
            total = term if total is None else total + term
        return total


def power_to_hermite(r: int) -> ChaosExpansion:
    """Expand the odd monomial x^r over the Hermite basis, exactly in integers.

    C(r, p) = r! / (2^p p! (r-2p)!) for p = 0..(r-1)/2; C(r, 0) = 1 always.
    """
    if r not in SUPPORTED_POWERS:
        raise ValueError(f"power must be one of {SUPPORTED_POWERS}, got {r}")
    f = math.factorial
    coeffs = tuple(f(r) // (2**p * f(p) * f(r - 2 * p)) for p in range(r // 2 + 1))
    return ChaosExpansion(power=r, coeffs=coeffs)
