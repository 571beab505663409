"""Limit constants of the critical-case fluctuation law.

The lattice sums

    kappa_m(H) = sum_{p in Z} rho(p, H)^m        (m odd, m(2 - 2H) > 1)

converge because |rho(p)| <= 2H|2H - 1| (|p| - 1)^{2H - 2} for |p| >= 2 (mean
value estimate for the second difference of x^{2H}).  The standard-deviation
constant of the critical Simpson fluctuation is

    beta(H) = sqrt(5! 2^{-5} kappa_5(H) + 75 kappa_3(H)),

evaluated at H = 1/10 in the headline experiment.  Truncation points are
chosen from the analytic tail bound, and terms are accumulated smallest
first with compensated summation (kappa_5 terms span ~14 orders of
magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .covariance import rho

#: Floor on the truncation point so the bound's |p| >= 2 regime always applies.
_MIN_TRUNCATION = 4


@dataclass(frozen=True)
class KappaResult:
    """Value of a truncated lattice sum with its analytic tail bound."""

    m: int
    H: float
    value: float
    truncation_P: int
    tail_bound: float


def kappa(m: int, H: float, tol: float = 1e-10) -> KappaResult:
    """Lattice sum sum_{|p| <= P} rho(p, H)^m with tail below tol.

    Requires odd m >= 3 and m(2 - 2H) > 1 for convergence.  At H = 1/2 only
    p = 0 contributes and the sum is exactly 2^m.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be an odd integer >= 3, got {m}")
    if not 0.0 < H < 1.0:
        raise ValueError(f"H must lie in (0, 1), got {H}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    decay = m * (2.0 - 2.0 * H)  # |rho(p)^m| ~ p^{-decay}
    if decay <= 1.0:
        raise ValueError(f"series diverges: need m(2 - 2H) > 1, got {decay}")
    bound_const = 2.0 * H * abs(2.0 * H - 1.0)
    if bound_const == 0.0:
        P = _MIN_TRUNCATION
        tail = 0.0
    else:
        # 2 C^m integral_{P-1}^inf x^{-decay} dx < tol
        P = 1 + math.ceil(
            (2.0 * bound_const**m / (tol * (decay - 1.0))) ** (1.0 / (decay - 1.0))
        )
        P = max(P, _MIN_TRUNCATION)
        tail = 2.0 * bound_const**m * (P - 1.0) ** (1.0 - decay) / (decay - 1.0)
    body = math.fsum(rho(p, H) ** m for p in range(P, 0, -1))
    return KappaResult(m=m, H=H, value=2.0 * body + 2.0**m, truncation_P=P, tail_bound=tail)


def beta(H: float = 0.1, tol: float = 1e-10) -> float:
    """Standard-deviation constant sqrt(5! 2^{-5} kappa_5 + 75 kappa_3)."""
    radicand = beta_squared(*beta_terms(H, tol))
    if radicand <= 0.0:
        # The radicand is a limit variance, hence nonnegative; reaching this
        # line means a computation defect, not a value to clamp.
        raise ArithmeticError(f"variance constant came out nonpositive: {radicand}")
    return math.sqrt(radicand)


def beta_squared(k5: KappaResult, k3: KappaResult) -> float:
    """The limit variance constant beta^2 = 5! 2^{-5} kappa_5 + 75 kappa_3."""
    return 120.0 / 32.0 * k5.value + 75.0 * k3.value


def beta_terms(H: float, tol: float = 1e-10) -> tuple[KappaResult, KappaResult]:
    """The two lattice sums entering beta, each truncated so beta is within tol."""
    # |d beta| <= (3.75 |d kappa_5| + 75 |d kappa_3|) / (2 beta), beta > 1 here
    k5 = kappa(5, H, tol / 7.5)
    k3 = kappa(3, H, tol / 150.0)
    return k5, k3
