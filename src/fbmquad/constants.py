"""Limit constants of the critical-case fluctuation law.

The lattice sums

    kappa_m(H) = sum_{p in Z} rho(p, H)^m        (m odd, m(2 - 2H) > 1)

converge because |rho(p)| <= 2H|2H - 1| (|p| - 1)^{2H - 2} for |p| >= 2 (mean
value estimate for the second difference of x^{2H}).  A scheme whose leading
error term is sum_j f^(r)(mid_j) dB_j^r has, at its critical exponent
H = 1/(2r), the variance constant

    beta_r^2 = sum_{q = r, r-2, ..., 3} W_q 2^{-q} kappa_q(H),   W_q = C(r, p)^2 q!,

with x^r = sum_p C(r, p) H_{r-2p}(x) and q = r - 2p (``power_to_hermite``); the
q = 1 chaos telescopes and does not enter.  The same integer table W_q, down to
q = 1, gives the exact finite-n variance of sum_j dB_j^r
(``predicted_error_variance``).  Simpson's r = 5 gives the paper's beta,
evaluated at H = 1/10 in the headline experiment.  Truncation points are chosen
from the analytic tail bound, and terms are accumulated smallest first with
compensated summation (kappa_5 terms span ~14 orders of magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import HurstGrid, _integer, _real, rho
from .hermite import power_to_hermite

#: Floor on the truncation point so the bound's |p| >= 2 regime always applies.
_MIN_TRUNCATION = 4

#: Default accuracy of a kappa tail bound, or of beta_r itself.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class KappaResult:
    """Value of a truncated lattice sum with its analytic tail bound."""

    m: int
    H: float
    value: float
    truncation_P: int
    tail_bound: float


def kappa(m: int, H: float, tol: float = DEFAULT_TOL) -> KappaResult:
    """Lattice sum sum_{|p| <= P} rho(p, H)^m with tail below tol.

    Requires odd m >= 3 and m(2 - 2H) > 1 for convergence.  At H = 1/2 only
    p = 0 contributes and the sum is exactly 2^m.
    """
    m = _integer(m, "m must be an odd integer >= 3")
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be an odd integer >= 3, got {m}")
    H = _real(H, "H must be a real number")
    tol = _real(tol, "tol must be a real number")
    if not 0.0 < H < 1.0:
        raise ValueError(f"H must lie in (0, 1), got {H}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
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


def beta(H: float = 0.1, tol: float = DEFAULT_TOL) -> float:
    """The paper's standard-deviation constant beta_5, for Simpson sums."""
    return math.sqrt(beta_squared(*beta_terms(H, tol)))


def beta_squared(*kappas: KappaResult) -> float:
    """The limit variance constant beta_r^2 = sum_q W_q 2^{-q} kappa_q of ``beta_terms``' sums."""
    weights = dict(_chaos_weights(max(k.m for k in kappas)))
    beta_sq = sum(weights[k.m] / 2**k.m * k.value for k in kappas)  # W_q / 2^q is exact
    if beta_sq <= 0.0:
        # a limit variance is nonnegative: a computation defect, not a value to clamp
        raise ArithmeticError(f"variance constant came out nonpositive: {beta_sq}")
    return beta_sq


def beta_terms(H: float, tol: float = DEFAULT_TOL, r: int = 5) -> tuple[KappaResult, ...]:
    """The lattice sums kappa_q, q = r, r-2, ..., 3, entering beta_r, each truncated so beta_r is within tol."""
    # kappa_q within tol / (2 w_q), w_q = W_q 2^{-q}, moves beta_r^2 by at most
    # (r-1)/4 tol, hence beta_r = sqrt(beta_r^2) by at most tol when beta_r >= (r-1)/8
    return tuple(kappa(q, H, tol / (w / 2 ** (q - 1))) for q, w in _chaos_weights(r) if q >= 3)


def predicted_error_variance(grid: HurstGrid, r: int, c: float = 1.0) -> float:
    """Exact Var(c * sum_j dB_j^r) over the floor(nT) increments of ``grid``.

    Splitting the r-th power over the Hermite basis gives pairwise moments
    E[X^r Y^r] = sum_q W_q Cov^q Var^{r-q}, W_q from ``_chaos_weights``, so the
    variance reduces to lag sums of the increment autocovariance.
    """
    m = grid.num_increments
    lags = np.arange(-(m - 1), m)
    weights = (m - np.abs(lags)).astype(np.float64)
    half_rho = rho(lags, grid.H) / 2.0
    v = float(grid.n) ** (-2.0 * grid.H)
    total = 0.0
    for q, w in _chaos_weights(r):
        total += w * v ** (r - q) * v**q * float(np.sum(weights * half_rho**q))
    return c * c * total


def _chaos_weights(r: int) -> list[tuple[int, int]]:
    """(q, W_q) with the integer W_q = C(r, p)^2 q!, for q = r - 2p = r, r-2, ..., 1."""
    r = _integer(r, "r must be an odd integer >= 3")
    if r < 3:
        raise ValueError(f"r must be an odd integer >= 3, got {r}")
    return [
        (r - 2 * p, c * c * math.factorial(r - 2 * p))
        for p, c in enumerate(power_to_hermite(r).coeffs)
    ]
