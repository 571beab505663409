"""Riemann-sum quadrature schemes applied to sampled paths.

Four composite rules, each evaluating f' at affine nodes B_j + c * dB_j inside
every increment and weighting so the weights sum to one:

- midpoint (node 1/2), trapezoid (nodes 0, 1): exact when f is a polynomial of
  degree <= 2, convergent for H > 1/6;
- Simpson (nodes 0, 1/2, 1; weights 1/6, 4/6, 1/6): exact for degree <= 4,
  convergent for H > 1/10;
- Milne, i.e. Boole (nodes 0, 1/4, 1/2, 3/4, 1; weights 7, 32, 12, 32, 7 over
  90): exact for degree <= 6, convergent for H > 1/14.

For the Simpson rule the per-increment error admits an exact midpoint Taylor
decomposition: with h = dB/2,

    f(B_{j+1}) - f(B_j) = (h/3)(f'(B_j) + 4 f'(mid) + f'(B_{j+1}))
        - f^(5)(mid) h^5 / 90 - f^(7)(mid) h^7 / 1890 - f^(9)(mid) h^9 / 90720,

an identity for polynomials of degree <= 10 (the order-11 remainder vanishes).
Expressed against dB^k instead of h^k the three error coefficients pick up
factors 2^-5, 2^-7, 2^-9.

Each formula is written once, as a row-wise kernel over an (N, m+1) array of
path levels: ``riemann_sums`` for the composite rules and
``midpoint_power_sums`` for sum_j g(mid_j) dB_j^r, which serves the error
statistic and the Simpson error terms.  The single-path functions run these
kernels on the path cut to floor(nt)/n by ``cut_levels``, as a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .covariance import floor_index
from .pathgen import FbmPath

#: Coefficients of the Simpson error terms against dB^5, dB^7, dB^9.
SIMPSON_DB5_COEF = 1.0 / 2880.0
SIMPSON_DB7_COEF = 1.0 / 241920.0
SIMPSON_DB9_COEF = 1.0 / 46448640.0

F = Fraction


class SchemeKind(Enum):
    MIDPOINT = "midpoint"
    TRAPEZOID = "trapezoid"
    SIMPSON = "simpson"
    MILNE = "milne"

    @property
    def offsets(self) -> tuple[Fraction, ...]:
        """Node positions inside an increment, as fractions of dB."""
        return _SCHEMES[self][0]

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Node weights; sum to 1 exactly."""
        return _SCHEMES[self][1]

    @property
    def critical_hurst(self) -> Fraction:
        """Hurst threshold at or below which the rule stops converging in probability."""
        return _SCHEMES[self][2]

    @property
    def error_power(self) -> int:
        """Power r of dB in the leading error term sum f^(r)(mid) dB^r."""
        return _SCHEMES[self][3]

    @property
    def exact_degree(self) -> int:
        """Largest polynomial degree of f reproduced exactly on any path."""
        return _SCHEMES[self][4]


_SCHEMES = {
    SchemeKind.MIDPOINT: ((F(1, 2),), (F(1),), F(1, 6), 3, 2),
    SchemeKind.TRAPEZOID: ((F(0), F(1)), (F(1, 2), F(1, 2)), F(1, 6), 3, 2),
    SchemeKind.SIMPSON: (
        (F(0), F(1, 2), F(1)),
        (F(1, 6), F(4, 6), F(1, 6)),
        F(1, 10),
        5,
        4,
    ),
    SchemeKind.MILNE: (
        (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
        (F(7, 90), F(32, 90), F(12, 90), F(32, 90), F(7, 90)),
        F(1, 14),
        7,
        6,
    ),
}


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


class TestFunction:
    """Integrand descriptor: callable with exact derivatives of any order <= 11.

    Instances are immutable values: equal functions compare equal and hash
    alike, so a frozen config holding one is hashable.
    """

    __slots__ = ()

    def derivative(self, k: int = 1) -> "TestFunction":
        raise NotImplementedError

    def __call__(self, x, out=None):
        """Evaluate at x; a float for a scalar x, else an array of x's shape.

        An array x may be evaluated into ``out``, a float64 array of its shape
        that shares no memory with x; the call returns ``out``.
        """
        raise NotImplementedError

    @property
    def degree(self) -> int | None:
        """Polynomial degree, or None for non-polynomial functions."""
        return None

    def spec(self) -> str:
        """Round-trippable text form (the CLI's --f syntax)."""
        raise NotImplementedError


class Polynomial(TestFunction):
    """Polynomial with exact rational coefficients, lowest degree first.

    Immutable and hashed on ``coeffs``.  Each derivative's exact coefficients
    are computed once per instance, on first request, and the same
    ``Polynomial`` is returned on every later call.  Evaluation runs Horner's
    rule in place in one accumulator.
    """

    __slots__ = ("_coeffs", "_horner_coeffs", "_derivatives")

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)
        self._horner_coeffs = tuple(float(c) for c in reversed(self._coeffs))
        self._derivatives = {}

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1 if self._coeffs else 0

    def derivative(self, k: int = 1) -> "Polynomial":
        # past the degree every derivative is the zero polynomial; setdefault
        # keeps one result per order when threads fill the cache at once
        p = self
        for order in range(1, min(k, len(self._coeffs)) + 1):
            cached = self._derivatives.get(order)
            if cached is None:
                cached = self._derivatives.setdefault(
                    order, Polynomial([i * c for i, c in enumerate(p._coeffs)][1:])
                )
            p = cached
        return p

    def __call__(self, x, out=None):
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.zeros_like(x)
        else:
            out.fill(0.0)
        for c in self._horner_coeffs:
            out *= x
            out += c
        return float(out) if x.ndim == 0 else out

    def spec(self) -> str:
        return ",".join(str(c) for c in self._coeffs) if self._coeffs else "0"

    def __repr__(self) -> str:
        return f"Polynomial({self.spec()!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)


@dataclass(frozen=True)
class ScaledCosine(TestFunction):
    """f(x) = a cos(w x + q pi/2) with integer quarter turns, so derivatives stay exact."""

    amplitude: float = 1.0
    frequency: float = 1.0
    quarter_turns: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "frequency", float(self.frequency))
        object.__setattr__(self, "quarter_turns", self.quarter_turns % 4)

    def derivative(self, k: int = 1) -> "ScaledCosine":
        return ScaledCosine(
            self.amplitude * self.frequency**k, self.frequency, self.quarter_turns + k
        )

    def __call__(self, x, out=None):
        # cos(u + q pi/2) is cos u, -sin u, -cos u, sin u; only that branch is
        # evaluated, and the sign goes into the amplitude, which is exact
        x = np.asarray(x, dtype=np.float64)
        q = self.quarter_turns
        wave = np.sin if q % 2 else np.cos
        scale = -self.amplitude if q in (1, 2) else self.amplitude
        if out is None:
            out = np.empty_like(x)
        np.multiply(self.frequency, x, out=out)
        wave(out, out=out)
        out *= scale
        return float(out) if x.ndim == 0 else out

    def spec(self) -> str:
        return f"cos:{self.amplitude!r},{self.frequency!r}"


def parse_test_function(text: str) -> TestFunction:
    """Parse the CLI's --f syntax.

    Either a comma list of rational polynomial coefficients lowest degree
    first (``"0,0,0,0,0,1/120"`` is x^5/120) or a named smooth function
    (``"cos"`` or ``"cos:amplitude,frequency"``).
    """
    text = text.strip()
    if text.startswith("cos"):
        if text == "cos":
            return ScaledCosine()
        _, _, args = text.partition(":")
        parts = [float(Fraction(p)) for p in args.split(",") if p.strip()]
        if len(parts) > 2:
            raise ValueError(f"cos takes at most amplitude,frequency, got {text!r}")
        return ScaledCosine(*parts)
    try:
        return Polynomial(Fraction(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse test function {text!r}: {exc}") from None


def constant_value(g) -> float | None:
    """The value of g if it is a constant ``Polynomial``, else None."""
    if not (isinstance(g, Polynomial) and g.degree == 0):
        return None
    return float(g.coeffs[0]) if g.coeffs else 0.0


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def riemann_sums(values: np.ndarray, f: TestFunction, kind: SchemeKind) -> np.ndarray:
    """Row-wise sum_j [sum_w weight_w f'(node_w)] dB_j over an (N, m+1) array of path levels.

    Every node is formed in one node buffer and f' evaluated into one value
    buffer, so the kernel holds four (N, m) arrays whatever the scheme; the
    floating-point operations and their order are those of
    ``acc += weight * f'(left + offset * dB)``.
    """
    left = values[:, :-1]
    db = np.diff(values, axis=1)
    fprime = f.derivative(1)
    acc = np.zeros_like(db)
    node = np.empty_like(db)
    value = np.empty_like(db)
    for offset, weight in zip(kind.offsets, kind.weights):
        np.multiply(db, float(offset), out=node)
        node += left
        fprime(node, out=value)
        value *= float(weight)
        acc += value
    acc *= db
    return np.sum(acc, axis=1)


def midpoint_power_sums(values: np.ndarray, g, r: int) -> np.ndarray:
    """Row-wise sum_j g(mid_j) dB_j^r over an (N, m+1) array of path levels.

    With g = f^(r), r = 5 gives the error statistic and r = 5, 7, 9 the Simpson
    error terms; r = 0 gives n times the midpoint rule for integral g(B_s) ds.
    dB^r is formed by in-place square-and-multiply, because ``db**r`` goes
    through libm ``pow`` at many times the cost.  A constant g skips the
    midpoints and is not evaluated.
    """
    db = np.diff(values, axis=1)
    terms = np.ones_like(db) if r == 0 else db.copy()
    for bit in bin(r)[3:]:
        terms *= terms
        if bit == "1":
            terms *= db
    c = constant_value(g)
    if c is None:
        terms *= g(0.5 * (values[:, :-1] + values[:, 1:]))
    elif c != 1.0:
        terms *= c
    return np.sum(terms, axis=1)


def riemann_sum(path: FbmPath, f: TestFunction, kind: SchemeKind, t: float) -> float:
    """Composite Riemann sum sum_j [sum_w weight_w f'(node_w)] dB_j up to floor(nt)/n."""
    return float(riemann_sums(cut_levels(path, t), f, kind)[0])


def error_statistic(path: FbmPath, f: TestFunction, t: float) -> float:
    """sum_j f^(5)(midpoint_j) dB_j^5, the statistic driving critical fluctuations."""
    return float(midpoint_power_sums(cut_levels(path, t), f.derivative(5), 5)[0])


@dataclass(frozen=True)
class SimpsonDecomposition:
    """Exact split of a Simpson sum: main - term5 - term7 - term9 telescopes to f(B_end) - f(0)."""

    main: float
    term5: float
    term7: float
    term9: float

    def telescoped(self) -> float:
        return self.main - self.term5 - self.term7 - self.term9


def simpson_error_decomposition(path: FbmPath, f: TestFunction, t: float) -> SimpsonDecomposition:
    """Split the Simpson sum into its exact midpoint-Taylor error terms.

    Requires a polynomial f of degree <= 10 so the order-11 remainder vanishes
    identically and the decomposition is an exact pathwise identity.
    """
    if f.degree is None:
        raise ValueError("decomposition requires a polynomial test function")
    if f.degree > 10:
        raise ValueError(f"decomposition requires degree <= 10, got {f.degree}")
    values = cut_levels(path, t)
    main = float(riemann_sums(values, f, SchemeKind.SIMPSON)[0])
    term5, term7, term9 = (
        coef * float(midpoint_power_sums(values, f.derivative(r), r)[0])
        for coef, r in ((SIMPSON_DB5_COEF, 5), (SIMPSON_DB7_COEF, 7), (SIMPSON_DB9_COEF, 9))
    )
    return SimpsonDecomposition(main=main, term5=term5, term7=term7, term9=term9)


def cut_levels(path: FbmPath, t: float) -> np.ndarray:
    """The path's levels at 0, 1/n, ..., floor(nt)/n, as a batch of one row."""
    grid = path.grid
    if not 0.0 < t <= grid.T:
        raise ValueError(f"time {t} outside (0, {grid.T}]")
    m = min(floor_index(grid.n, t), grid.num_increments)
    return path.values[None, : m + 1]
