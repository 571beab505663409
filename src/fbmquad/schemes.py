"""Riemann-sum quadrature schemes applied to sampled paths.

Four composite rules, each evaluating f' at affine nodes B_j + c * dB_j inside
every increment and weighting so the weights sum to one: midpoint (node 1/2),
trapezoid (nodes 0, 1), Simpson (nodes 0, 1/2, 1; weights 1/6, 4/6, 1/6) and
Milne, i.e. Boole (nodes 0, 1/4, 1/2, 3/4, 1; weights 7, 32, 12, 32, 7 over 90).

The scheme table is the ``SchemeKind`` members: each is defined by its name,
nodes and weights, and every error law follows from them.
Expanding both f' at the nodes and f(B_{j+1}) - f(B_j) about the midpoint
gives, per increment and exactly for polynomial f,

    f(B_{j+1}) - f(B_j) = sum_w weight_w f'(B_j + c_w dB_j) dB_j
                          - sum_{odd r >= 3} a_r f^(r)(mid_j) dB_j^r,
    a_r = S_{r-1} / (r-1)! - 2^{1-r} / r!,   S_i = sum_w weight_w (c_w - 1/2)^i.

Even r drop out because every rule is symmetric about 1/2, and a_1 = 0 because
the weights sum to one.  A polynomial of degree <= 10 has no term past r = 9.
The exact coefficients are computed once per scheme, when its member is
created.  Simpson's are the paper's constants at r = 5, 7, 9; the others begin

    rule       r = 3    r = 5      r = 7
    midpoint   -1/24    -1/1920    -1/322560
    trapezoid  1/12     1/480      1/53760
    Milne      0        0          1/1935360

The first nonzero coefficient fixes the rest: the error power r, the
exactness degree r - 1, and the critical Hurst exponent 1/(2r) at or below
which the sums stop converging in probability (1/6, 1/6, 1/10, 1/14).

Every sum is written once, in one row-wise kernel over an (N, m+1) array of
path levels: per row, sum_j [sum_w weight_w g(B_j + c_w dB_j)] dB_j^r.  With
g = f' and r = 1 it is a composite rule (``riemann_sums``); with the midpoint
node mid_j = B_j + dB_j/2 and g = f^(r) it is an error term
(``midpoint_power_sums``).  The kernel runs the rows in blocks of whole
rows of at most ``_BLOCK`` = 2^15 elements, so that its few block-sized
buffers (256 KiB each) stay in L2 cache between passes; each row is reduced on
its own, so the block size moves no output bit.  The experiments hand it work
items of one sampler block (``pathgen.block_rows``), a size set by the FFT's
row batching, not by the kernel.  The single-path functions run it on the path
cut to floor(nt)/n by ``cut_levels``, as a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .covariance import floor_index
from .pathgen import FbmPath

#: Odd powers r of the error terms sum_j f^(r)(mid_j) dB_j^r that the error
#: decomposition keeps; with them it is exact for f of degree <= 10.
ERROR_POWERS = (3, 5, 7, 9)

F = Fraction


def _error_law(offsets, weights) -> tuple[dict[int, Fraction], int]:
    """Exact a_r, r in ERROR_POWERS, of a rule, and its error power: the first r with a_r != 0.

    A rule exact past degree 8 has no such r in ERROR_POWERS and raises ValueError.
    """
    coefficients = {}
    for r in ERROR_POWERS:
        moment = sum(w * (c - F(1, 2)) ** (r - 1) for c, w in zip(offsets, weights))
        coefficients[r] = moment / math.factorial(r - 1) - F(2) ** (1 - r) / math.factorial(r)
    power = next((r for r, a in coefficients.items() if a), None)
    if power is None:
        raise ValueError(f"the rule is exact past degree 8: a_r = 0 for every r in {ERROR_POWERS}")
    return coefficients, power


class SchemeKind(Enum):
    """The scheme table: each member holds its nodes and weights, and derives its error law once."""

    MIDPOINT = "midpoint", [F(1, 2)], [1]
    TRAPEZOID = "trapezoid", [0, 1], [F(1, 2), F(1, 2)]
    SIMPSON = "simpson", [0, F(1, 2), 1], [F(1, 6), F(4, 6), F(1, 6)]
    MILNE = "milne", [0, F(1, 4), F(1, 2), F(3, 4), 1], [F(w, 90) for w in (7, 32, 12, 32, 7)]

    def __new__(cls, value: str, offsets, weights):
        member = object.__new__(cls)
        member._value_ = value
        member._offsets = offsets = tuple(F(c) for c in offsets)
        member._weights = weights = tuple(F(w) for w in weights)
        # (offset, weight) as floats, the node table of riemann_sums
        member._nodes = tuple((float(c), float(w)) for c, w in zip(offsets, weights))

        member._coefficients, member._power = _error_law(offsets, weights)
        # (r, float(a_r)) from the error power on, the terms of error_decomposition
        member._error_terms = tuple(
            (r, float(a)) for r, a in member._coefficients.items() if r >= member._power
        )
        return member

    @property
    def offsets(self) -> tuple[Fraction, ...]:
        """Node positions inside an increment, as fractions of dB."""
        return self._offsets

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """Node weights; sum to 1 exactly."""
        return self._weights

    @property
    def error_coefficients(self) -> dict[int, Fraction]:
        """Exact a_r for r in ERROR_POWERS: the rule's error is sum_r a_r f^(r)(mid) dB^r."""
        return dict(self._coefficients)

    @property
    def error_power(self) -> int:
        """Power r of dB in the leading error term sum f^(r)(mid) dB^r."""
        return self._power

    @property
    def critical_hurst(self) -> Fraction:
        """Hurst threshold 1/(2r) at or below which the rule stops converging in probability."""
        return F(1, 2 * self.error_power)

    @property
    def exact_degree(self) -> int:
        """Largest polynomial degree of f reproduced exactly on any path."""
        return self.error_power - 1


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


class TestFunction:
    """Integrand descriptor: callable, with an exact derivative of every order k >= 0.

    Instances are immutable values: equal functions compare equal and hash
    alike, so a frozen config holding one is hashable.
    """

    __slots__ = ()

    def derivative(self, k: int = 1) -> "TestFunction":
        """The k-th derivative, k >= 0; a negative k raises ValueError."""
        raise NotImplementedError

    def __call__(self, x, out=None):
        """Evaluate at x; a float for a scalar x, else an array of x's shape.

        An array x may be evaluated into ``out``, a float64 array of its shape
        that shares no memory with x (else ValueError); the call returns ``out``.
        For finite x the result is bit-equal to the per-step form, which
        allocates at every step: Horner as ``acc = acc * x + c`` from acc = 0,
        and the cosine as amplitude times its branch.
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
    rule in place in one accumulator, starting from c_n x, so an infinite x
    gives +-inf (or nan from inf - inf) where the zero start gave 0 * inf = nan.
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
        _check_order(k)
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
        # acc = acc * x + c from acc = 0 with the passes that cannot change a
        # finite result cut: the first step is c_n exactly, and an interior
        # zero c only sets the sign of a zero, which the final + c_0 clears
        x = np.asarray(x, dtype=np.float64)
        if out is None:
            out = np.empty_like(x)
        else:
            _check_unaliased(out, x)
        coeffs = self._horner_coeffs
        if len(coeffs) < 2:
            out.fill(coeffs[0] if coeffs else 0.0)
        else:
            np.multiply(x, coeffs[0], out=out)
            for c in coeffs[1:-1]:
                if c:
                    out += c
                out *= x
            out += coeffs[-1]
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
        _check_order(k)
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
        else:
            _check_unaliased(out, x)
        np.multiply(self.frequency, x, out=out)
        wave(out, out=out)
        out *= scale
        return float(out) if x.ndim == 0 else out

    def spec(self) -> str:
        text = f"cos:{self.amplitude!r},{self.frequency!r}"
        return f"{text},{self.quarter_turns}" if self.quarter_turns else text


def _check_order(k: int) -> None:
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")


def _check_unaliased(out: np.ndarray, x: np.ndarray) -> None:
    if np.may_share_memory(out, x):
        raise ValueError("out must not share memory with x")


def parse_test_function(text: str) -> TestFunction:
    """Parse the CLI's --f syntax.

    Either a comma list of rational polynomial coefficients lowest degree
    first (``"0,0,0,0,0,1/120"`` is x^5/120) or a named smooth function
    (``"cos"``, ``"cos:amplitude,frequency"`` or
    ``"cos:amplitude,frequency,quarter_turns"`` with an integer third field).
    """
    text = text.strip()
    if text == "cos":
        return ScaledCosine()
    if text.startswith("cos:"):
        parts = text[4:].split(",")
        if len(parts) > 3:
            raise ValueError(f"cos takes at most amplitude,frequency,quarter_turns, got {text!r}")
        try:
            args = [float(Fraction(p)) for p in parts[:2]] + [int(p) for p in parts[2:]]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse test function {text!r}: {exc}") from None
        return ScaledCosine(*args)
    try:
        return Polynomial(Fraction(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse test function {text!r}: {exc}") from None


def constant_value(g) -> float | None:
    """The value of g if it is a constant ``Polynomial`` or ``ScaledCosine``, else None.

    A ``ScaledCosine`` is constant when its amplitude or frequency is 0.
    """
    if isinstance(g, Polynomial) and g.degree == 0:
        return float(g.coeffs[0]) if g.coeffs else 0.0
    if isinstance(g, ScaledCosine) and 0.0 in (g.amplitude, g.frequency):
        return float(g(0.0))
    return None


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


#: Elements of one kernel block: 2^15 float64 (256 KiB) per buffer keeps a
#: kernel's buffers in L2 between its passes.  On a 2-core Xeon with 2 MiB L2
#: per core, Simpson on 64 x 2048 took 1.22 / 1.07 / 1.54 ms at 2^13 / 2^15 /
#: 2^17.  A block holds whole rows, so each row is reduced in the same
#: pairwise order as in one pass over all rows.
_BLOCK = 2**15


def _row_blocks(values: np.ndarray):
    """Buffer shape (rows per block, m) of an (N, m+1) level array, and the row slices of its blocks."""
    n_rows, m = values.shape[0], values.shape[1] - 1
    rows = max(1, min(n_rows, _BLOCK // max(m, 1)))
    return (rows, m), [slice(lo, lo + rows) for lo in range(0, n_rows, rows)]


def _node_sums(values: np.ndarray, g, kind: SchemeKind, r: int) -> np.ndarray:
    """Row-wise sum_j [sum_w weight_w g(B_j + c_w dB_j)] dB_j^r over an (N, m+1) array of levels.

    The rows run in blocks of at most ``_BLOCK`` elements through block-sized
    arrays (increments, accumulator, node, and value for a rule of more than
    one node), allocated once per call.  Per element the bits equal
    ``acc += weight * g(left + offset * dB)`` from acc = 0, times dB^r, with
    the passes that cannot change them cut: an offset-0 node is the left
    level, an offset-1 node is left + dB, a unit weight is not multiplied, and
    the first node is evaluated into the accumulator, keeping a -0.0 that 0 + g
    clears, as ``np.add.reduce`` sums a row of -0.0 to +0.0.  dB^r is formed
    by in-place square-and-multiply, as ``db**r`` goes through libm ``pow`` at
    many times the cost.
    """
    shape, blocks = _row_blocks(values)
    db, acc, node = np.empty(shape), np.empty(shape), np.empty(shape)
    value = np.empty(shape) if len(kind._nodes) > 1 else None
    sums = np.empty(len(values))
    for block in blocks:
        levels = values[block]
        k = len(levels)
        left = levels[:, :-1]
        d = np.subtract(levels[:, 1:], left, out=db[:k])
        a = acc[:k]
        x = power = node[:k]  # free again once every node is evaluated
        for i, (offset, weight) in enumerate(kind._nodes):
            if offset == 0.0:
                at = left
            elif offset == 1.0:
                at = np.add(left, d, out=x)
            else:
                at = np.multiply(d, offset, out=x)
                at += left
            target = a if i == 0 else value[:k]
            g(at, out=target)
            if weight != 1.0:
                target *= weight
            if i:
                a += target
        if r == 1:
            power = d
        elif r > 1:
            np.copyto(power, d)
            for bit in bin(r)[3:]:
                power *= power
                if bit == "1":
                    power *= d
        if r:
            a *= power
        sums[block] = np.add.reduce(a, axis=1)
    return sums


def riemann_sums(values: np.ndarray, f: TestFunction, kind: SchemeKind) -> np.ndarray:
    """Row-wise composite rule sum_j [sum_w weight_w f'(B_j + c_w dB_j)] dB_j of (N, m+1) levels."""
    return _node_sums(values, f.derivative(1), kind, 1)


def midpoint_power_sums(values: np.ndarray, g, r: int) -> np.ndarray:
    """Row-wise sum_j g(mid_j) dB_j^r, mid_j = B_j + dB_j/2, over an (N, m+1) array of levels.

    With g = f^(r) it gives the error terms of ``error_decomposition``; r = 0
    gives n times the midpoint rule for integral g(B_s) ds.  g is called as
    ``g(x, out=array)``.
    """
    return _node_sums(values, g, SchemeKind.MIDPOINT, r)


def riemann_sum(path: FbmPath, f: TestFunction, kind: SchemeKind, t: float) -> float:
    """Composite Riemann sum sum_j [sum_w weight_w f'(node_w)] dB_j up to floor(nt)/n."""
    return float(riemann_sums(cut_levels(path, t), f, kind)[0])


@dataclass(frozen=True)
class ErrorDecomposition:
    """Exact split of a composite Riemann sum: ``main`` minus every term telescopes to f(B_end) - f(0).

    ``terms[r]`` is a_r sum_j f^(r)(mid_j) dB_j^r, for r from the scheme's
    error power to 9 in increasing order.
    """

    main: float
    terms: dict[int, float]

    def telescoped(self) -> float:
        total = self.main
        for term in self.terms.values():
            total -= term
        return total


def error_decomposition(
    path: FbmPath, f: TestFunction, kind: SchemeKind, t: float
) -> ErrorDecomposition:
    """Split the scheme's Riemann sum up to floor(nt)/n into its exact midpoint-Taylor error terms.

    Requires a polynomial f of degree <= 10 so every term past r = 9 vanishes
    identically and the decomposition is an exact pathwise identity.
    """
    if f.degree is None:
        raise ValueError("decomposition requires a polynomial test function")
    if f.degree > 10:
        raise ValueError(f"decomposition requires degree <= 10, got {f.degree}")
    values = cut_levels(path, t)
    main = float(riemann_sums(values, f, kind)[0])
    # + 0.0 turns the -0.0 of a negative a_r times a vanishing sum into 0.0
    # and leaves every other value as it is
    terms = {
        r: coef * float(midpoint_power_sums(values, f.derivative(r), r)[0]) + 0.0
        for r, coef in kind._error_terms
    }
    return ErrorDecomposition(main=main, terms=terms)


def simpson_error_decomposition(path: FbmPath, f: TestFunction, t: float) -> ErrorDecomposition:
    """``error_decomposition`` of the Simpson sum, the paper's telescoping identity."""
    return error_decomposition(path, f, SchemeKind.SIMPSON, t)


def cut_levels(path: FbmPath, t: float) -> np.ndarray:
    """The path's levels at 0, 1/n, ..., floor(nt)/n, as a batch of one row."""
    grid = path.grid
    if not 0.0 < t <= grid.T:
        raise ValueError(f"time {t} outside (0, {grid.T}]")
    m = min(floor_index(grid.n, t), grid.num_increments)
    return path.values[None, : m + 1]
