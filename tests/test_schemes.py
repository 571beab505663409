"""Quadrature schemes: exactness degrees, the error decompositions, decay."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fbmquad import (
    FbmPath,
    GeneratorKind,
    HurstGrid,
    Polynomial,
    ScaledCosine,
    SchemeKind,
    error_decomposition,
    generate,
    generate_batch,
    parse_test_function,
    replication_seeds,
    riemann_sum,
    simpson_error_decomposition,
)
from fbmquad import schemes
from fbmquad.covariance import floor_index
from fbmquad.schemes import (
    ERROR_POWERS,
    constant_value,
    cut_levels,
    midpoint_power_sums,
    riemann_sums,
)
from oracle import (
    error_statistic,
    increments,
    kfold_derivative,
    midpoints,
    per_step_riemann_sums,
    per_step_value,
    pow_midpoint_terms,
)

CIRC = GeneratorKind.CIRCULANT_EMBEDDING

# ---------------------------------------------------------------------------
# scheme table
# ---------------------------------------------------------------------------


class TestSchemeTable:
    def test_weights_sum_to_one_exactly(self):
        for scheme in SchemeKind:
            assert sum(scheme.weights, Fraction(0)) == 1

    def test_node_layout(self):
        assert SchemeKind.MIDPOINT.offsets == (Fraction(1, 2),)
        assert SchemeKind.TRAPEZOID.weights == (Fraction(1, 2), Fraction(1, 2))
        assert SchemeKind.SIMPSON.weights == (Fraction(1, 6), Fraction(4, 6), Fraction(1, 6))
        assert SchemeKind.MILNE.offsets == (
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(1),
        )
        assert [w * 90 for w in SchemeKind.MILNE.weights] == [7, 32, 12, 32, 7]

    def test_critical_thresholds(self):
        assert SchemeKind.MIDPOINT.critical_hurst == Fraction(1, 6)
        assert SchemeKind.TRAPEZOID.critical_hurst == Fraction(1, 6)
        assert SchemeKind.SIMPSON.critical_hurst == Fraction(1, 10)
        assert SchemeKind.MILNE.critical_hurst == Fraction(1, 14)

    def test_error_powers(self):
        assert SchemeKind.SIMPSON.error_power == 5
        assert SchemeKind.MILNE.error_power == 7
        assert SchemeKind.TRAPEZOID.error_power == 3

    def test_exact_degrees(self):
        assert [s.exact_degree for s in SchemeKind] == [2, 2, 4, 6]

    def test_derived_error_coefficients(self):
        a = {s: s.error_coefficients for s in SchemeKind}
        assert [a[SchemeKind.MIDPOINT][r] for r in (3, 5, 7)] == [
            Fraction(-1, 24),
            Fraction(-1, 1920),
            Fraction(-1, 322560),
        ]
        assert [a[SchemeKind.TRAPEZOID][r] for r in (3, 5, 7)] == [
            Fraction(1, 12),
            Fraction(1, 480),
            Fraction(1, 53760),
        ]
        assert [a[SchemeKind.MILNE][r] for r in (3, 5, 7)] == [0, 0, Fraction(1, 1935360)]
        assert a[SchemeKind.SIMPSON][3] == 0
        for scheme in SchemeKind:
            assert list(a[scheme]) == list(ERROR_POWERS)
            assert min(r for r, coef in a[scheme].items() if coef) == scheme.error_power

    @pytest.mark.parametrize(
        "name",
        [
            "name",
            "value",
            "offsets",
            "weights",
            "error_coefficients",
            "error_power",
            "critical_hurst",
            "exact_degree",
        ],
    )
    def test_public_attributes_are_read_only(self, name):
        for scheme in SchemeKind:
            with pytest.raises(AttributeError):
                setattr(scheme, name, getattr(scheme, name))

    def test_error_coefficients_are_a_fresh_dict(self):
        a = SchemeKind.SIMPSON.error_coefficients
        a[5] = Fraction(0)
        assert SchemeKind.SIMPSON.error_coefficients[5] == Fraction(1, 2880)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


class TestTestFunctions:
    def test_polynomial_derivative_against_sympy(self, rng):
        x = sp.symbols("x")
        for _ in range(5):
            coeffs = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9))) for _ in range(9)]
            poly = Polynomial(coeffs)
            expr = sum(sp.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coeffs))
            for k in (1, 3, 5, 11):
                ours = poly.derivative(k)
                theirs = sp.Poly(sp.diff(expr, x, k), x).all_coeffs()[::-1] or [0]
                assert [sp.Rational(c.numerator, c.denominator) for c in ours.coeffs] == list(
                    theirs
                )[: len(ours.coeffs)]
                assert all(c == 0 for c in theirs[len(ours.coeffs) :])

    def test_polynomial_evaluation(self):
        f = Polynomial([1, 0, Fraction(1, 2)])
        assert f(2.0) == 3.0
        assert np.allclose(f(np.array([0.0, 2.0])), [1.0, 3.0])

    def test_degree_and_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([0]).degree == 0

    def test_cosine_derivative_cycle(self):
        f = ScaledCosine(2.0, 3.0)
        xs = np.linspace(-1, 1, 7)
        assert np.allclose(f.derivative(1)(xs), -6.0 * np.sin(3.0 * xs))
        assert np.allclose(f.derivative(4)(xs), 2.0 * 3.0**4 * np.cos(3.0 * xs))
        assert f.degree is None

    def test_parse_round_trip(self):
        for text in ("0,0,0,0,0,1/120", "1,-2,3/4", "cos", "cos:2.0,0.5"):
            f = parse_test_function(text)
            again = parse_test_function(f.spec())
            xs = np.linspace(-2, 2, 9)
            assert np.array_equal(f(xs), again(xs))

    def test_constant_value(self):
        assert constant_value(Polynomial([])) == 0.0
        assert constant_value(Polynomial([Fraction(-5, 2), 0])) == -2.5
        assert constant_value(Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)]).derivative(5)) == 1.0
        assert constant_value(Polynomial([1, 1])) is None
        assert constant_value(ScaledCosine()) is None
        assert constant_value(ScaledCosine(0, 1)) == 0.0
        assert constant_value(ScaledCosine(1, 0)) == 1.0
        assert constant_value(ScaledCosine(1, 0, 2)) == -1.0
        assert constant_value(lambda x: 1.0) is None

    def test_polynomial_is_an_immutable_value(self):
        p = Polynomial([0, 1])
        with pytest.raises(AttributeError):
            p.coeffs = (0, 0, 1)
        with pytest.raises(AttributeError):
            p.scale = 2.0
        assert p(2.0) == 2.0
        assert p == Polynomial([0, 1, 0]) and hash(p) == hash(Polynomial([0, 1, 0]))
        assert p != Polynomial([0, 2]) and p != ScaledCosine()

    def test_cosine_is_an_immutable_value(self):
        f = ScaledCosine()
        assert f == ScaledCosine() and hash(f) == hash(ScaledCosine(1, 1.0, 4))
        assert f != ScaledCosine(1.0, 2.0) and f != f.derivative(1)
        assert f.derivative(4) == f
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.amplitude = 2.0

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_test_function("1,junk")
        for text in ("cos:1,2,3,4", "cos:1,2,1/2", "cos:1,2,0.5", "cos:1,x", "cos:,2", "cosine"):
            with pytest.raises(ValueError):
                parse_test_function(text)

    def test_cosine_spec_keeps_quarter_turns(self):
        f = ScaledCosine()
        assert f.spec() == "cos:1.0,1.0"
        assert f.derivative(1).spec() == "cos:1.0,1.0,1"
        assert parse_test_function("cos:2,1/2,3") == ScaledCosine(2.0, 0.5, 3)

    def test_negative_derivative_order_raises(self):
        for f in (Polynomial([0, 1]), ScaledCosine()):
            with pytest.raises(ValueError, match="derivative order"):
                f.derivative(-1)
            assert f.derivative(0) == f

    def test_out_sharing_memory_with_x_raises(self):
        x = np.linspace(-1.0, 1.0, 12)
        for f in (Polynomial([1, 2, 3]), ScaledCosine(2.0, 3.0, 1)):
            expected = f(x)
            for out in (x, x[::-1]):
                with pytest.raises(ValueError, match="share memory"):
                    f(x, out=out)
            assert np.array_equal(x, np.linspace(-1.0, 1.0, 12))
            assert np.array_equal(f(x, out=np.empty_like(x)), expected)


# ---------------------------------------------------------------------------
# random grids, paths and test functions, and the rounding scale of an exact
# identity
# ---------------------------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
POLYNOMIALS = st.lists(RATIONALS, min_size=1, max_size=11).map(Polynomial)
CONSTANTS = st.sampled_from([Polynomial([0]), Polynomial([1]), Polynomial([Fraction(-5, 2)])])
COSINES = st.builds(
    ScaledCosine,
    st.floats(0.1, 3.0),
    st.floats(0.1, 4.0),
    st.integers(0, 3),
)


@st.composite
def batches(draw, functions=st.one_of(POLYNOMIALS, COSINES)):
    """Paths on a random grid, an off-grid or on-grid horizon t, and a test function."""
    H = draw(st.floats(0.02, 0.95))
    n = draw(st.integers(3, 300))
    T = draw(st.sampled_from([1.0, 0.7, 2.3]))
    grid = HurstGrid(H, n, T=T)
    t = draw(st.one_of(st.just(T), st.floats(0.01, 1.0).map(lambda u: u * T)))
    seeds = replication_seeds(draw(st.integers(0, 2**64)), 0, draw(st.integers(1, 5)))
    values = generate_batch(grid, CIRC, seeds)
    m = min(floor_index(n, t), grid.num_increments)
    paths = [FbmPath(grid, row, seed=0) for row in values]
    return paths, values[:, : m + 1], t, draw(functions)


def _abs_polynomial(p):
    return Polynomial([abs(c) for c in p.coeffs])


def _telescope_scale(levels, f, scheme):
    """sum_j sum_(c, w) w |f'|(|B_j + c dB_j|) |dB_j| + |f|(|B_end|) + |f|(0), per row.

    |f| has the absolute coefficients of f; the rounding error of each side of
    an exact identity is a small multiple of machine epsilon times this sum.
    """
    g = _abs_polynomial(f)
    gprime = _abs_polynomial(f.derivative(1))
    left, db = levels[:, :-1], np.diff(levels, axis=1)
    rule = sum(
        float(w) * gprime(np.abs(left + float(c) * db))
        for c, w in zip(scheme.offsets, scheme.weights)
    )
    return np.sum(rule * np.abs(db), axis=1) + g(np.abs(levels[:, -1])) + g(0.0)


# ---------------------------------------------------------------------------
# Riemann sums
# ---------------------------------------------------------------------------


def random_paths(count, H=0.1, n=64, start=0):
    grid = HurstGrid(H, n)
    values = generate_batch(grid, CIRC, replication_seeds(1000 + start, 0, count))
    return grid, values


def fixed_batch(H, seeds, f):
    """A ``batches`` draw pinned to paths of 64 steps on [0, 1] from the given seeds, and f."""
    grid = HurstGrid(H, 64)
    paths = [generate(grid, CIRC, int(seed)) for seed in seeds]
    return paths, np.array([path.values for path in paths]), 1.0, f


class TestRiemannSum:
    def test_identity_function_telescopes(self):
        grid = HurstGrid(0.1, 64)
        path = generate(grid, CIRC, 21)
        f = Polynomial([0, 1])
        for scheme in SchemeKind:
            got = riemann_sum(path, f, scheme, 1.0)
            assert got == pytest.approx(path.values[-1], rel=1e-12)

    @pytest.mark.parametrize(
        "scheme,degree",
        [
            (SchemeKind.MIDPOINT, 2),
            (SchemeKind.TRAPEZOID, 2),
            (SchemeKind.SIMPSON, 4),
            (SchemeKind.MILNE, 6),
        ],
    )
    @given(batch=batches(functions=st.lists(RATIONALS, min_size=1, max_size=7)))
    @example(batch=fixed_batch(0.1, replication_seeds(1000, 0, 10), [1] * 7))
    @example(batch=fixed_batch(0.35, replication_seeds(1000, 0, 10), [1] * 7))
    def test_exactness_degree(self, scheme, degree, batch):
        # the rule reproduces f(B_end) - f(0) for deg f <= its exactness degree:
        # x^degree and a random polynomial of that degree, on random grids and
        # paths, within both a relative bound and the identity's rounding scale
        _, levels, _, coeffs = batch
        for f in (Polynomial([0] * degree + [1]), Polynomial(coeffs[: degree + 1])):
            expected = f(levels[:, -1]) - f(0.0)
            err = np.abs(riemann_sums(levels, f, scheme) - expected)
            assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(expected)))
            assert np.all(err <= 1e-12 * _telescope_scale(levels, f, scheme))

    def test_linearity(self):
        grid = HurstGrid(0.2, 64)
        path = generate(grid, CIRC, 5)
        f = Polynomial([0, 0, 1, 2])
        g = Polynomial([1, 3, 0, 0, 5])
        combo = Polynomial([2 * a + 3 * b for a, b in zip((0, 0, 1, 2, 0), (1, 3, 0, 0, 5))])
        lhs = riemann_sum(path, combo, SchemeKind.SIMPSON, 1.0)
        rhs = 2 * riemann_sum(path, f, SchemeKind.SIMPSON, 1.0) + 3 * riemann_sum(
            path, g, SchemeKind.SIMPSON, 1.0
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_partial_horizon(self):
        grid = HurstGrid(0.5, 64)
        path = generate(grid, CIRC, 9)
        f = Polynomial([0, 1])
        assert riemann_sum(path, f, SchemeKind.SIMPSON, 0.5) == pytest.approx(
            path.values[32], rel=1e-12
        )

    def test_time_validation(self):
        grid = HurstGrid(0.5, 64)
        path = generate(grid, CIRC, 9)
        f = Polynomial([0, 1])
        with pytest.raises(ValueError):
            riemann_sum(path, f, SchemeKind.SIMPSON, 0.0)
        with pytest.raises(ValueError):
            riemann_sum(path, f, SchemeKind.SIMPSON, 1.5)


# ---------------------------------------------------------------------------
# Simpson decomposition
# ---------------------------------------------------------------------------


def _sympy(q: Fraction):
    return sp.Rational(q.numerator, q.denominator)


class TestSimpsonDecomposition:
    def test_error_coefficients_from_symbolic_integration(self):
        # A_{4+2nu-1} = (1/3) (2nu-1)!^{-1} int_0^1 v^{2nu} (1-v)^2 dv, nu = 1, 2, 3,
        # then the dB-form coefficient divides by 2^{4+2nu-1}
        v = sp.symbols("v")
        halves = []
        for nu in (1, 2, 3):
            integral = sp.integrate(v ** (2 * nu) * (1 - v) ** 2, (v, 0, 1))
            halves.append(sp.Rational(1, 3) / sp.factorial(2 * nu - 1) * integral)
        assert halves == [sp.Rational(1, 90), sp.Rational(1, 1890), sp.Rational(1, 90720)]
        derived = SchemeKind.SIMPSON.error_coefficients
        for r, half in zip((5, 7, 9), halves):
            assert _sympy(derived[r]) == half / 2**r
        assert float(derived[5]) == 1.0 / 2880.0
        assert float(derived[7]) == 1.0 / 241920.0
        assert float(derived[9]) == 1.0 / 46448640.0

    def test_symbolic_identity_generic_degree_10(self):
        # g(x+h) - g(x-h) equals each scheme's node combination over [x-h, x+h]
        # minus its derived error terms a_r g^(r)(x) (2h)^r, identically for any
        # polynomial of degree <= 10
        x, h = sp.symbols("x h")
        coeffs = sp.symbols("c0:11")
        g = sum(c * x**i for i, c in enumerate(coeffs))
        lhs = g.subs(x, x + h) - g.subs(x, x - h)
        gp = sp.diff(g, x)
        for scheme in SchemeKind:
            rule = 2 * h * sum(
                _sympy(w) * gp.subs(x, x + (2 * _sympy(c) - 1) * h)
                for c, w in zip(scheme.offsets, scheme.weights)
            )
            errors = sum(
                _sympy(a) * sp.diff(g, x, r) * (2 * h) ** r
                for r, a in scheme.error_coefficients.items()
            )
            assert sp.expand(lhs - (rule - errors)) == 0

    def test_low_degree_terms_vanish(self):
        grid = HurstGrid(0.1, 64)
        path = generate(grid, CIRC, 31)
        f = Polynomial([0, 2, 0, 0, Fraction(1, 3)])
        d = simpson_error_decomposition(path, f, 1.0)
        assert list(d.terms) == [5, 7, 9]
        assert d.terms[5] == d.terms[7] == d.terms[9] == 0.0
        expected = f(float(path.values[-1])) - f(0.0)
        assert d.main == pytest.approx(expected, rel=1e-10)

    def test_pure_quintic_reduces_to_db5_sum(self):
        grid = HurstGrid(0.1, 64)
        path = generate(grid, CIRC, 32)
        f = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])
        d = simpson_error_decomposition(path, f, 1.0)
        assert d.terms[7] == d.terms[9] == 0.0
        db5 = float(np.sum(increments(path) ** 5))
        assert d.terms[5] == pytest.approx(db5 / 2880.0, rel=1e-12)
        expected = f(float(path.values[-1])) - f(0.0)
        assert d.main - d.terms[5] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("spec", ["0,0,0,0,0,1/120", "0,0,0,0,0,0,0,1", "0,0,0,0,0,0,0,0,0,1"])
    @given(batch=batches(functions=POLYNOMIALS), scheme=st.sampled_from(SchemeKind))
    @example(
        batch=fixed_batch(0.1, replication_seeds(77, 0, 10), Polynomial([1] * 11)),
        scheme=SchemeKind.SIMPSON,
    )
    @example(
        batch=fixed_batch(0.3, replication_seeds(77, 0, 10), Polynomial([1] * 11)),
        scheme=SchemeKind.SIMPSON,
    )
    @example(
        batch=fixed_batch(1 / 6, replication_seeds(77, 0, 10), Polynomial([1] * 11)),
        scheme=SchemeKind.MIDPOINT,
    )
    @example(
        batch=fixed_batch(1 / 14, replication_seeds(77, 0, 10), Polynomial([1] * 11)),
        scheme=SchemeKind.MILNE,
    )
    def test_pathwise_identity(self, spec, batch, scheme):
        # main minus every error term = f(B_t) - f(0) for the monomial and for a
        # random polynomial of degree <= 10, under every scheme, on random
        # grids, horizons and paths, within both a relative bound and the
        # identity's rounding scale
        paths, levels, t, g = batch
        for f in (parse_test_function(spec), g):
            scale = _telescope_scale(levels, f, scheme)
            db, mid = np.diff(levels, axis=1), 0.5 * (levels[:, :-1] + levels[:, 1:])
            for r in ERROR_POWERS:  # the error terms' sizes, their coefficients taken as 1
                f_r = _abs_polynomial(f.derivative(r))
                scale += np.sum(f_r(np.abs(mid)) * np.abs(db) ** r, axis=1)
            for path, end, row_scale in zip(paths, levels[:, -1], scale):
                expected = f(float(end)) - f(0.0)
                err = abs(error_decomposition(path, f, scheme, t).telescoped() - expected)
                assert err <= 1e-9 * max(1.0, abs(expected))
                assert err <= 1e-12 * row_scale

    def test_degree_limit(self):
        grid = HurstGrid(0.1, 16)
        path = generate(grid, CIRC, 1)
        with pytest.raises(ValueError):
            simpson_error_decomposition(path, Polynomial([0] * 11 + [1]), 1.0)
        with pytest.raises(ValueError):
            simpson_error_decomposition(path, ScaledCosine(), 1.0)
        for scheme in SchemeKind:
            with pytest.raises(ValueError, match="degree <= 10"):
                error_decomposition(path, Polynomial([0] * 11 + [1]), scheme, 1.0)


# ---------------------------------------------------------------------------
# error statistic
# ---------------------------------------------------------------------------


class TestErrorStatistic:
    def test_zero_for_low_degree(self):
        grid = HurstGrid(0.1, 64)
        path = generate(grid, CIRC, 51)
        assert error_statistic(path, Polynomial([1, 2, 3, 4, 5]), 1.0) == 0.0

    def test_constant_fifth_derivative(self):
        grid = HurstGrid(0.1, 64)
        path = generate(grid, CIRC, 52)
        f = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])
        assert error_statistic(path, f, 1.0) == pytest.approx(
            float(np.sum(increments(path) ** 5)), rel=1e-12
        )

    def test_single_increment_horizon(self):
        grid = HurstGrid(0.1, 64)
        path = generate(grid, CIRC, 53)
        f = Polynomial([0, 0, 0, 0, 0, 0, 1])
        t = 1.0 / 64
        expected = f.derivative(5)(midpoints(path)[0]) * increments(path)[0] ** 5
        assert error_statistic(path, f, t) == pytest.approx(float(expected), rel=1e-12)


def test_constant_statistic_peak_memory():
    # a constant g needs the increments and one array of powers: 2x the levels;
    # midpoints and g(mid) would add two more
    grid = HurstGrid(0.1, 2**14)
    values = generate_batch(grid, CIRC, replication_seeds(12, 0, 64))
    tracemalloc.start()
    try:
        midpoint_power_sums(values, Polynomial([1]), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * values.nbytes


def test_riemann_peak_memory():
    # the increments, the accumulator, one node buffer and one value buffer
    # are 4x the levels; a temporary per node or per Horner step adds more
    grid = HurstGrid(0.15, 2**13)
    values = generate_batch(grid, CIRC, replication_seeds(12, 0, 64))
    f = Polynomial([0] * 7 + [Fraction(1, 5040)])
    tracemalloc.start()
    try:
        riemann_sums(values, f, SchemeKind.MILNE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * values.nbytes


class TestSquaredStatisticDecay:
    @pytest.mark.parametrize("H", [0.15, 0.2])
    def test_log4_ratio_tracks_one_minus_10H(self, H):
        # Monte Carlo E[(sum f5(mid) dB^5)^2] at n and 4n: log_4 ratio near 1 - 10H
        f = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])
        reps = 1500
        moments = {}
        for n in (512, 2048):
            grid = HurstGrid(H, n)
            values = generate_batch(grid, CIRC, replication_seeds(600 + int(100 * H), 0, reps))
            db = np.diff(values, axis=1)
            stat = np.sum(db**5, axis=1)
            moments[n] = float(np.mean(stat**2))
        ratio = math.log(moments[2048] / moments[512], 4.0)
        assert abs(ratio - (1.0 - 10.0 * H)) <= 0.35


# ---------------------------------------------------------------------------
# batch kernels against the single-path functions
# ---------------------------------------------------------------------------

class TestBatchConsistency:
    @given(batch=batches(), scheme=st.sampled_from(SchemeKind))
    def test_batch_riemann_equals_pathwise(self, batch, scheme):
        paths, levels, t, f = batch
        sums = riemann_sums(levels, f, scheme)
        for i, path in enumerate(paths):
            assert sums[i] == riemann_sum(path, f, scheme, t)

    @given(batch=batches())
    def test_batch_error_statistic_equals_pathwise(self, batch):
        paths, levels, t, f = batch
        stats = midpoint_power_sums(levels, f.derivative(5), 5)
        for i, path in enumerate(paths):
            assert stats[i] == error_statistic(path, f, t)

    @given(batch=batches())
    def test_midpoint_rule_is_defined_once(self, batch):
        # the composite midpoint rule is the power sum at r = 1 with g = f'
        _, levels, _, f = batch
        assert_same_bits(
            riemann_sums(levels, f, SchemeKind.MIDPOINT),
            midpoint_power_sums(levels, f.derivative(1), 1),
        )

    @given(
        batch=batches(functions=st.one_of(CONSTANTS, POLYNOMIALS, COSINES)),
        r=st.integers(0, 11),
    )
    def test_power_sums_equal_pow_form(self, batch, r):
        # dB^r by multiplication rounds differently from pow; the sums agree to
        # within 1e-13 of the sum of the absolute terms
        _, levels, _, g = batch
        terms = pow_midpoint_terms(levels, g, r)
        err = np.abs(midpoint_power_sums(levels, g, r) - np.sum(terms, axis=1))
        assert np.all(err <= 1e-13 * np.sum(np.abs(terms), axis=1))

    @given(batch=batches(functions=POLYNOMIALS), scheme=st.sampled_from(SchemeKind))
    def test_batch_simpson_terms_equal_pathwise(self, batch, scheme):
        # the decomposition of every scheme, term by term, against the batch
        # kernels weighted by the float of each derived coefficient
        paths, levels, t, f = batch
        main = riemann_sums(levels, f, scheme)
        terms = {
            r: float(a) * midpoint_power_sums(levels, f.derivative(r), r)
            for r, a in scheme.error_coefficients.items()
            if r >= scheme.error_power
        }
        for i, path in enumerate(paths):
            d = error_decomposition(path, f, scheme, t)
            assert d.main == main[i]
            assert d.terms == {r: term[i] for r, term in terms.items()}


# ---------------------------------------------------------------------------
# in-place kernels against their allocate-per-step forms
# ---------------------------------------------------------------------------

ALL_POLYNOMIALS = st.lists(RATIONALS, max_size=11).map(Polynomial)  # degree 0-10 and zero
QUARTER_COSINES = st.builds(
    ScaledCosine,
    st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    st.floats(0.1, 4.0),
    st.sampled_from(range(4)),
)
LEVELS = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])
GRIDS_2D = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40), elements=LEVELS
)


def assert_same_bits(ours, oracle):
    ours, oracle = np.asarray(ours, dtype=np.float64), np.asarray(oracle, dtype=np.float64)
    assert ours.shape == oracle.shape
    assert np.array_equal(ours.view(np.uint64), oracle.view(np.uint64))


class TestInPlaceKernels:
    @given(f=ALL_POLYNOMIALS | QUARTER_COSINES, x=LEVELS | GRIDS_2D)
    def test_evaluation_equals_per_step_form(self, f, x):
        expected = per_step_value(f, x)
        got = f(x)
        assert isinstance(got, float) == (np.ndim(x) == 0)
        assert_same_bits(got, expected)
        if np.ndim(x):
            out = np.full_like(x, np.nan)
            assert f(x, out=out) is out
            assert_same_bits(out, expected)

    @given(p=ALL_POLYNOMIALS, orders=st.permutations(range(13)))
    def test_derivative_equals_kfold_formula(self, p, orders):
        # cache filled in a random order of first requests, then read again
        first = {k: p.derivative(k) for k in orders}
        for k in range(13):
            assert first[k].coeffs == kfold_derivative(p.coeffs, k)
            assert p.derivative(k) is first[k]
        assert p.derivative(0) is p

    @given(
        values=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=40),
            elements=LEVELS,
        ),
        f=ALL_POLYNOMIALS | QUARTER_COSINES,
        scheme=st.sampled_from(SchemeKind),
    )
    def test_riemann_sums_equal_per_step_form(self, values, f, scheme):
        assert_same_bits(riemann_sums(values, f, scheme), per_step_riemann_sums(values, f, scheme))

    # the trimmed Horner skips interior zero additions but must keep the final
    # + c_0: x -> x maps -0.0 to +0.0 in the per-step form
    @pytest.mark.parametrize(
        "coeffs",
        [
            [0, 1],
            [0, 0, 0, 0, Fraction(1, 24)],
            [0] * 6 + [Fraction(1, 720)],
            [0, 0, 1, 0, -1],
        ],
    )
    @pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e200])
    def test_zero_coefficients_keep_every_bit(self, coeffs, x):
        p = Polynomial(coeffs)
        grid = np.full((2, 3), x)
        with np.errstate(over="ignore"):
            assert_same_bits(p(x), per_step_value(p, x))
            assert_same_bits(p(grid, out=np.empty_like(grid)), per_step_value(p, grid))

    # offset-0 nodes evaluate f' on the left levels themselves, whose -0.0 the
    # per-step form's left + 0.0 * dB turns into +0.0, and the sine branch
    # keeps that sign in f'; the row sum clears it again (see below)
    @pytest.mark.parametrize("quarter_turns", range(4))
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_signed_zero_levels_keep_every_bit(self, quarter_turns, scheme):
        values = np.array(
            [
                [-0.0, -0.0, -0.0, -0.0],
                [-0.0, 0.0, -0.0, 0.0],
                [0.0, -0.0, -0.0, 0.5],
                [-0.0, -1.0, -0.0, 2.0],
            ]
        )
        f = ScaledCosine(1.5, 2.0, quarter_turns)
        assert_same_bits(riemann_sums(values, f, scheme), per_step_riemann_sums(values, f, scheme))

    def test_infinite_argument(self):
        # starting Horner at c_n * x gives inf where the zero start gave 0 * inf = nan
        assert Polynomial([0, 0, 1])(math.inf) == math.inf

    def test_row_sums_of_negative_zeros_are_positive_zero(self):
        # the kernels evaluate the first node straight into the accumulator,
        # without the per-step form's 0.0 + g that turns -0.0 into +0.0; their
        # bits rest on numpy summing a row of -0.0 to +0.0, which this pins
        for width in range(1, 300):
            rows = np.full((3, width), -0.0)
            assert_same_bits(np.add.reduce(rows[0]), 0.0)
            assert_same_bits(np.add.reduce(rows, axis=1), np.zeros(3))


# ---------------------------------------------------------------------------
# row blocks of the kernels
# ---------------------------------------------------------------------------

BLOCKED_LEVELS = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 12), st.integers(1, 40)),
    elements=LEVELS,
)


class TestRowBlocks:
    @given(
        values=BLOCKED_LEVELS,
        f=ALL_POLYNOMIALS | QUARTER_COSINES,
        scheme=st.sampled_from(SchemeKind),
        r=st.integers(0, 9),
    )
    def test_block_size_moves_no_bit(self, values, f, scheme, r):
        n_rows, m = values.shape[0], values.shape[1] - 1
        g = f.derivative(r)
        sums = riemann_sums(values, f, scheme)
        powers = midpoint_power_sums(values, g, r)
        assert sums.shape == powers.shape == (n_rows,)
        # one row per block; blocks of n_rows - 1 rows, which leave a one-row
        # block at the end from three rows on; one block for everything
        for block in (1, max(m, 1) * max(1, n_rows - 1), 2**30):
            with mock.patch.object(schemes, "_BLOCK", block):
                assert_same_bits(riemann_sums(values, f, scheme), sums)
                assert_same_bits(midpoint_power_sums(values, g, r), powers)

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_path_cut_before_the_first_step(self, scheme):
        grid = HurstGrid(0.1, 16)
        path = generate(grid, CIRC, 7)
        f = Polynomial([0, 0, 0, 0, 0, Fraction(1, 120)])
        assert riemann_sum(path, f, scheme, 0.5 / grid.n) == 0.0
        values = cut_levels(path, 0.5 / grid.n)
        assert values.shape == (1, 1)
        assert_same_bits(midpoint_power_sums(values, f.derivative(5), 5), [0.0])

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda v: riemann_sums(v, Polynomial([0] * 7 + [Fraction(1, 5040)]), SchemeKind.MILNE),
            lambda v: midpoint_power_sums(v, Polynomial([0, 0, Fraction(1, 2)]), 5),
        ],
        ids=["riemann_sums", "midpoint_power_sums"],
    )
    def test_peak_memory_is_bounded_by_the_block(self, kernel):
        # the kernel buffers are block-sized, so 8x the rows grow the peak by
        # the output alone; a buffer sized by N would add 3.5 MiB per array
        m = 2**13
        values = np.cumsum(np.random.default_rng(0).standard_normal((512, m + 1)), axis=1)
        kernel(values[:2])  # warm the derivative caches
        peaks = {}
        for n_rows in (64, 512):
            tracemalloc.start()
            try:
                kernel(values[:n_rows])
                peaks[n_rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[512] - peaks[64] <= 8 * (512 - 64) + 8 * schemes._BLOCK


# ---------------------------------------------------------------------------
# text form of the test functions
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestSpecRoundTrip:
    @given(
        f=st.lists(st.fractions(), max_size=12).map(Polynomial)
        | st.builds(ScaledCosine, FINITE, FINITE, st.integers(-8, 8))
    )
    def test_parse_inverts_spec(self, f):
        assert parse_test_function(f.spec()) == f
