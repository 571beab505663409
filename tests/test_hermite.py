"""Hermite toolkit: exact integer identities plus Monte Carlo orthogonality."""

import math

import numpy as np
import pytest
import sympy as sp

from fbmquad import ChaosExpansion, hermite_eval, power_to_hermite
from fbmquad.hermite import SUPPORTED_POWERS
from oracle import hermite_coefficients

# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class TestHermiteEval:
    def test_small_values(self):
        assert hermite_eval(3, 2.0) == 2.0  # x^3 - 3x at 2
        assert hermite_eval(5, 1.0) == 6.0  # x^5 - 10x^3 + 15x at 1
        assert hermite_eval(2, 0.0) == -1.0

    def test_vectorized_matches_scalar(self, rng):
        xs = rng.uniform(-4, 4, 20)
        for q in range(0, 8):
            vec = hermite_eval(q, xs)
            assert np.allclose(vec, [hermite_eval(q, float(x)) for x in xs], rtol=0, atol=0)

    def test_matches_coefficients(self, rng):
        xs = rng.uniform(-3, 3, 10)
        for q in range(12):
            coeffs = hermite_coefficients(q)
            direct = sum(c * xs**i for i, c in enumerate(coeffs))
            assert np.allclose(hermite_eval(q, xs), direct, rtol=1e-12, atol=1e-9)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)


class TestHermiteCoefficients:
    def test_first_few(self):
        assert hermite_coefficients(0) == (1,)
        assert hermite_coefficients(1) == (0, 1)
        assert hermite_coefficients(2) == (-1, 0, 1)
        assert hermite_coefficients(3) == (0, -3, 0, 1)
        assert hermite_coefficients(5) == (0, 15, 0, -10, 0, 1)

    def test_unit_leading_coefficient(self):
        for q in range(12):
            assert hermite_coefficients(q)[-1] == 1

    def test_sympy_oracle(self):
        x = sp.symbols("x")
        for q in range(10):
            ours = sum(c * x**i for i, c in enumerate(hermite_coefficients(q)))
            # probabilists' Hermite with unit leading coefficient
            theirs = sp.simplify(2 ** sp.Rational(-q, 2) * sp.hermite(q, x / sp.sqrt(2)))
            assert sp.expand(ours - theirs) == 0


# ---------------------------------------------------------------------------
# monomial expansion
# ---------------------------------------------------------------------------


class TestPowerToHermite:
    def test_known_expansions(self):
        assert power_to_hermite(1).coeffs == (1,)
        assert power_to_hermite(3).coeffs == (1, 3)
        assert power_to_hermite(5).coeffs == (1, 10, 15)

    def test_leading_coefficient_one(self):
        for r in SUPPORTED_POWERS:
            assert power_to_hermite(r).coeffs[0] == 1

    def test_sympy_symbolic_oracle(self):
        x = sp.symbols("x")
        for r in (3, 5, 7):
            expansion = power_to_hermite(r)
            total = sp.Integer(0)
            for p, c in enumerate(expansion.coeffs):
                q = r - 2 * p
                hq = sum(hc * x**i for i, hc in enumerate(hermite_coefficients(q)))
                total += c * hq
            assert sp.expand(total - x**r) == 0

    def test_closed_form(self):
        # C(r, p) = r! / (2^p p! (r-2p)!)
        for r in SUPPORTED_POWERS:
            expansion = power_to_hermite(r)
            for p, c in enumerate(expansion.coeffs):
                expected = math.factorial(r) // (2**p * math.factorial(p) * math.factorial(r - 2 * p))
                assert c == expected

    def test_reconstruction_accuracy(self, rng):
        xs = rng.uniform(-5, 5, 100)
        for r in SUPPORTED_POWERS:
            recon = power_to_hermite(r).reconstruct(xs)
            err = np.abs(recon - xs**r)
            assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(xs) ** r))

    @pytest.mark.parametrize("r", [0, 2, 4, 13, -3])
    def test_unsupported_power(self, r):
        with pytest.raises(ValueError):
            power_to_hermite(r)


# ---------------------------------------------------------------------------
# probabilistic structure
# ---------------------------------------------------------------------------


class TestGaussianStructure:
    def test_orthogonality_monte_carlo(self):
        # E[H_p(N) H_q(N)] = q! 1{p=q}, checked within 5 empirical SE
        rng = np.random.Generator(np.random.Philox(99))
        z = rng.standard_normal(1_000_000)
        evals = {q: hermite_eval(q, z) for q in range(6)}
        for p in range(6):
            for q in range(p, 6):
                prod = evals[p] * evals[q]
                est = prod.mean()
                se = prod.std(ddof=1) / math.sqrt(len(z))
                expected = math.factorial(q) if p == q else 0.0
                assert abs(est - expected) <= 5 * se, (p, q, est, expected, se)

    def test_scaled_increment_identity(self, rng):
        # v^r = sum_p C(r,p) n^{-2pH} n^{-(r-2p)H} H_{r-2p}(n^H v), exact algebra
        n, H = 64, 0.1
        vs = rng.normal(0.0, n ** (-H), 50)
        for r in (3, 5, 7):
            expansion = power_to_hermite(r)
            total = np.zeros_like(vs)
            for p, c in enumerate(expansion.coeffs):
                q = r - 2 * p
                total += c * n ** (-2 * p * H) * n ** (-q * H) * hermite_eval(q, n**H * vs)
            assert np.allclose(total, vs**r, rtol=1e-10, atol=1e-13)


class TestChaosExpansionType:
    def test_fields(self):
        e = power_to_hermite(5)
        assert isinstance(e, ChaosExpansion)
        assert e.power == 5
        assert len(e.coeffs) == 3
