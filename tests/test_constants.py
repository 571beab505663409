"""Lattice-sum constants: closed forms, brute-force oracles, truncation control."""

import math

import numpy as np
import pytest

from fbmquad import (
    GeneratorKind,
    HurstGrid,
    beta,
    beta_squared,
    beta_terms,
    generate_batch,
    hermite_eval,
    kappa,
    predicted_error_variance,
    replication_seeds,
    rho,
)

# Brute-force partial sums to |p| <= 10^7 in 80-bit arithmetic, frozen:
#   sum smallest-first of rho(p, 0.1)^m, m in {3, 5} (see oracle below).
KAPPA3_BRUTE = 6.765790285285982364
KAPPA5_BRUTE = 31.105773113900411886


def brute_kappa(m, H, limit):
    """Independent partial-sum oracle in extended precision, smallest terms first."""
    total = np.longdouble(0)
    chunk = 1_000_000
    for lo in range(limit, 0, -chunk):
        p = np.arange(lo, max(lo - chunk, 0), -1, dtype=np.int64)
        q = np.abs(p).astype(np.longdouble)
        r = np.abs(q + 1) ** (2 * H) - 2 * q ** (2 * H) + np.abs(q - 1) ** (2 * H)
        total += (r**m).sum()
    return float(2 * total + np.longdouble(2) ** m)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


class TestKappa:
    def test_brownian_closed_forms(self):
        for m in (3, 5, 7):
            result = kappa(m, 0.5, 1e-12)
            assert result.value == 2.0**m
            assert result.tail_bound == 0.0

    def test_frozen_brute_force_oracle(self):
        assert kappa(3, 0.1, 1e-10).value == pytest.approx(KAPPA3_BRUTE, abs=1e-8)
        assert kappa(5, 0.1, 1e-10).value == pytest.approx(KAPPA5_BRUTE, abs=1e-8)

    def test_live_brute_force_oracle(self):
        # re-derive to |p| <= 10^6; the tail past 10^6 is ~1e-32 for m=3
        assert kappa(3, 0.1, 1e-10).value == pytest.approx(brute_kappa(3, 0.1, 10**6), abs=1e-9)
        assert kappa(5, 0.1, 1e-10).value == pytest.approx(brute_kappa(5, 0.1, 10**6), abs=1e-9)

    def test_tail_bound_below_tolerance(self):
        for m, H, tol in ((3, 0.1, 1e-8), (5, 0.1, 1e-10), (3, 0.3, 1e-9)):
            result = kappa(m, H, tol)
            assert 0.0 <= result.tail_bound < tol

    def test_stable_under_truncation_doubling(self):
        for m in (3, 5):
            result = kappa(m, 0.1, 1e-8)
            p2 = 2 * result.truncation_P
            doubled = 2.0 * math.fsum(rho(p, 0.1) ** m for p in range(p2, 0, -1)) + 2.0**m
            assert abs(result.value - doubled) < 1e-8

    def test_value_insensitive_to_tolerance(self):
        a = kappa(3, 0.1, 1e-6)
        b = kappa(3, 0.1, 1e-12)
        assert a.truncation_P < b.truncation_P
        assert abs(a.value - b.value) < 1e-6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kappa(2, 0.1)
        with pytest.raises(ValueError):
            kappa(1, 0.1)
        with pytest.raises(ValueError):
            kappa(3, 0.1, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive and finite, got nan"):
            kappa(3, 0.1, tol=math.nan)
        with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
            kappa(3, 0.1, tol=math.inf)
        with pytest.raises(ValueError):
            kappa(3, 0.9, 1e-8)  # m(2-2H) = 0.6 <= 1 diverges
        with pytest.raises(ValueError, match="^H must be a real number, got '0.1'"):
            kappa(3, "0.1")
        with pytest.raises(ValueError, match="^tol must be a real number, got '1e-9'"):
            kappa(3, 0.1, tol="1e-9")
        # the order is taken exactly, as every integer setting is
        with pytest.raises(ValueError, match=r"^m must be an odd integer >= 3, got 3\.0$"):
            kappa(3.0, 0.1)
        with pytest.raises(ValueError, match="^m must be an odd integer >= 3, got '3'$"):
            kappa("3", 0.1)

    def test_result_includes_central_term(self):
        # the p = 0 term contributes exactly 2^m
        res = kappa(3, 0.45, 1e-10)
        off = 2.0 * math.fsum(rho(p, 0.45) ** 3 for p in range(res.truncation_P, 0, -1))
        assert res.value - off == pytest.approx(8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------


class TestBeta:
    def test_brownian_closed_form(self):
        assert beta(0.5) == math.sqrt(720.0)

    def test_critical_value(self):
        expected = math.sqrt(120.0 / 32.0 * KAPPA5_BRUTE + 75.0 * KAPPA3_BRUTE)
        assert beta(0.1, 1e-10) == pytest.approx(expected, abs=1e-9)
        # the general weights reproduce the paper's constant to the last bit
        assert beta_squared(*beta_terms(0.1, 1e-9)) == 624.0809205740461

    def test_beta_squared_at_brownian_point(self):
        # kappa_m(1/2) = 2^m exactly: 3.75 * 32 + 75 * 8 = 720
        assert beta_squared(*beta_terms(0.5)) == 720.0
        assert beta(0.1) == math.sqrt(beta_squared(*beta_terms(0.1)))
        # for every error power r, beta_r^2 at H = 1/2 is Var(N^r) less its
        # first-chaos part: (2r-1)!! - (r!!)^2
        for r, expected in ((3, 6.0), (5, 720.0), (7, 124110.0), (9, 33566400.0)):
            kappas = beta_terms(0.5, r=r)
            assert [k.m for k in kappas] == list(range(r, 1, -2))
            assert beta_squared(*kappas) == expected
            double_factorial = math.prod(range(2 * r - 1, 0, -2))
            assert expected == double_factorial - math.prod(range(r, 0, -2)) ** 2

    def test_invalid_error_power(self):
        for r in (1, 4, 13):
            with pytest.raises(ValueError):
                beta_terms(0.1, r=r)
        for r in ("5", 5.0):
            with pytest.raises(ValueError, match=rf"^r must be an odd integer >= 3, got {r!r}$"):
                beta_terms(0.1, r=r)
            with pytest.raises(ValueError, match=rf"^r must be an odd integer >= 3, got {r!r}$"):
                predicted_error_variance(HurstGrid(0.1, 16), r)

    def test_stability_under_tolerance_tightening(self):
        assert abs(beta(0.1, 1e-8) - beta(0.1, 1e-12)) < 1e-6

    def test_radicand_positive_across_H(self):
        for H in np.linspace(0.02, 0.5, 25):
            assert beta(float(H)) > 0.0


# ---------------------------------------------------------------------------
# variance-limit consistency
# ---------------------------------------------------------------------------


class TestVarianceLimitConsistency:
    def test_quintic_chaos_variance_matches_kappa5(self):
        # Var of the pure 5th-chaos part of sum dB^5 approaches (5!/2^5) kappa_5
        H, n, reps = 0.1, 2**14, 1000
        grid = HurstGrid(H, n)
        seeds = replication_seeds(424242, 0, reps)
        scale = float(n) ** (-5 * H)
        samples = np.empty(reps)
        for lo in range(0, reps, 100):
            values = generate_batch(grid, GeneratorKind.CIRCULANT_EMBEDDING, seeds[lo : lo + 100])
            db = np.diff(values, axis=1)
            samples[lo : lo + 100] = scale * np.sum(hermite_eval(5, n**H * db), axis=1)
        target = 120.0 / 32.0 * kappa(5, H, 1e-10).value
        est = samples.var(ddof=1)
        fourth = np.mean((samples - samples.mean()) ** 4)
        se = math.sqrt(max(fourth - est**2, 0.0) / reps)
        assert abs(est - target) <= 3.0 * se
