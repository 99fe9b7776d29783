"""Tests for the incomplete-gamma kernel."""

import math

import numpy as np
import pytest
from scipy import special

from covertpilot.specfun import (
    RegGammaResult,
    chi_square_cdf,
    expm1mx,
    ln_gamma,
    reg_gamma,
    reg_lower_gamma,
    stirlerr,
)


def test_ln_gamma_trivial_values():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)


def test_ln_gamma_integers_match_factorials():
    for s in range(1, 21):
        assert ln_gamma(float(s)) == pytest.approx(
            math.log(math.factorial(s - 1)), rel=1e-12
        )


def test_ln_gamma_half_integer():
    # Gamma(1/2) = sqrt(pi)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf])
def test_ln_gamma_domain_errors(bad):
    with pytest.raises(ValueError):
        ln_gamma(bad)


def test_reg_lower_gamma_at_zero():
    for s in (0.5, 1.0, 7.0, 150.0):
        assert reg_lower_gamma(s, 0.0) == 0.0


def test_reg_lower_gamma_closed_forms():
    # P(1, x) = 1 - exp(-x)
    assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    # P(2, x) = 1 - (1 + x) exp(-x)
    assert reg_lower_gamma(2.0, 3.0) == pytest.approx(
        1.0 - 4.0 * math.exp(-3.0), abs=1e-12
    )


@pytest.mark.parametrize(
    "s,x",
    [(-1.0, 1.0), (0.0, 1.0), (1.0, -0.1), (math.inf, 1.0), (1.0, math.inf)],
)
def test_reg_gamma_domain_errors(s, x):
    with pytest.raises(ValueError):
        reg_gamma(s, x)


def test_chi_square_cdf_values():
    assert chi_square_cdf(2, 0.0) == 0.0
    # chi-square with 2 dof is exponential with mean 2; its median is 2 ln 2
    assert chi_square_cdf(2, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-13)
    # chi2(4, 1) = P(2, 0.5) = 1 - 1.5 exp(-0.5)
    assert chi_square_cdf(4, 1.0) == pytest.approx(
        1.0 - 1.5 * math.exp(-0.5), abs=1e-12
    )


def test_chi_square_cdf_identity_with_reg_lower_gamma():
    for dof in (1, 2, 3, 10, 101, 400):
        for x in (0.0, 0.3, 1.0, 10.0, 250.0, 1000.0):
            assert chi_square_cdf(dof, x) == reg_lower_gamma(dof / 2.0, x / 2.0)


def test_chi_square_cdf_domain_errors():
    with pytest.raises(ValueError):
        chi_square_cdf(0, 1.0)
    with pytest.raises(ValueError):
        chi_square_cdf(2, -1.0)
    with pytest.raises(ValueError):
        chi_square_cdf(2.0, 1.0)  # type: ignore[arg-type]


def test_monotone_in_x_and_s():
    shapes = [0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0]
    xs = np.linspace(0.0, 400.0, 201)
    prev_by_x = None
    for s in shapes:
        values = [reg_lower_gamma(s, float(x)) for x in xs]
        # nondecreasing in x
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        # nonincreasing in s at every fixed x
        if prev_by_x is not None:
            assert all(v <= p + 1e-14 for v, p in zip(values, prev_by_x))
        prev_by_x = values


def test_lower_plus_upper_is_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s = float(rng.uniform(0.2, 400.0))
        x = float(rng.uniform(0.0, 600.0))
        res = reg_gamma(s, x)
        assert isinstance(res, RegGammaResult)
        assert 0.0 <= res.lower <= 1.0
        assert abs(res.lower + res.upper - 1.0) <= 1e-14


def test_series_continued_fraction_crossover_continuity():
    # Both expansions must agree where the algorithm switches between them;
    # the true function itself varies by ~density * 2*delta across the
    # straddle, so the branch mismatch is measured at identical x.
    from covertpilot.specfun import _lower_series, _upper_continued_fraction

    for s in (0.5, 1.0, 3.0, 17.0, 80.0, 200.0):
        for dx in (-1e-8, 0.0, 1e-8):
            x = s + 1.0 + dx
            assert abs(_lower_series(s, x) - (1.0 - _upper_continued_fraction(s, x))) < 1e-10
        # and the straddle gap itself vanishes as delta -> 0
        gap_wide = abs(reg_lower_gamma(s, s + 1.0 - 1e-8) - reg_lower_gamma(s, s + 1.0 + 1e-8))
        gap_tight = abs(reg_lower_gamma(s, s + 1.0 - 1e-11) - reg_lower_gamma(s, s + 1.0 + 1e-11))
        assert gap_tight < 1e-10
        assert gap_tight < gap_wide


def test_against_scipy_reference():
    rng = np.random.default_rng(11)
    for _ in range(500):
        s = float(rng.uniform(0.1, 500.0))
        x = float(rng.uniform(0.0, 800.0))
        assert reg_lower_gamma(s, x) == pytest.approx(
            float(special.gammainc(s, x)), abs=1e-12
        )


def test_against_monte_carlo_gamma_cdf():
    # 20 points placed in the distribution bulk so the binomial standard
    # error is informative at 1e6 samples.
    rng = np.random.default_rng(2024)
    n_samples = 1_000_000
    for _ in range(20):
        s = float(rng.uniform(0.5, 60.0))
        x = s * float(rng.uniform(0.5, 1.6))
        draws = rng.gamma(shape=s, scale=1.0, size=n_samples)
        empirical = float(np.mean(draws <= x))
        se = math.sqrt(empirical * (1.0 - empirical) / n_samples)
        assert abs(reg_lower_gamma(s, x) - empirical) <= 4.0 * se


def test_stirlerr_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for n in list(range(1, 40)) + [50, 100, 500, 10**4, 10**6, 10**9]:
        exact = (
            mpmath.loggamma(n + 1) - (n + mpmath.mpf(1) / 2) * mpmath.log(n)
            + n - mpmath.log(2 * mpmath.pi) / 2
        )
        assert stirlerr(n) == pytest.approx(float(exact), rel=1e-14, abs=1e-17)


def test_expm1mx_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(9)
    magnitudes = 10 ** rng.uniform(-9, 1, 2000)
    for w in np.concatenate([magnitudes, -magnitudes, [1e-4, 1e-3, 1e-2, 0.05, 0.15, 0.5]]):
        exact = mpmath.expm1(float(w)) - float(w)
        assert expm1mx(float(w)) == pytest.approx(float(exact), rel=1e-15, abs=0)
    assert expm1mx(0.0) == 0.0
