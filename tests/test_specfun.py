"""Tests for the incomplete-gamma kernel and its saddle-point pieces."""

import math

import numpy as np
import pytest
from scipy import special

from covertpilot.detection import _gamma_tail, reg_lower_gamma
from covertpilot.specfun import expm1mx, stirlerr


def test_reg_lower_gamma_at_zero():
    for n in (1, 7, 150, 10**8):
        assert reg_lower_gamma(n, 0.0) == 0.0


def test_reg_lower_gamma_closed_forms():
    # P(1, x) = 1 - exp(-x)
    assert reg_lower_gamma(1, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    # P(2, x) = 1 - (1 + x) exp(-x)
    assert reg_lower_gamma(2, 3.0) == pytest.approx(1.0 - 4.0 * math.exp(-3.0), rel=1e-14)
    # far lower tails, where P(1, x) = -expm1(-x) and P(2, x) ~ x^2/2
    assert reg_lower_gamma(1, 1e-300) == pytest.approx(1e-300, rel=1e-13)
    assert reg_lower_gamma(2, 1e-100) == pytest.approx(0.5e-200, rel=1e-13)


@pytest.mark.parametrize(
    "n,x",
    [(-1, 1.0), (0, 1.0), (1.5, 1.0), (2.0, 1.0), (math.inf, 1.0), (True, 1.0), (1, -0.1),
     (1, math.inf), (1, math.nan)],
)
def test_reg_lower_gamma_domain_errors(n, x):
    with pytest.raises(ValueError):
        reg_lower_gamma(n, x)


def test_monotone_in_x_and_s():
    shapes = [1, 2, 5, 10, 25, 50, 100, 200]
    xs = np.linspace(0.0, 400.0, 201)
    prev_by_x = None
    for n in shapes:
        values = [reg_lower_gamma(n, float(x)) for x in xs]
        # nondecreasing in x
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        # nonincreasing in the shape at every fixed x
        if prev_by_x is not None:
            assert all(v <= p + 1e-14 for v, p in zip(values, prev_by_x))
        prev_by_x = values


def test_reg_lower_gamma_lies_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        x = float(rng.uniform(0.0, 600.0))
        assert 0.0 <= reg_lower_gamma(n, x) <= 1.0


def test_against_scipy_reference():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 500))
        x = float(rng.uniform(0.0, 800.0))
        assert reg_lower_gamma(n, x) == pytest.approx(
            float(special.gammainc(n, x)), abs=1e-12
        )


def test_nearer_tail_against_mpmath():
    # the tail the kernel integrates, on either side of the mode, at
    # x = n (1 + k / sqrt(n)); 260 digits keep mpmath's own complement
    # exact down to tails of 1e-200
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 260
    for n in (1, 2, 10, 100, 1000, 10**4, 10**6):
        for k in np.arange(-30.0, 30.25, 0.75):
            x = n * (1.0 + k / math.sqrt(n))
            if x <= 0.0:
                continue
            got = _gamma_tail(n, x, upper=x > n)
            if x <= n:
                exact = mpmath.gammainc(n, 0, x, regularized=True)
            else:
                exact = mpmath.gammainc(n, x, mpmath.inf, regularized=True)
            if exact < mpmath.mpf("1e-200"):
                continue
            rel = 1e-13 if abs(k) <= 8 and exact >= mpmath.mpf("1e-30") else 1e-12
            assert float(abs(got - exact) / exact) <= rel, (n, k)


def test_against_monte_carlo_gamma_cdf():
    # 20 points placed in the distribution bulk so the binomial standard
    # error is informative at 1e6 samples.
    rng = np.random.default_rng(2024)
    n_samples = 1_000_000
    for _ in range(20):
        n = int(rng.integers(1, 61))
        x = n * float(rng.uniform(0.5, 1.6))
        draws = rng.gamma(shape=n, scale=1.0, size=n_samples)
        empirical = float(np.mean(draws <= x))
        se = math.sqrt(empirical * (1.0 - empirical) / n_samples)
        assert abs(reg_lower_gamma(n, x) - empirical) <= 4.0 * se


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
