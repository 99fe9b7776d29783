"""Tests for the warden-side detection analytics."""

import itertools
import math

import numpy as np
import pytest

from covertpilot.detection import (
    _GL_HALF,
    DetectionReport,
    covert_margin,
    covertness_lower_bound,
    kl_divergence,
    kl_divergence_deta,
    min_detection_error,
    optimal_threshold,
    reg_lower_gamma,
)
from covertpilot.link_model import PowerAllocation, SystemConfig
from covertpilot.optimizer import solve_rho_star


def make_cfg(n=100, sw2=1.0, eps=0.1):
    return SystemConfig(n=n, lambda_ab=1.0, sigma_b2=1.0, sigma_w2=sw2, epsilon=eps)


def complex_gaussian_kl(v0: float, v1: float) -> float:
    """Independent oracle: KL(CN(0, v0) || CN(0, v1)) = ln(v1/v0) + v0/v1 - 1."""
    return math.log(v1 / v0) + v0 / v1 - 1.0


class TestKlDivergence:
    def test_zero_power(self):
        cfg = make_cfg(n=10)
        alloc = PowerAllocation.split(n=10, rho=0.0, eta=0.5, n_p=3)
        assert kl_divergence(cfg, alloc) == 0.0

    def test_unit_case_against_oracle(self):
        # n=2, unit powers, unit noise: two samples of CN(0,1) vs CN(0,2)
        cfg = make_cfg(n=2)
        alloc = PowerAllocation.equal_power(n=2, rho=1.0, n_p=1)
        expected = 2.0 * complex_gaussian_kl(1.0, 2.0)
        assert expected == pytest.approx(0.3862944, abs=1e-7)
        assert kl_divergence(cfg, alloc) == pytest.approx(expected, rel=1e-12)

    def test_segmentwise_against_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            sw2 = float(rng.uniform(0.2, 3.0))
            cfg = make_cfg(n=n, sw2=sw2)
            alloc = PowerAllocation.split(
                n=n,
                rho=float(rng.uniform(0.001, 2.0)),
                eta=float(rng.uniform(0.05, 0.95)),
                n_p=int(rng.integers(1, n)),
            )
            expected = alloc.n_p * complex_gaussian_kl(
                sw2, alloc.rho_p + sw2
            ) + alloc.n_d * complex_gaussian_kl(sw2, alloc.rho_d + sw2)
            assert kl_divergence(cfg, alloc) == pytest.approx(expected, rel=1e-10)
            assert kl_divergence(cfg, alloc) > 0.0  # zero only at zero power

    def test_minimized_at_equal_power(self):
        # grid over eta: no value below the stationary point eta = n_d/n
        cfg = make_cfg(n=100, sw2=1.0)
        rho, n_p = 0.05, 20  # rho < sigma_w2
        eta_star = (100 - n_p) / 100
        d_star = kl_divergence(cfg, PowerAllocation.split(n=100, rho=rho, eta=eta_star, n_p=n_p))
        for eta in np.linspace(0.001, 0.999, 1000):
            d = kl_divergence(cfg, PowerAllocation.split(n=100, rho=rho, eta=float(eta), n_p=n_p))
            assert d >= d_star - 1e-15


class TestKlDerivative:
    def test_vanishes_at_equal_power(self):
        cfg = make_cfg(n=100)
        assert kl_divergence_deta(cfg, rho=0.05, eta=0.8, n_p=20) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_sign_toward_equal_power(self):
        # at eta = 0.5 with equal power sitting at eta = 0.8, the
        # divergence still decreases in eta
        cfg = make_cfg(n=100)
        assert kl_divergence_deta(cfg, rho=0.05, eta=0.5, n_p=20) < 0.0

    @pytest.mark.parametrize("n_p", [20.5, True], ids=["fraction", "bool"])
    def test_rejects_a_non_integer_pilot_count(self, n_p):
        with pytest.raises(ValueError, match="n_p must be an integer"):
            kl_divergence_deta(make_cfg(n=100), rho=0.05, eta=0.5, n_p=n_p)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(4, 400))
            sw2 = float(rng.uniform(0.2, 3.0))
            cfg = make_cfg(n=n, sw2=sw2)
            rho = float(rng.uniform(0.001, 2.0))
            n_p = int(rng.integers(1, n))
            eta = float(rng.uniform(0.05, 0.95))
            h = 1e-5 * min(eta, 1.0 - eta)

            def d01(e):
                return kl_divergence(cfg, PowerAllocation.split(n=n, rho=rho, eta=e, n_p=n_p))

            fd = (d01(eta + h) - d01(eta - h)) / (2.0 * h)
            closed = kl_divergence_deta(cfg, rho, eta, n_p)
            if abs(fd) > 1e-12:
                assert closed == pytest.approx(fd, rel=2e-6)


class TestCovertnessBound:
    def test_endpoints_and_clamp(self):
        assert covertness_lower_bound(0.0) == 1.0
        assert covertness_lower_bound(2.0) == 0.0
        assert covertness_lower_bound(8.0) == 0.0  # clamped, not negative
        assert covertness_lower_bound(0.02) == pytest.approx(0.9, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            covertness_lower_bound(-0.1)


class TestOptimalThreshold:
    def test_unit_case(self):
        assert optimal_threshold(1.0, 1.0) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-14
        )

    def test_bracketed_by_hypothesis_means(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            rho = float(rng.uniform(1e-4, 10.0))
            sw2 = float(rng.uniform(0.1, 5.0))
            tau = optimal_threshold(rho, sw2)
            assert sw2 < tau < sw2 + rho

    def test_small_power_limit(self):
        assert optimal_threshold(1e-6, 1.0) == pytest.approx(1.0, abs=1e-6)


class TestMinDetectionError:
    def test_single_sample_closed_form(self):
        # n=1, rho=1, sigma_w2=1: alpha = exp(-2 ln 2) = 1/4, beta = 1/2
        # (SystemConfig requires n >= 2, so evaluate the n=1 pieces explicitly)
        from covertpilot.detection import reg_lower_gamma

        tau = optimal_threshold(1.0, 1.0)
        alpha = 1.0 - reg_lower_gamma(1, tau)
        beta = reg_lower_gamma(1, tau / 2.0)
        assert alpha == pytest.approx(0.25, rel=1e-12)
        assert beta == pytest.approx(0.5, rel=1e-12)
        assert alpha + beta == pytest.approx(0.75, rel=1e-12)

    def test_vanishing_power_gives_blind_guessing(self):
        cfg = make_cfg(n=100)
        rep = min_detection_error(cfg, 1e-9)
        assert rep.xi_star == pytest.approx(1.0, abs=1e-6)

    def test_xi_is_alpha_plus_beta(self):
        cfg = make_cfg(n=100)
        rep = min_detection_error(cfg, 0.05)
        assert rep.xi_star == pytest.approx(rep.alpha + rep.beta, abs=1e-12)

    def test_strictly_decreasing_in_power(self):
        for n in (10, 100, 400):
            cfg = make_cfg(n=n)
            rhos = np.linspace(1e-4, 10.0, 1000)
            xis = [min_detection_error(cfg, float(r)).xi_star for r in rhos]
            assert all(b < a for a, b in zip(xis, xis[1:]))

    def test_tails_against_mpmath(self):
        # alpha is the upper tail above the mode, beta the lower tail below
        # it; each keeps its relative accuracy, however small
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for n in (100, 10_000):
            for sw2 in (1.0, 2.5e-9):
                cfg = make_cfg(n=n, sw2=sw2)
                for c in (0.05, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
                    rho = sw2 * c / math.sqrt(n)
                    rep = min_detection_error(cfg, rho)
                    x0 = n * rep.tau_star / sw2
                    x1 = n * rep.tau_star / (rho + sw2)
                    alpha = mpmath.gammainc(n, x0, mpmath.inf, regularized=True)
                    beta = mpmath.gammainc(n, 0, x1, regularized=True)
                    assert abs(rep.alpha - alpha) <= 1e-14 * alpha
                    assert abs(rep.beta - beta) <= 1e-14 * beta

    def test_bound_below_xi_star(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            n = int(rng.integers(2, 400))
            cfg = make_cfg(n=n, sw2=float(rng.uniform(0.2, 3.0)))
            rho = float(rng.uniform(1e-4, cfg.sigma_w2))
            rep = min_detection_error(cfg, rho)
            assert rep.xi_lower_bound <= rep.xi_star + 1e-9


class TestDetectionReport:
    def test_equal_power_fills_analytic_fields(self):
        # the report exists only at equal power, so every field is required
        rep = min_detection_error(make_cfg(n=100), 0.05)
        for field in DetectionReport._fields:
            assert isinstance(getattr(rep, field), float), field
        with pytest.raises(TypeError):
            DetectionReport(d01=rep.d01, xi_lower_bound=rep.xi_lower_bound)

    def test_split_invariance_at_equal_power(self):
        # the closed form takes only n; its d01 is the KL divergence of
        # every equal-power split
        cfg = make_cfg(n=100)
        rep = min_detection_error(cfg, 0.05)
        for k in (1, 20, 50, 99):
            d01 = kl_divergence(cfg, PowerAllocation.equal_power(n=100, rho=0.05, n_p=k))
            assert d01 == pytest.approx(rep.d01, rel=1e-12)
            assert covertness_lower_bound(d01) == pytest.approx(
                rep.xi_lower_bound, rel=1e-12
            )


def design_snrs(n):
    """Warden SNRs whose covert margin spans epsilon from ~1e-9 to ~0.9."""
    return [c / math.sqrt(n) for c in (1e-8, 1e-4, 0.02, 0.5, 3.3)]


def margin_mp(n, s):
    """Oracle: the covert margin by 40-digit quadrature in w = ln(x/n).

    Integrates the Gamma(n, 1) density exp(n ln n - lnGamma(n) + n w - n e^w)
    over the window [ln(L/s), ln(L/s) + L], L = ln(1 + s), in 8 equal
    subintervals.  Unlike mpmath.gammainc it converges at n = 1e7 and 1e8.
    The result is an mpf; compare it at 40 digits.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n, s = mpmath.mpf(n), mpmath.mpf(s)
        width = mpmath.log1p(s)
        w_lo = mpmath.log(width / s)
        log_c = n * mpmath.log(n) - mpmath.loggamma(n)
        edges = mpmath.linspace(w_lo, w_lo + width, 9)
        return mpmath.quad(lambda w: mpmath.exp(log_c + n * w - n * mpmath.exp(w)), edges)


def tail_mp(n, x, upper):
    """Oracle: the Gamma(n, 1) mass above x if upper, else below it.

    margin_mp's 40-digit quadrature in w = ln(x/n), taken outward from
    ln(x/n) over 80 standard deviations, 1/sqrt(n) each, on subintervals
    that widen geometrically away from x, where the density peaks.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        n = mpmath.mpf(n)
        w_x = mpmath.log(mpmath.mpf(x) / n)
        step = (1 if upper else -1) / mpmath.sqrt(n)
        edges = [w_x + t * step for t in (0, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 80)]
        log_c = n * mpmath.log(n) - mpmath.loggamma(n)
        return mpmath.quad(
            lambda w: mpmath.exp(log_c + n * w - n * mpmath.exp(w)), sorted(edges)
        )


def test_tail_oracle_matches_gammainc():
    mpmath = pytest.importorskip("mpmath")
    for n in (2, 100, 10**4):
        for k in (-1.0, -0.5, 0.5, 1.0, 8.0):
            x = n * (1.0 + k / math.sqrt(n))
            with mpmath.workdps(40):
                if x > n:
                    exact = mpmath.gammainc(n, x, mpmath.inf, regularized=True)
                else:
                    exact = mpmath.gammainc(n, 0, x, regularized=True)
                assert abs(tail_mp(n, x, upper=x > n) - exact) <= 1e-30 * exact, (n, k)


def test_gamma_tails_at_scale_against_density_oracle():
    # x = n (1 + k / sqrt(n)), |k| <= 8, where mpmath.gammainc no longer
    # converges: P itself below the mode, and alpha, the upper tail, above it
    for n in (10**7, 10**8):
        for k in range(-8, 9):
            x = n * (1.0 + k / math.sqrt(n))
            tail = tail_mp(n, x, upper=x > n)
            exact = 1 - tail if x > n else tail
            assert abs(reg_lower_gamma(n, x) - exact) <= 1.5e-14 * exact, (n, k)
        cfg = make_cfg(n=n)
        for c in (0.5, 2.0, 4.0, 8.0, 12.0, 16.0):
            report = min_detection_error(cfg, c / math.sqrt(n))
            x = n * report.tau_star
            assert 0 < (x / n - 1) * math.sqrt(n) <= 8.0
            exact = tail_mp(n, x, upper=True)
            assert abs(report.alpha - exact) <= 1.5e-14 * exact, (n, c)


class TestCovertMargin:
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for n in (2, 3, 7, 16, 100, 1000, 10**4, 10**5, 10**6):
            for s in design_snrs(n):
                lo = n * mpmath.log1p(s) / s
                exact = mpmath.gammainc(n, lo, (1 + mpmath.mpf(s)) * lo, regularized=True)
                margin, _ = covert_margin(n, s)
                assert margin == pytest.approx(float(exact), rel=1e-13, abs=0)

    def test_wide_windows_against_mpmath(self):
        # epsilon near 1 takes the composite rule over the density's support
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for n, s in ((2, 63.0), (2, 5866.0), (3, 800.0), (10, 27.0), (1000, 0.5), (10**6, 0.01)):
            lo = n * mpmath.log1p(s) / s
            exact = mpmath.gammainc(n, lo, (1 + mpmath.mpf(s)) * lo, regularized=True)
            margin, _ = covert_margin(n, s)
            assert margin == pytest.approx(float(exact), rel=0, abs=1e-14)

    def test_density_oracle_matches_gammainc(self):
        mpmath = pytest.importorskip("mpmath")
        for n in (2, 100, 10**4, 10**6):
            for s in design_snrs(n):
                with mpmath.workdps(40):
                    lo = n * mpmath.log1p(s) / s
                    exact = mpmath.gammainc(n, lo, (1 + mpmath.mpf(s)) * lo, regularized=True)
                    assert abs(margin_mp(n, s) - exact) <= 1e-30 * exact, (n, s)

    def test_against_density_oracle_over_the_scale_range(self):
        # at the solved power, with the warden's noise from -120 to 30 dBm
        mpmath = pytest.importorskip("mpmath")
        noise_dbm = itertools.cycle(range(-120, 31, 30))
        for n in (2, 10, 10**3, 10**5, 10**7, 10**8):
            for eps in (0.3, 1e-3, 1e-6, 1e-9):
                sw2 = 10.0 ** (next(noise_dbm) / 10.0)
                s = solve_rho_star(make_cfg(n=n, sw2=sw2, eps=eps)).rho / sw2
                margin, _ = covert_margin(n, s)
                with mpmath.workdps(40):
                    exact = margin_mp(n, s)
                    assert abs(margin - exact) <= 1e-14 * exact, (n, eps, sw2)
                    assert exact <= eps, (n, eps, sw2)

    def test_complements_min_detection_error(self):
        # 1 - (alpha + beta) from the incomplete gamma series is good to
        # ~5e-13 absolute at n = 1000; the margin itself is ~1e-15
        for n in (2, 10, 100, 1000):
            for s in design_snrs(n)[2:]:
                margin, _ = covert_margin(n, s)
                xi = min_detection_error(make_cfg(n=n), s).xi_star
                assert margin == pytest.approx(1.0 - xi, rel=0, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        for n in (2, 10, 100, 10**4, 10**7):
            for s in design_snrs(n)[1:]:
                h = 1e-5 * s
                fd = (covert_margin(n, s + h)[0] - covert_margin(n, s - h)[0]) / (2 * h)
                assert covert_margin(n, s)[1] == pytest.approx(fd, rel=1e-7, abs=0)

    def test_wide_windows_stay_in_unit_interval(self):
        previous = 0.0
        for s in (0.1, 1.0, 10.0, 1e3, 1e6, 1e30):
            margin, slope = covert_margin(3, s)
            assert previous < margin <= 1.0 + 1e-15
            assert slope > 0.0
            previous = margin

    def test_gauss_legendre_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        half = sorted(_GL_HALF)
        assert np.allclose([x for x, _ in half], nodes[8:], rtol=0, atol=1e-15)
        assert np.allclose([w for _, w in half], weights[8:], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_invalid_snr(self, bad):
        with pytest.raises(ValueError):
            covert_margin(10, bad)
