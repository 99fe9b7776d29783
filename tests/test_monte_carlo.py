"""Tests for the Monte Carlo verification engine."""

import math

import numpy as np
import pytest

from covertpilot.detection import (
    covertness_lower_bound,
    kl_divergence,
    min_detection_error,
    optimal_threshold,
)
from covertpilot.link_model import PowerAllocation, SystemConfig, sinr
from covertpilot import monte_carlo
from covertpilot.monte_carlo import (
    CHUNK_TRIALS,
    LikelihoodRatioTest,
    McConfig,
    Radiometer,
    TrialBudgetError,
    bob_estimation_diagnostics,
    count_detector_disagreements,
    simulate_bob_sinr,
    simulate_willie,
)
from covertpilot.detection import reg_lower_gamma


def make_cfg(n=100, sw2=1.0):
    return SystemConfig(n=n, lambda_ab=1.0, sigma_b2=1.0, sigma_w2=sw2, epsilon=0.1)


def mmse_split(cfg, alloc):
    """Oracle: variances of the MMSE channel estimate and of its error.

    With pilot energy E_p = n_p rho_p:
        var_h_hat   = lambda^2 E_p / (lambda E_p + sigma_b2)
        var_h_tilde = lambda sigma_b2 / (lambda E_p + sigma_b2)
    """
    lam = cfg.lambda_ab
    pilot_energy = alloc.n_p * alloc.rho_p
    denom = lam * pilot_energy + cfg.sigma_b2
    return lam * lam * pilot_energy / denom, lam * cfg.sigma_b2 / denom


class TestMcConfig:
    def test_small_budget_refused(self):
        with pytest.raises(TrialBudgetError):
            McConfig(trials=999, seed=1)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            McConfig(trials=1000, seed=-1)
        with pytest.raises(ValueError):
            McConfig(trials=1000, seed=2**64)


class TestDeterminism:
    # each second call draws afresh rather than reading the memoised pass

    def test_willie_estimates_bit_identical(self, monkeypatch):
        cfg = make_cfg(n=50)
        alloc = PowerAllocation.equal_power(n=50, rho=0.2, n_p=10)
        mc = McConfig(trials=20_000, seed=99)
        det = Radiometer(threshold=optimal_threshold(0.2, 1.0))
        first = simulate_willie(cfg, alloc, mc, det)
        monkeypatch.setattr(monte_carlo, "_last_warden", None)
        second = simulate_willie(cfg, alloc, mc, det)
        assert first == second

    def test_bob_estimates_bit_identical(self):
        cfg = make_cfg(n=50)
        alloc = PowerAllocation.equal_power(n=50, rho=0.2, n_p=10)
        mc = McConfig(trials=20_000, seed=99)
        first = simulate_bob_sinr(cfg, alloc, mc)
        monte_carlo._bob_sums.cache_clear()
        assert simulate_bob_sinr(cfg, alloc, mc) == first

    def test_different_seeds_differ(self):
        cfg = make_cfg(n=50)
        alloc = PowerAllocation.equal_power(n=50, rho=0.2, n_p=10)
        det = LikelihoodRatioTest()
        a = simulate_willie(cfg, alloc, McConfig(trials=20_000, seed=1), det)
        b = simulate_willie(cfg, alloc, McConfig(trials=20_000, seed=2), det)
        assert a != b


def raw_words(seed, domain, chunk):
    return monte_carlo._stream(seed, domain, chunk).bit_generator.random_raw(4).tolist()


class TestStreamKeys:
    def test_seed_words_do_not_alias_the_chunk_index(self):
        # as one flat entropy list these two keys give the same state
        assert raw_words(5 + 2**32, 1, 0) != raw_words(5, 1, 1)

    def test_domains_differ_at_the_same_seed_and_chunk(self):
        assert raw_words(5, 1, 0) != raw_words(5, 2, 0)

    def test_stream_words_are_pinned(self):
        # a change here changes every verify and fig1 row; state it when it is made
        assert raw_words(12345, 1, 0) == [
            0x5E0117367E0C5D66, 0xEE2A1F7FE6E5D7A1, 0x6EA2D36E7A91CA81, 0x47D9FCA738144F3B,
        ]
        assert raw_words(12345, 2, 0) == [
            0x0AE7493B79401DB8, 0xBE5D99AA1F6EF0C0, 0x4110AD3FE46716D1, 0x2C1884D900C03419,
        ]


class TestWillieDetection:
    def test_zero_power_is_blind_guessing(self):
        cfg = make_cfg(n=40)
        alloc = PowerAllocation.split(n=40, rho=0.0, eta=0.5, n_p=10)
        mc = McConfig(trials=50_000, seed=5)
        # the LRT degenerates to never deciding H1: alpha = 0, beta = 1
        rates = simulate_willie(cfg, alloc, mc, LikelihoodRatioTest())
        assert rates.alpha.value == 0.0
        assert rates.beta.value == 1.0
        assert rates.xi.value == 1.0
        # an energy detector cannot beat guessing either
        rates = simulate_willie(cfg, alloc, mc, Radiometer(threshold=cfg.sigma_w2))
        assert abs(rates.xi.value - 1.0) <= 3.0 * rates.xi.std_err

    def test_equal_power_radiometer_matches_closed_form(self):
        cfg = make_cfg(n=100)
        rho = 0.05
        alloc = PowerAllocation.equal_power(n=100, rho=rho, n_p=20)
        mc = McConfig(trials=200_000, seed=7)
        rates = simulate_willie(
            cfg, alloc, mc, Radiometer(threshold=optimal_threshold(rho, cfg.sigma_w2))
        )
        analytic = min_detection_error(cfg, rho)
        a = rates.alpha.value
        assert rates.alpha.std_err == math.sqrt(a * (1.0 - a) / mc.trials)
        assert abs(rates.alpha.value - analytic.alpha) <= 3.0 * rates.alpha.std_err
        assert abs(rates.beta.value - analytic.beta) <= 3.0 * rates.beta.std_err
        assert abs(rates.xi.value - analytic.xi_star) <= 3.0 * rates.xi.std_err

    def test_equal_power_lrt_agrees_with_optimal_radiometer(self):
        cfg = make_cfg(n=100)
        rho = 0.05
        alloc = PowerAllocation.equal_power(n=100, rho=rho, n_p=20)
        mc = McConfig(trials=100_000, seed=11)
        tau = optimal_threshold(rho, cfg.sigma_w2)
        assert (
            count_detector_disagreements(
                cfg, alloc, mc, LikelihoodRatioTest(), Radiometer(threshold=tau)
            )
            == 0
        )

    def test_radiometer_false_alarm_matches_chi_square_tail(self):
        cfg = make_cfg(n=60)
        alloc = PowerAllocation.equal_power(n=60, rho=0.1, n_p=15)
        mc = McConfig(trials=100_000, seed=13)
        for tau in (0.8, 0.9, 1.0, 1.1, 1.3):
            rates = simulate_willie(cfg, alloc, mc, Radiometer(threshold=tau))
            analytic = 1.0 - reg_lower_gamma(cfg.n, cfg.n * tau / cfg.sigma_w2)
            se = max(rates.alpha.std_err, math.sqrt(0.25 / mc.trials) * 0.02)
            assert abs(rates.alpha.value - analytic) <= 3.0 * se

    def test_lrt_error_respects_kl_bound(self):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=50_000, seed=17)
        for eta in (0.3, 0.5, 0.8, 0.9):
            alloc = PowerAllocation.split(n=100, rho=0.05, eta=eta, n_p=20)
            rates = simulate_willie(cfg, alloc, mc, LikelihoodRatioTest())
            bound = covertness_lower_bound(kl_divergence(cfg, alloc))
            assert rates.xi.value >= bound - 3.0 * rates.xi.std_err

    def test_lrt_error_peaks_at_equal_power(self):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=20_000, seed=19)
        xis = {}
        for eta in np.arange(0.1, 0.95, 0.1):
            alloc = PowerAllocation.split(n=100, rho=0.05, eta=round(float(eta), 2), n_p=20)
            xis[round(float(eta), 2)] = simulate_willie(
                cfg, alloc, mc, LikelihoodRatioTest()
            ).xi.value
        assert max(xis, key=xis.get) == pytest.approx(0.8, abs=0.101)


def exact_lrt_xi(cfg, alloc):
    """The LRT's alpha + beta by quadrature over the unit pilot energy G_p.

    Given G_p, the detector errs when the unit data energy G_d ~ Gamma(n_d)
    lies above (H0) or below (H1) a line in G_p, so xi is the Gamma(n_p)
    density times those Gamma(n_d) tails, integrated once.
    """
    integrate = pytest.importorskip("scipy.integrate")
    special = pytest.importorskip("scipy.special")
    sw2 = cfg.sigma_w2
    n_p, n_d = alloc.n_p, alloc.n_d
    w_p = alloc.rho_p / (sw2 * (alloc.rho_p + sw2))
    w_d = alloc.rho_d / (sw2 * (alloc.rho_d + sw2))
    t = n_p * math.log1p(alloc.rho_p / sw2) + n_d * math.log1p(alloc.rho_d / sw2)
    # the statistic is a_p G_p + a_d G_d, with (a_p, a_d) per hypothesis
    a0 = (w_p * sw2, w_d * sw2)
    a1 = (w_p * (alloc.rho_p + sw2), w_d * (alloc.rho_d + sw2))

    def integrand(g):
        density = math.exp((n_p - 1) * math.log(g) - g - special.gammaln(n_p))
        false_alarm = special.gammaincc(n_d, max(t - a0[0] * g, 0.0) / a0[1])
        miss = special.gammainc(n_d, max(t - a1[0] * g, 0.0) / a1[1])
        return density * (false_alarm + miss)

    top = n_p + 40.0 * math.sqrt(n_p) + 40.0
    # the data tails have a kink where their argument reaches 0
    kinks = sorted(k for k in (t / a0[0], t / a1[0]) if k < top)
    xi, _ = integrate.quad(
        integrand, 0.0, top, points=kinks, epsabs=1e-13, epsrel=1e-12, limit=400
    )
    return xi


class TestExactLrtError:
    def test_reference_matches_closed_form_at_equal_power(self):
        cfg = make_cfg(n=100)
        for n_p in (20, 50):
            alloc = PowerAllocation.equal_power(n=100, rho=0.05, n_p=n_p)
            assert exact_lrt_xi(cfg, alloc) == pytest.approx(
                min_detection_error(cfg, 0.05).xi_star, abs=1e-12
            )

    def test_unequal_power_estimate_is_unbiased(self):
        # each row has its own seed: rows drawn from one seed are correlated
        cfg = make_cfg(n=100)
        rows = [(20, 0.3), (20, 0.6), (20, 0.95), (50, 0.2), (50, 0.4), (50, 0.8)]
        for index, (n_p, eta) in enumerate(rows):
            alloc = PowerAllocation.split(n=100, rho=0.05, eta=eta, n_p=n_p)
            mc = McConfig(trials=100_000, seed=1000 + index)
            xi = simulate_willie(cfg, alloc, mc, LikelihoodRatioTest()).xi
            assert abs(xi.value - exact_lrt_xi(cfg, alloc)) <= 4.0 * xi.std_err


class TestCoupledWardenDraw:
    def test_equal_power_scales_one_total_per_trial(self):
        cfg = make_cfg(n=50, sw2=2.0)
        alloc = PowerAllocation.equal_power(n=50, rho=0.3, n_p=10)
        stream = monte_carlo._stream(5, 1, 0)
        (p0, d0), (p1, d1) = monte_carlo._draw_segment_energies(stream, cfg, alloc, 1000)
        assert d0 == d1 == 0.0
        assert np.array_equal(p0, 2.0 * monte_carlo._stream(5, 1, 0).standard_gamma(50, 1000))
        assert np.array_equal(p1, (1.0 + 0.3 / 2.0) * p0)

    def test_unequal_power_scales_one_draw_per_segment(self):
        cfg = make_cfg(n=50, sw2=2.0)
        alloc = PowerAllocation.split(n=50, rho=0.3, eta=0.5, n_p=10)
        h0, h1 = monte_carlo._draw_segment_energies(monte_carlo._stream(5, 1, 0), cfg, alloc, 100)
        rng = monte_carlo._stream(5, 1, 0)
        pilot = 2.0 * rng.standard_gamma(10, 100)
        data = 2.0 * rng.standard_gamma(40, 100)
        expected = [
            pilot,
            data,
            (1.0 + alloc.rho_p / 2.0) * pilot,
            (1.0 + alloc.rho_d / 2.0) * data,
        ]
        assert all(np.array_equal(a, b) for a, b in zip((*h0, *h1), expected))

    @pytest.mark.parametrize("detector", [LikelihoodRatioTest(), Radiometer(threshold=1.02)])
    def test_equal_power_xi_is_one_binomial_proportion(self, detector):
        assert_xi_is_one_binomial_proportion(
            PowerAllocation.equal_power(n=100, rho=0.05, n_p=20), detector
        )

    @pytest.mark.parametrize("detector", [LikelihoodRatioTest(), Radiometer(threshold=1.02)])
    def test_unequal_power_xi_is_one_binomial_proportion(self, detector):
        assert_xi_is_one_binomial_proportion(
            PowerAllocation.split(n=100, rho=0.05, eta=0.5, n_p=20), detector
        )


def assert_xi_is_one_binomial_proportion(alloc, detector):
    # a false alarm and a miss never fall on one trial of the shared draw
    cfg = make_cfg(n=100)
    mc = McConfig(trials=40_000, seed=3)
    for chunk, size in monte_carlo._chunks(mc.trials):
        h0, h1 = monte_carlo._draw_segment_energies(
            monte_carlo._stream(mc.seed, 1, chunk), cfg, alloc, size
        )
        false_alarm = monte_carlo._decides_h1(detector, cfg, alloc, *h0)
        miss = ~monte_carlo._decides_h1(detector, cfg, alloc, *h1)
        assert not np.any(false_alarm & miss)
    rates = simulate_willie(cfg, alloc, mc, detector)
    errors = round(rates.alpha.value * mc.trials) + round(rates.beta.value * mc.trials)
    xi = errors / mc.trials
    assert rates.xi.value == xi
    assert rates.xi.std_err == math.sqrt(xi * (1.0 - xi) / mc.trials)


def separate_warden_passes(cfg, alloc, mc, det_a, det_b):
    """Rates of det_a and the disagreement count, each from its own loop."""
    false_alarms = missed = disagreements = 0
    for chunk, size in monte_carlo._chunks(mc.trials):
        rng = monte_carlo._stream(mc.seed, 1, chunk)
        h0, h1 = monte_carlo._draw_segment_energies(rng, cfg, alloc, size)
        false_alarms += int(np.count_nonzero(monte_carlo._decides_h1(det_a, cfg, alloc, *h0)))
        missed += int(np.count_nonzero(~monte_carlo._decides_h1(det_a, cfg, alloc, *h1)))
    for chunk, size in monte_carlo._chunks(mc.trials):
        rng = monte_carlo._stream(mc.seed, 1, chunk)
        for energies in monte_carlo._draw_segment_energies(rng, cfg, alloc, size):
            a = monte_carlo._decides_h1(det_a, cfg, alloc, *energies)
            b = monte_carlo._decides_h1(det_b, cfg, alloc, *energies)
            disagreements += int(np.count_nonzero(a != b))
    return false_alarms, missed, disagreements


class TestSharedWardenPass:
    @pytest.mark.parametrize(
        "alloc",
        [PowerAllocation.equal_power(n=100, rho=0.05, n_p=20),
         PowerAllocation.split(n=100, rho=0.05, eta=0.7, n_p=20)],
        ids=["coupled", "split"],
    )
    def test_shared_pass_matches_separate_passes(self, alloc, monkeypatch):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=40_000, seed=61)
        radiometer = Radiometer(threshold=optimal_threshold(0.05, cfg.sigma_w2))
        lrt = LikelihoodRatioTest()
        monkeypatch.setattr(monte_carlo, "_last_warden", None)
        disagreements = count_detector_disagreements(cfg, alloc, mc, radiometer, lrt)
        for det, other in ((radiometer, lrt), (lrt, radiometer)):
            rates = simulate_willie(cfg, alloc, mc, det)
            false_alarms, missed, expected = separate_warden_passes(cfg, alloc, mc, det, other)
            assert (rates.alpha.value, rates.beta.value) == (
                false_alarms / mc.trials, missed / mc.trials
            )
            assert disagreements == expected

    def test_other_inputs_are_not_served_stale_counts(self, monkeypatch):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.equal_power(n=100, rho=0.05, n_p=20)
        mc = McConfig(trials=20_000, seed=67)
        radiometer = Radiometer(threshold=optimal_threshold(0.05, cfg.sigma_w2))
        lrt = LikelihoodRatioTest()
        other = Radiometer(threshold=1.0)
        calls = [
            (simulate_willie, cfg, alloc, McConfig(trials=20_000, seed=68), radiometer),
            (simulate_willie, cfg, alloc, McConfig(trials=30_000, seed=67), radiometer),
            (simulate_willie, cfg, PowerAllocation.equal_power(n=100, rho=0.1, n_p=20),
             mc, radiometer),
            (simulate_willie, cfg, PowerAllocation.split(n=100, rho=0.05, eta=0.7, n_p=20),
             mc, radiometer),
            (simulate_willie, make_cfg(n=100, sw2=1.1), alloc, mc, radiometer),
            (simulate_willie, cfg, alloc, mc, other),
            (count_detector_disagreements, cfg, alloc, mc, radiometer, other),
            (count_detector_disagreements, cfg, alloc, mc, other, lrt),
        ]
        for fn, *args in calls:
            monkeypatch.setattr(monte_carlo, "_last_warden", None)
            fresh = fn(*args)
            count_detector_disagreements(cfg, alloc, mc, radiometer, lrt)
            assert fn(*args) == fresh

    def test_pass_is_read_again_only_for_what_it_evaluated(self, monkeypatch):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.equal_power(n=100, rho=0.05, n_p=20)
        mc = McConfig(trials=20_000, seed=71)
        radiometer = Radiometer(threshold=optimal_threshold(0.05, cfg.sigma_w2))
        lrt = LikelihoodRatioTest()
        monkeypatch.setattr(monte_carlo, "_last_warden", None)
        count_detector_disagreements(cfg, alloc, mc, radiometer, lrt)
        last = monte_carlo._last_warden
        simulate_willie(cfg, alloc, mc, lrt)
        count_detector_disagreements(cfg, alloc, mc, lrt, radiometer)
        assert monte_carlo._last_warden is last
        simulate_willie(cfg, alloc, mc, Radiometer(threshold=1.0))
        assert monte_carlo._last_warden is not last


class TestBobSimulation:
    def test_sinr_matches_analytic(self):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=200_000, seed=31)
        estimate = simulate_bob_sinr(cfg, alloc, mc)
        analytic = sinr(cfg, alloc)
        assert estimate.value == pytest.approx(analytic, rel=0.02)
        assert abs(estimate.value - analytic) <= 4.0 * estimate.std_err

    def test_estimate_variance_half_split(self):
        # lambda = sigma_b2 = 1 and unit pilot energy give var(h_hat) = 0.5
        cfg = make_cfg(n=10)
        alloc = PowerAllocation(n=10, n_p=2, rho_p=0.5, rho_d=1.0)
        mc = McConfig(trials=200_000, seed=37)
        diag = bob_estimation_diagnostics(cfg, alloc, mc)
        assert abs(diag.var_h_hat.value - 0.5) <= 3.0 * diag.var_h_hat.std_err
        assert abs(diag.var_h_tilde.value - 0.5) <= 3.0 * diag.var_h_tilde.std_err

    def test_estimation_error_vanishes_with_huge_pilot_energy(self):
        cfg = make_cfg(n=10)
        alloc = PowerAllocation(n=10, n_p=2, rho_p=5e5, rho_d=1.0)
        mc = McConfig(trials=50_000, seed=41)
        diag = bob_estimation_diagnostics(cfg, alloc, mc)
        assert diag.var_h_tilde.value < 1e-5

    def test_orthogonality_of_estimate_and_error(self):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=200_000, seed=43)
        for n_p, eta in ((10, 0.5), (40, 0.7)):
            alloc = PowerAllocation.split(n=100, rho=0.6, eta=eta, n_p=n_p)
            diag = bob_estimation_diagnostics(cfg, alloc, mc)
            assert abs(diag.orth_corr_re.value) <= 4.0 * diag.orth_corr_re.std_err
            assert abs(diag.orth_corr_im.value) <= 4.0 * diag.orth_corr_im.std_err

    def test_empirical_variances_match_analytic(self):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=200_000, seed=47)
        diag = bob_estimation_diagnostics(cfg, alloc, mc)
        var_h_hat, var_h_tilde = mmse_split(cfg, alloc)
        assert abs(diag.var_h_hat.value - var_h_hat) <= 4.0 * diag.var_h_hat.std_err
        assert abs(diag.var_h_tilde.value - var_h_tilde) <= 4.0 * diag.var_h_tilde.std_err

    def test_sinr_and_diagnostics_share_one_pass(self, monkeypatch):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=20_000, seed=53)
        draws = []
        draw = monte_carlo._draw_bob_trial

        def counted(*args):
            draws.append(args[-1])
            return draw(*args)

        monkeypatch.setattr(monte_carlo, "_draw_bob_trial", counted)
        monte_carlo._bob_sums.cache_clear()
        estimate = simulate_bob_sinr(cfg, alloc, mc)
        diag = bob_estimation_diagnostics(cfg, alloc, mc)
        assert draws == [CHUNK_TRIALS, mc.trials - CHUNK_TRIALS]
        assert estimate == simulate_bob_sinr(cfg, alloc, mc)
        assert diag == bob_estimation_diagnostics(cfg, alloc, mc)
        assert len(draws) == 2

    def test_shared_pass_sums_match_two_separate_passes(self):
        # the SINR pass and the diagnostics pass as separate loops: the
        # shared pass must reproduce every sum to the bit
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=40_000, seed=59)
        sinr_sums = [0.0] * 5
        diag_sums = [0.0] * 8
        for chunk, size in monte_carlo._chunks(mc.trials):
            rng = monte_carlo._stream(mc.seed, 2, chunk)
            h, h_hat = monte_carlo._draw_bob_trial(rng, cfg, alloc, size)
            signal = alloc.rho_d * np.abs(h_hat) ** 2
            interference = alloc.rho_d * np.abs(h - h_hat) ** 2 + cfg.sigma_b2
            terms = (signal, interference, signal * signal,
                     interference * interference, signal * interference)
            for k, term in enumerate(terms):
                sinr_sums[k] += float(np.sum(term))
            err = h - h_hat
            hh = np.abs(h_hat) ** 2
            ee = np.abs(err) ** 2
            cross = h_hat * np.conj(err)
            terms = (hh, hh * hh, ee, ee * ee, cross.real, cross.real**2,
                     cross.imag, cross.imag**2)
            for k, term in enumerate(terms):
                diag_sums[k] += float(np.sum(term))
        monte_carlo._bob_sums.cache_clear()
        assert monte_carlo._bob_sums(cfg, alloc, mc) == (tuple(sinr_sums), tuple(diag_sums))
