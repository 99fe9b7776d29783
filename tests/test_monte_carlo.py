"""Tests for the Monte Carlo verification engine."""

import itertools
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
    simulate_bob,
    simulate_warden,
)
from covertpilot.detection import reg_lower_gamma
from covertpilot import cli


def make_cfg(n=100, sw2=1.0):
    return SystemConfig(n=n, lambda_ab=1.0, sigma_b2=1.0, sigma_w2=sw2, epsilon=0.1)


def simulate_willie(cfg, alloc, mc, detector):
    return simulate_warden(cfg, alloc, mc, (detector,)).rates[0]


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
        with pytest.raises(ValueError, match="got True"):
            McConfig(trials=1000, seed=True)


class TestDeterminism:
    def test_willie_estimates_bit_identical(self):
        cfg = make_cfg(n=50)
        alloc = PowerAllocation.equal_power(n=50, rho=0.2, n_p=10)
        mc = McConfig(trials=20_000, seed=99)
        det = Radiometer(threshold=optimal_threshold(0.2, 1.0))
        assert simulate_warden(cfg, alloc, mc, (det,)) == simulate_warden(cfg, alloc, mc, (det,))

    def test_bob_estimates_bit_identical(self):
        cfg = make_cfg(n=50)
        alloc = PowerAllocation.equal_power(n=50, rho=0.2, n_p=10)
        mc = McConfig(trials=20_000, seed=99)
        assert simulate_bob(cfg, alloc, mc) == simulate_bob(cfg, alloc, mc)

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
        detectors = (LikelihoodRatioTest(), Radiometer(threshold=tau))
        assert simulate_warden(cfg, alloc, mc, detectors).disagreements == 0

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

    def test_default_fig1_rows_lie_within_four_sigma_of_exact(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert cli.main(["fig1", "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 38
        cfg = make_cfg(n=100)
        for row in rows:
            alloc = PowerAllocation.split(
                n=100, rho=0.05, eta=float(row["eta"]), n_p=int(row["n_p"])
            )
            deviation = float(row["xi_lrt"]) - exact_lrt_xi(cfg, alloc)
            assert abs(deviation) <= 4.0 * float(row["xi_lrt_stderr"]), row

    @pytest.mark.parametrize("n,n_p", [(100, 20), (100, 50), (1000, 300), (10_000, 2000)])
    def test_exact_error_peaks_at_equal_power(self, n, n_p):
        # eta = n_d / n and ten steps of 0.01 either side, at rho = 0.5 / sqrt(n)
        cfg = make_cfg(n=n)
        equal = (n - n_p) / n
        etas = [round(equal + k / 100, 2) for k in range(-10, 11)]
        xis = [
            exact_lrt_xi(cfg, PowerAllocation.split(n=n, rho=0.5 / math.sqrt(n), eta=eta, n_p=n_p))
            for eta in etas
        ]
        assert etas[int(np.argmax(xis))] == equal

    def test_kl_bound_stays_below_exact_error(self):
        cases = [(100, n_p, k / 20) for n_p in (20, 50) for k in range(1, 20)]
        cases += [(10_000, 2000, k / 10) for k in range(1, 10)]
        for n, n_p, eta in cases:
            cfg = make_cfg(n=n)
            alloc = PowerAllocation.split(n=n, rho=0.5 / math.sqrt(n), eta=eta, n_p=n_p)
            bound = covertness_lower_bound(kl_divergence(cfg, alloc))
            assert bound < exact_lrt_xi(cfg, alloc), (n, n_p, eta)


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
    def test_shared_pass_matches_separate_passes(self, alloc):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=40_000, seed=61)
        radiometer = Radiometer(threshold=optimal_threshold(0.05, cfg.sigma_w2))
        lrt = LikelihoodRatioTest()
        warden = simulate_warden(cfg, alloc, mc, (radiometer, lrt))
        for rates, (det, other) in zip(warden.rates, ((radiometer, lrt), (lrt, radiometer))):
            false_alarms, missed, expected = separate_warden_passes(cfg, alloc, mc, det, other)
            assert (rates.alpha.value, rates.beta.value) == (
                false_alarms / mc.trials, missed / mc.trials
            )
            assert warden.disagreements == expected


class TestBobSimulation:
    def test_sinr_matches_analytic(self):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=200_000, seed=31)
        estimate = simulate_bob(cfg, alloc, mc).sinr
        analytic = sinr(cfg, alloc)
        assert estimate.value == pytest.approx(analytic, rel=0.02)
        assert abs(estimate.value - analytic) <= 4.0 * estimate.std_err

    def test_estimate_variance_half_split(self):
        # lambda = sigma_b2 = 1 and unit pilot energy give var(h_hat) = 0.5
        cfg = make_cfg(n=10)
        alloc = PowerAllocation(n=10, n_p=2, rho_p=0.5, rho_d=1.0)
        mc = McConfig(trials=200_000, seed=37)
        diag = simulate_bob(cfg, alloc, mc)
        assert abs(diag.var_h_hat.value - 0.5) <= 3.0 * diag.var_h_hat.std_err
        assert abs(diag.var_h_tilde.value - 0.5) <= 3.0 * diag.var_h_tilde.std_err

    def test_estimation_error_vanishes_with_huge_pilot_energy(self):
        cfg = make_cfg(n=10)
        alloc = PowerAllocation(n=10, n_p=2, rho_p=5e5, rho_d=1.0)
        mc = McConfig(trials=50_000, seed=41)
        diag = simulate_bob(cfg, alloc, mc)
        assert diag.var_h_tilde.value < 1e-5

    def test_orthogonality_of_estimate_and_error(self):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=200_000, seed=43)
        for n_p, eta in ((10, 0.5), (40, 0.7)):
            alloc = PowerAllocation.split(n=100, rho=0.6, eta=eta, n_p=n_p)
            diag = simulate_bob(cfg, alloc, mc)
            assert abs(diag.orth_corr_re.value) <= 4.0 * diag.orth_corr_re.std_err
            assert abs(diag.orth_corr_im.value) <= 4.0 * diag.orth_corr_im.std_err

    def test_empirical_variances_match_analytic(self):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=200_000, seed=47)
        diag = simulate_bob(cfg, alloc, mc)
        var_h_hat, var_h_tilde = mmse_split(cfg, alloc)
        assert abs(diag.var_h_hat.value - var_h_hat) <= 4.0 * diag.var_h_hat.std_err
        assert abs(diag.var_h_tilde.value - var_h_tilde) <= 4.0 * diag.var_h_tilde.std_err

    def test_sinr_and_diagnostics_share_one_pass(self, monkeypatch):
        # each call draws every chunk once: nothing is kept between calls
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=20_000, seed=53)
        draws = []
        draw = monte_carlo._draw_bob_trial

        def counted(*args):
            draws.append(args[-1])
            return draw(*args)

        monkeypatch.setattr(monte_carlo, "_draw_bob_trial", counted)
        first = simulate_bob(cfg, alloc, mc)
        assert draws == [CHUNK_TRIALS, mc.trials - CHUNK_TRIALS]
        assert simulate_bob(cfg, alloc, mc) == first
        assert draws == 2 * [CHUNK_TRIALS, mc.trials - CHUNK_TRIALS]

    def test_bob_sums_match_a_reference_loop(self):
        # every estimate from the nine moment sums of a reference loop, to the bit
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.split(n=100, rho=0.8, eta=0.6, n_p=25)
        mc = McConfig(trials=40_000, seed=59)
        sums = [0.0] * 9
        for chunk, size in monte_carlo._chunks(mc.trials):
            rng = monte_carlo._stream(mc.seed, 2, chunk)
            h, h_hat = monte_carlo._draw_bob_trial(rng, cfg, alloc, size)
            hh = np.abs(h_hat) ** 2
            ee = np.abs(h - h_hat) ** 2
            cross = h_hat * np.conj(h - h_hat)
            terms = (hh, hh * hh, ee, ee * ee, hh * ee, cross.real, cross.real**2,
                     cross.imag, cross.imag**2)
            for k, term in enumerate(terms):
                sums[k] += float(np.sum(term))
        t = mc.trials

        def moment(total, total_sq):
            mean = total / t
            return mean, math.sqrt(max(total_sq / t - mean * mean, 0.0) / t)

        hh, ee = moment(*sums[0:2]), moment(*sums[2:4])
        norm = math.sqrt(hh[0] * ee[0])
        re, im = moment(*sums[5:7]), moment(*sums[7:9])
        # the SINR's sums of s, i and their products, as exact combinations
        rho_d, sb2 = alloc.rho_d, cfg.sigma_b2
        sum_s, sum_i = rho_d * sums[0], rho_d * sums[2] + sb2 * t
        sum_ss = rho_d * rho_d * sums[1]
        sum_ii = rho_d * rho_d * sums[3] + 2.0 * rho_d * sb2 * sums[2] + sb2 * sb2 * t
        sum_si = rho_d * rho_d * sums[4] + rho_d * sb2 * sums[0]
        ratio = (sum_s / t) / (sum_i / t)
        var_resid = (sum_ss - 2.0 * ratio * sum_si + ratio * ratio * sum_ii) / t
        expected = [
            (ratio, math.sqrt(max(var_resid, 0.0) / t) / (sum_i / t)),
            hh,
            ee,
            (re[0] / norm, re[1] / norm),
            (im[0] / norm, im[1] / norm),
        ]
        result = simulate_bob(cfg, alloc, mc)
        estimates = (result.sinr, result.var_h_hat, result.var_h_tilde,
                     result.orth_corr_re, result.orth_corr_im)
        assert [(e.value, e.std_err) for e in estimates] == expected
        assert {e.trials for e in estimates} == {t}

    def test_sinr_matches_five_direct_sums(self):
        # the SINR formed from the moment sums against sums of the signal
        # s, the interference i and their products, taken directly
        mc = McConfig(trials=20_000, seed=61)
        for n, sigma_b2, rho, n_p, lam in itertools.product(
            (20, 1000), (1e-3, 1.0, 1e9), (1e-6, 0.05, 100.0), (1, 10), (1e-3, 1.0, 10.0)
        ):
            cfg = SystemConfig(n=n, lambda_ab=lam, sigma_b2=sigma_b2, sigma_w2=1.0, epsilon=0.1)
            alloc = PowerAllocation.equal_power(n=n, rho=rho, n_p=n_p)
            sums = [0.0] * 5
            for chunk, size in monte_carlo._chunks(mc.trials):
                rng = monte_carlo._stream(mc.seed, 2, chunk)
                h, h_hat = monte_carlo._draw_bob_trial(rng, cfg, alloc, size)
                s = alloc.rho_d * np.abs(h_hat) ** 2
                i = alloc.rho_d * np.abs(h - h_hat) ** 2 + sigma_b2
                for k, term in enumerate((s, i, s * s, i * i, s * i)):
                    sums[k] += float(np.sum(term))
            sum_s, sum_i, sum_ss, sum_ii, sum_si = sums
            t = mc.trials
            ratio = (sum_s / t) / (sum_i / t)
            var_resid = (sum_ss - 2.0 * ratio * sum_si + ratio * ratio * sum_ii) / t
            std_err = math.sqrt(max(var_resid, 0.0) / t) / (sum_i / t)
            estimate = simulate_bob(cfg, alloc, mc).sinr
            case = (n, sigma_b2, rho, n_p, lam)
            assert estimate.value == pytest.approx(ratio, rel=1e-14, abs=0), case
            assert estimate.std_err == pytest.approx(std_err, rel=1e-14, abs=0), case

    def test_allocation_for_another_n_is_refused(self):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.equal_power(n=10, rho=0.05, n_p=2)
        mc = McConfig(trials=1000, seed=1)
        with pytest.raises(ValueError, match="allocation is for n=10 but"):
            simulate_bob(cfg, alloc, mc)
        with pytest.raises(ValueError, match="allocation is for n=10 but"):
            simulate_warden(cfg, alloc, mc, (LikelihoodRatioTest(),))
