"""Tests for the Monte Carlo verification engine."""

import itertools
import math
from fractions import Fraction

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
    McEstimate,
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
    (warden,) = simulate_warden(cfg, (alloc,), mc, (detector,))
    return warden.rates[0]


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


def bob_normals(seed, chunk, size):
    """Oracle: the unit draws E ~ Exp(1), then w re and w im, for one Bob chunk."""
    rng = monte_carlo._stream(seed, 2, chunk)
    return [rng.standard_exponential(size), rng.standard_normal(size), rng.standard_normal(size)]


def bob_rows(cfg, alloc, seed, chunk, size):
    """Oracle: (h_hat re, h_hat im, err re, err im) of one Bob chunk, in h's phase frame.

    With h = sqrt(lambda) r, r = sqrt(E), and w = s_w (c + i d):
    h_hat = (A r + B c) + i B d and h - h_hat = (K r - B c) - i B d, where
    A = g sqrt(rho_p lambda), K = kappa sqrt(lambda) with kappa = 1 - g sqrt(rho_p)
    as a ratio, and B = g s_w.
    """
    lam, sb2, n_p, rho_p = cfg.lambda_ab, cfg.sigma_b2, alloc.n_p, alloc.rho_p
    gain = math.sqrt(rho_p) * lam * n_p / (lam * n_p * rho_p + sb2)
    kappa = sb2 / (lam * n_p * rho_p + sb2)
    hat_a, err_a = gain * math.sqrt(rho_p) * math.sqrt(lam), kappa * math.sqrt(lam)
    w_b = gain * math.sqrt(sb2 / (2.0 * n_p))
    e, c, d = bob_normals(seed, chunk, size)
    r = np.sqrt(e)
    return hat_a * r + w_b * c, w_b * d, err_a * r - w_b * c, -(w_b * d)


def segment_draws(seed, chunk, cfg, allocs, size):
    """Per pilot count, the unit energies of one warden chunk, drawn by the pass's helper."""
    rng = monte_carlo._stream(seed, 1, chunk)
    energies = np.empty((2 * len({alloc.n_p for alloc in allocs}), CHUNK_TRIALS))
    return monte_carlo._draw_segment_energies(rng, cfg, allocs, energies, size)


def warden_draws(seed, chunk, cfg, allocs, size):
    """The unit (pilot, data) energies of one warden chunk of allocations of one pilot count."""
    (draws,) = segment_draws(seed, chunk, cfg, allocs, size).values()
    return draws


def decides_h1(detector, cfg, alloc, hypothesis, draws):
    """One detector's decisions under one hypothesis: the pass's linear test on the unit draws."""
    a_p, a_d, t = monte_carlo._linear_test(detector, cfg, alloc, hypothesis)
    pilot, data = draws
    return (a_p * pilot if data is None else a_p * pilot + a_d * data) > t


def textbook_decides_h1(detector, cfg, alloc, pilot_energy, data_energy):
    """Oracle: a detector's decisions on explicit segment energies."""
    if isinstance(detector, Radiometer):
        return (pilot_energy + data_energy) / cfg.n > detector.threshold
    sw2 = cfg.sigma_w2
    w_p = alloc.rho_p / (sw2 * (alloc.rho_p + sw2))
    w_d = alloc.rho_d / (sw2 * (alloc.rho_d + sw2))
    t = alloc.n_p * math.log1p(alloc.rho_p / sw2) + alloc.n_d * math.log1p(alloc.rho_d / sw2)
    return w_p * pilot_energy + w_d * data_energy > t


def assert_decisions_match_the_textbook(cfg, alloc, draws, detectors):
    """Both hypotheses' decisions equal the textbook rule on the energies v_k G_k.

    v_k = sigma_w2 under H0 and sigma_w2 + rho_k under H1; an equal-power
    total G carries the whole slot's energy next to a zero data energy.
    """
    pilot, data = draws
    sw2 = cfg.sigma_w2
    for hypothesis, (v_p, v_d) in enumerate(
        ((sw2, sw2), (sw2 + alloc.rho_p, sw2 + alloc.rho_d))
    ):
        energies = (v_p * pilot, 0.0 if data is None else v_d * data)
        for detector in detectors:
            assert np.array_equal(
                decides_h1(detector, cfg, alloc, hypothesis, draws),
                textbook_decides_h1(detector, cfg, alloc, *energies),
            ), (hypothesis, detector)


def textbook_bob(cfg, alloc, mc):
    """Oracle: Bob's five estimates from complex h, w and h_hat, as a textbook forms them."""
    lam, sb2, n_p, rho_p = cfg.lambda_ab, cfg.sigma_b2, alloc.n_p, alloc.rho_p
    s_w = math.sqrt(sb2 / (2.0 * n_p))
    gain = math.sqrt(rho_p) * lam * n_p / (lam * n_p * rho_p + sb2)
    chunks = [bob_normals(mc.seed, chunk, size) for chunk, size in monte_carlo._chunks(mc.trials)]
    e, c, d = (np.concatenate(rows) for rows in zip(*chunks))
    h = np.sqrt(lam * e) + 0j
    h_hat = gain * (math.sqrt(rho_p) * h + (s_w * c + 1j * s_w * d))
    hh, ee = np.abs(h_hat) ** 2, np.abs(h - h_hat) ** 2
    cross = h_hat * np.conj(h - h_hat)
    t = mc.trials
    signal = alloc.rho_d * hh
    interference = alloc.rho_d * ee + sb2
    ratio = signal.mean() / interference.mean()
    sinr_err = np.sqrt(np.mean((signal - ratio * interference) ** 2) / t) / interference.mean()
    norm = math.sqrt(hh.mean() * ee.mean())
    return [
        McEstimate(ratio, sinr_err, t),
        McEstimate(hh.mean(), hh.std() / math.sqrt(t), t),
        McEstimate(ee.mean(), ee.std() / math.sqrt(t), t),
        McEstimate(cross.real.mean() / norm, cross.real.std() / math.sqrt(t) / norm, t),
        McEstimate(cross.imag.mean() / norm, cross.imag.std() / math.sqrt(t) / norm, t),
    ]


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
        assert simulate_warden(cfg, (alloc,), mc, (det,)) == simulate_warden(
            cfg, (alloc,), mc, (det,)
        )

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
        (warden,) = simulate_warden(cfg, (alloc,), mc, detectors)
        assert warden.disagreements == 0

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

    def test_one_fig1_pass_over_two_pilot_counts_lies_within_five_sigma_of_exact(self, tmp_path):
        # both pilot counts read one pass, at three seeds
        config = tmp_path / "run.ini"
        config.write_text("[fig1]\nnp_values = 20, 50\n")
        cfg = make_cfg(n=100)
        exact = {}
        for seed in (1, 2, 3):
            out = tmp_path / f"fig1-{seed}.csv"
            flags = ["--config", str(config), "--seed", str(seed), "--out", str(out)]
            assert cli.main(["fig1", *flags]) == cli.EXIT_OK
            lines = out.read_text().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            assert sorted({int(row["n_p"]) for row in rows}) == [20, 50]
            for row in rows:
                key = (float(row["eta"]), int(row["n_p"]))
                if key not in exact:
                    alloc = PowerAllocation.split(n=100, rho=0.05, eta=key[0], n_p=key[1])
                    exact[key] = exact_lrt_xi(cfg, alloc)
                deviation = float(row["xi_lrt"]) - exact[key]
                assert abs(deviation) <= 5.0 * float(row["xi_lrt_stderr"]), (seed, row)
        assert len(exact) == 38

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
    # sigma_w2 = 2 and rho = 0.3 put the mean per-sample power at 2 (H0) and 2.3 (H1)
    DETECTORS = (LikelihoodRatioTest(), Radiometer(threshold=2.1))

    def test_equal_power_scales_one_total_per_trial(self):
        cfg = make_cfg(n=50, sw2=2.0)
        alloc = PowerAllocation.equal_power(n=50, rho=0.3, n_p=10)
        total, data = warden_draws(5, 0, cfg, (alloc,), 1000)
        assert data is None
        assert np.array_equal(total, monte_carlo._stream(5, 1, 0).standard_gamma(50, 1000))
        assert_decisions_match_the_textbook(cfg, alloc, (total, data), self.DETECTORS)

    def test_unequal_power_scales_one_draw_per_segment(self):
        cfg = make_cfg(n=50, sw2=2.0)
        alloc = PowerAllocation.split(n=50, rho=0.3, eta=0.5, n_p=10)
        draws = warden_draws(5, 0, cfg, (alloc,), 100)
        rng = monte_carlo._stream(5, 1, 0)
        pilot = rng.standard_gamma(10, 100)
        data = rng.standard_gamma(40, 100)
        assert all(np.array_equal(a, b) for a, b in zip(draws, (pilot, data)))
        assert_decisions_match_the_textbook(cfg, alloc, draws, self.DETECTORS)

    def test_equal_power_sweep_scales_one_total_per_allocation(self):
        cfg = make_cfg(n=50, sw2=2.0)
        allocs = tuple(PowerAllocation.equal_power(n=50, rho=rho, n_p=10) for rho in (0.3, 0.6))
        draws = warden_draws(5, 0, cfg, allocs, 1000)
        total = monte_carlo._stream(5, 1, 0).standard_gamma(50, 1000)
        assert np.array_equal(draws[0], total) and draws[1] is None
        for alloc in allocs:
            assert_decisions_match_the_textbook(cfg, alloc, draws, self.DETECTORS)

    def test_mixed_sweep_scales_one_draw_per_segment(self):
        # one unequal-power allocation makes the pass draw both segments, for all
        cfg = make_cfg(n=50, sw2=2.0)
        allocs = (
            PowerAllocation.equal_power(n=50, rho=0.3, n_p=10),
            PowerAllocation.split(n=50, rho=0.3, eta=0.5, n_p=10),
        )
        draws = warden_draws(5, 0, cfg, allocs, 100)
        rng = monte_carlo._stream(5, 1, 0)
        pilot = rng.standard_gamma(10, 100)
        data = rng.standard_gamma(40, 100)
        assert np.array_equal(draws[0], pilot) and np.array_equal(draws[1], data)
        for alloc in allocs:
            assert_decisions_match_the_textbook(cfg, alloc, draws, self.DETECTORS)

    def test_equal_power_decisions_match_the_formulas_with_a_zero_data_energy(self):
        # the equal-power total has no data draw; the formulas see a data energy of 0.0
        cfg = make_cfg(n=100, sw2=2.0)
        alloc = PowerAllocation.equal_power(n=100, rho=0.3, n_p=20)
        draws = warden_draws(5, 0, cfg, (alloc,), 1000)
        w = alloc.rho_p / (2.0 * (alloc.rho_p + 2.0))
        threshold = 20 * math.log1p(alloc.rho_p / 2.0) + 80 * math.log1p(alloc.rho_d / 2.0)
        for hypothesis, v in enumerate((2.0, 2.0 + alloc.rho_p)):
            pilot, data = v * draws[0], 0.0
            assert np.array_equal(
                decides_h1(Radiometer(threshold=2.1), cfg, alloc, hypothesis, draws),
                (pilot + data) / 100 > 2.1,
            )
            assert np.array_equal(
                decides_h1(LikelihoodRatioTest(), cfg, alloc, hypothesis, draws),
                w * pilot + w * data > threshold,
            )

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
        draws = warden_draws(mc.seed, chunk, cfg, (alloc,), size)
        false_alarm = decides_h1(detector, cfg, alloc, 0, draws)
        miss = ~decides_h1(detector, cfg, alloc, 1, draws)
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
        draws = warden_draws(mc.seed, chunk, cfg, (alloc,), size)
        false_alarms += int(np.count_nonzero(decides_h1(det_a, cfg, alloc, 0, draws)))
        missed += int(np.count_nonzero(~decides_h1(det_a, cfg, alloc, 1, draws)))
    for chunk, size in monte_carlo._chunks(mc.trials):
        draws = warden_draws(mc.seed, chunk, cfg, (alloc,), size)
        for hypothesis in (0, 1):
            a = decides_h1(det_a, cfg, alloc, hypothesis, draws)
            b = decides_h1(det_b, cfg, alloc, hypothesis, draws)
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
        (warden,) = simulate_warden(cfg, (alloc,), mc, (radiometer, lrt))
        for rates, (det, other) in zip(warden.rates, ((radiometer, lrt), (lrt, radiometer))):
            false_alarms, missed, expected = separate_warden_passes(cfg, alloc, mc, det, other)
            assert (rates.alpha.value, rates.beta.value) == (
                false_alarms / mc.trials, missed / mc.trials
            )
            assert warden.disagreements == expected


class TestLinearTest:
    RHOS = (0.0, 1e-12, 0.05, 1e6)

    @pytest.mark.parametrize("sw2", [1e-30, 1.0, 1e30])
    def test_coefficients_in_closed_form_and_monotone(self, sw2):
        # a^H1 >= a^H0 >= 0 in floats keeps xi a single binomial proportion at any scale
        cfg = make_cfg(n=100, sw2=sw2)
        radiometer = Radiometer(threshold=1.0)
        for rho_p, rho_d in itertools.product(self.RHOS, repeat=2):
            alloc = PowerAllocation(n=100, n_p=20, rho_p=rho_p, rho_d=rho_d)
            lrt = [monte_carlo._linear_test(LikelihoodRatioTest(), cfg, alloc, h) for h in (0, 1)]
            energy = [monte_carlo._linear_test(radiometer, cfg, alloc, h) for h in (0, 1)]
            assert energy[0][:2] == (sw2, sw2)
            assert energy[1][:2] == (sw2 + rho_p, sw2 + rho_d)
            for k, rho in enumerate((rho_p, rho_d)):
                exact_h0 = Fraction(rho) / (Fraction(rho) + Fraction(sw2))
                exact_h1 = Fraction(rho) / Fraction(sw2)
                for coefficient, exact in ((lrt[0][k], exact_h0), (lrt[1][k], exact_h1)):
                    assert abs(Fraction(coefficient) - exact) <= 4 * 2.0**-52 * exact, (
                        sw2, rho_p, rho_d, k
                    )
                for test in (lrt, energy):
                    assert test[1][k] >= test[0][k] >= 0.0, (sw2, rho_p, rho_d, k)

    def test_unknown_detector_fails_before_any_draw(self, monkeypatch):
        opened = []
        stream = monte_carlo._stream

        def counting_stream(*key):
            opened.append(key)
            return stream(*key)

        monkeypatch.setattr(monte_carlo, "_stream", counting_stream)
        alloc = PowerAllocation.split(n=100, rho=0.05, eta=0.5, n_p=20)
        mc = McConfig(trials=1000, seed=1)
        for detectors in ((object(),), (LikelihoodRatioTest(), object())):
            with pytest.raises(TypeError, match="unknown detector type"):
                simulate_warden(make_cfg(n=100), (alloc,), mc, detectors)
        assert opened == []

    def test_no_detector_is_refused(self):
        alloc = PowerAllocation.split(n=100, rho=0.05, eta=0.5, n_p=20)
        mc = McConfig(trials=1000, seed=1)
        # the records are tuples: a bare LikelihoodRatioTest() is an empty one
        for detectors in ((), LikelihoodRatioTest()):
            with pytest.raises(ValueError, match="at least one detector"):
                simulate_warden(make_cfg(n=100), (alloc,), mc, detectors)

    def test_one_allocation_in_place_of_a_tuple_is_refused(self):
        # an allocation is itself a tuple, of (n, n_p, rho_p, rho_d)
        alloc = PowerAllocation.split(n=100, rho=0.05, eta=0.5, n_p=20)
        mc = McConfig(trials=1000, seed=1)
        with pytest.raises(TypeError, match="tuple of allocations"):
            simulate_warden(make_cfg(n=100), alloc, mc, (LikelihoodRatioTest(),))


def eta_sweep(n_p):
    """The default fig1 allocations of one pilot count at n = 100."""
    return tuple(
        PowerAllocation.split(n=100, rho=0.05, eta=k / 20, n_p=n_p) for k in range(1, 20)
    )


class TestPilotCountIncrements:
    """For counts m_1 < ... < m_K the pass draws the K + 1 runs of the slot in order."""

    COUNTS = (10, 35, 60)

    def allocs(self):
        return tuple(PowerAllocation.split(n=100, rho=0.05, eta=0.5, n_p=m) for m in self.COUNTS)

    def test_counts_read_prefix_and_suffix_sums_of_the_runs(self):
        cfg = make_cfg(n=100)
        draws = segment_draws(7, 3, cfg, self.allocs()[::-1], 1000)
        rng = monte_carlo._stream(7, 1, 3)
        runs = [rng.standard_gamma(shape, 1000) for shape in (10, 25, 25, 40)]
        pilots = [runs[0], runs[0] + runs[1], (runs[0] + runs[1]) + runs[2]]
        data = [runs[1] + (runs[2] + runs[3]), runs[2] + runs[3], runs[3]]
        assert sorted(draws) == list(self.COUNTS)
        for m, pilot, datum in zip(self.COUNTS, pilots, data):
            assert np.array_equal(draws[m][0], pilot) and np.array_equal(draws[m][1], datum), m

    def test_each_count_sees_gamma_segments(self):
        stats = pytest.importorskip("scipy.stats")
        cfg = make_cfg(n=100)
        draws = segment_draws(11, 0, cfg, self.allocs(), CHUNK_TRIALS)
        for m in self.COUNTS:
            pilot, data = draws[m]
            assert stats.kstest(pilot, stats.gamma(m).cdf).pvalue > 1e-3, m
            assert stats.kstest(data, stats.gamma(100 - m).cdf).pvalue > 1e-3, m

    def test_an_equal_power_pass_draws_one_total_for_every_count(self):
        cfg = make_cfg(n=100)
        allocs = tuple(PowerAllocation.equal_power(n=100, rho=0.05, n_p=m) for m in self.COUNTS)
        draws = segment_draws(7, 3, cfg, allocs, 1000)
        total = monte_carlo._stream(7, 1, 3).standard_gamma(100, 1000)
        for m in self.COUNTS:
            assert np.array_equal(draws[m][0], total) and draws[m][1] is None, m


class TestSweepPass:
    DETECTORS = (LikelihoodRatioTest(), Radiometer(threshold=1.02))

    @pytest.mark.parametrize("n_p", [20, 50])
    def test_unequal_power_rows_match_solo_passes(self, n_p):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=40_000, seed=71)
        allocs = eta_sweep(n_p)
        assert sum(alloc.is_equal_power() for alloc in allocs) == 1
        wardens = simulate_warden(cfg, allocs, mc, self.DETECTORS)
        assert len(wardens) == len(allocs)
        for alloc, warden in zip(allocs, wardens):
            if not alloc.is_equal_power():
                assert (warden,) == simulate_warden(cfg, (alloc,), mc, self.DETECTORS)

    def test_equal_power_sweep_matches_solo_passes(self):
        cfg = make_cfg(n=100)
        mc = McConfig(trials=40_000, seed=73)
        allocs = tuple(
            PowerAllocation.equal_power(n=100, rho=rho, n_p=20) for rho in (0.01, 0.05, 0.2)
        )
        wardens = simulate_warden(cfg, allocs, mc, self.DETECTORS)
        assert wardens == tuple(
            simulate_warden(cfg, (alloc,), mc, self.DETECTORS)[0] for alloc in allocs
        )

    def test_one_pilot_count_draws_pilot_then_data(self):
        # a one-count pass reads Gamma(n_p) and then Gamma(n_d) from each chunk's stream
        cfg = make_cfg(n=100)
        mc = McConfig(trials=40_000, seed=71)
        allocs = eta_sweep(20)
        wardens = simulate_warden(cfg, allocs, mc, self.DETECTORS)
        errors = {(index, k): [0, 0] for index in range(len(allocs)) for k in range(2)}
        for chunk, size in monte_carlo._chunks(mc.trials):
            rng = monte_carlo._stream(mc.seed, 1, chunk)
            draws = (rng.standard_gamma(20, size), rng.standard_gamma(80, size))
            for (index, k), counts in errors.items():
                detector, alloc = self.DETECTORS[k], allocs[index]
                counts[0] += int(np.count_nonzero(decides_h1(detector, cfg, alloc, 0, draws)))
                counts[1] += int(np.count_nonzero(~decides_h1(detector, cfg, alloc, 1, draws)))
        for (index, k), (false_alarms, missed) in errors.items():
            rates = wardens[index].rates[k]
            assert (rates.alpha.value, rates.beta.value) == (
                false_alarms / mc.trials, missed / mc.trials
            ), (index, k)

    def test_allocations_of_any_pilot_counts_share_one_pass(self):
        # each row reads its own count's segments of the shared slots, in any order given
        cfg = make_cfg(n=100)
        mc = McConfig(trials=40_000, seed=79)
        allocs = eta_sweep(50)[::6] + eta_sweep(20)[::6] + eta_sweep(35)[::6]
        wardens = simulate_warden(cfg, allocs, mc, self.DETECTORS)
        errors = [[[0, 0] for _ in self.DETECTORS] for _ in allocs]
        for chunk, size in monte_carlo._chunks(mc.trials):
            draws = segment_draws(mc.seed, chunk, cfg, allocs, size)
            for alloc, alloc_errors in zip(allocs, errors):
                for detector, counts in zip(self.DETECTORS, alloc_errors):
                    pair = draws[alloc.n_p]
                    counts[0] += int(np.count_nonzero(decides_h1(detector, cfg, alloc, 0, pair)))
                    counts[1] += int(np.count_nonzero(~decides_h1(detector, cfg, alloc, 1, pair)))
        for warden, alloc_errors in zip(wardens, errors):
            assert [(r.alpha.value, r.beta.value) for r in warden.rates] == [
                (false_alarms / mc.trials, missed / mc.trials)
                for false_alarms, missed in alloc_errors
            ]
        reordered = simulate_warden(cfg, allocs[::-1], mc, self.DETECTORS)
        assert reordered == wardens[::-1]

    def test_allocations_must_share_n(self):
        allocs = (
            PowerAllocation.equal_power(n=100, rho=0.05, n_p=20),
            PowerAllocation.equal_power(n=50, rho=0.05, n_p=20),
        )
        with pytest.raises(ValueError, match="allocation is for n=50 but"):
            simulate_warden(make_cfg(n=100), allocs, McConfig(trials=1000, seed=1), self.DETECTORS)

    def test_no_allocation_is_refused(self):
        with pytest.raises(ValueError, match="at least one allocation"):
            simulate_warden(make_cfg(n=100), (), McConfig(trials=1000, seed=1), self.DETECTORS)


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
            hat_re, hat_im, err_re, err_im = bob_rows(cfg, alloc, mc.seed, chunk, size)
            hh = hat_re * hat_re + hat_im * hat_im
            ee = err_re * err_re + err_im * err_im
            cross_re = hat_re * err_re + hat_im * err_im
            # hat_im err_re - hat_re err_im = hat_im (err_re + hat_re), and
            # h_hat + (h - h_hat) = h = sqrt(lambda) r is real in h's frame
            r = np.sqrt(bob_normals(mc.seed, chunk, size)[0])
            cross_im = math.sqrt(cfg.lambda_ab) * r * hat_im
            terms = (hh, hh * hh, ee, ee * ee, hh * ee, cross_re, cross_re * cross_re,
                     cross_im, cross_im * cross_im)
            for k, term in enumerate(terms):
                sums[k] += float(np.sum(term))
        t = mc.trials

        def moment(total, total_sq):
            mean = total / t
            return mean, math.sqrt(max(total_sq / t - mean * mean, 0.0) / t)

        hh, ee = moment(*sums[0:2]), moment(*sums[2:4])
        norm = math.sqrt(hh[0]) * math.sqrt(ee[0])
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
                hat_re, hat_im, err_re, err_im = bob_rows(cfg, alloc, mc.seed, chunk, size)
                s = alloc.rho_d * (hat_re**2 + hat_im**2)
                i = alloc.rho_d * (err_re**2 + err_im**2) + sigma_b2
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

    def test_matches_the_textbook_complex_form(self):
        # h = sqrt(lambda E), w and h_hat = g (sqrt(rho_p) h + w) rebuilt as
        # complex arrays from the same draws; that form loses digits of h - h_hat
        # as the pilot SNR grows, so the check stops at a pilot SNR of 1e6
        mc = McConfig(trials=20_000, seed=67)
        for lam, sigma_b2, rho, n_p in itertools.product(
            (1e-3, 1.0, 1e3), (1e-3, 1.0, 1e3), (1e-3, 0.1, 10.0), (1, 10)
        ):
            cfg = SystemConfig(n=100, lambda_ab=lam, sigma_b2=sigma_b2, sigma_w2=1.0, epsilon=0.1)
            alloc = PowerAllocation.equal_power(n=100, rho=rho, n_p=n_p)
            if lam * n_p * alloc.rho_p / sigma_b2 > 1e6:
                continue
            expected = textbook_bob(cfg, alloc, mc)
            result = simulate_bob(cfg, alloc, mc)
            case = (lam, sigma_b2, rho, n_p)
            for got, want in zip(result, expected):
                assert got.std_err == pytest.approx(want.std_err, rel=1e-12, abs=0), case
            for got, want in zip(result[:3], expected[:3]):
                assert got.value == pytest.approx(want.value, rel=1e-12, abs=0), case
            # a correlation near 0 is compared on its own scale, 1
            for got, want in zip(result[3:], expected[3:]):
                assert got.value == pytest.approx(want.value, rel=0, abs=1e-12), case

    def test_correlations_do_not_depend_on_a_huge_pilot_snr(self):
        # h_hat grows as sqrt(lambda) while the error stays O(1), so once the
        # pilot SNR is this high the correlations no longer move with lambda
        alloc = PowerAllocation.equal_power(n=100, rho=0.3, n_p=20)
        mc = McConfig(trials=20_000, seed=71)
        results = [
            simulate_bob(SystemConfig(n=100, lambda_ab=lam, sigma_b2=1.0, sigma_w2=1.0,
                                      epsilon=0.1), alloc, mc)
            for lam in (1e30, 1e60, 1e150)
        ]
        for result in results:
            assert abs(result.orth_corr_re.value) <= 4.0 * result.orth_corr_re.std_err
            assert abs(result.orth_corr_im.value) <= 4.0 * result.orth_corr_im.std_err
        for result in results[1:]:
            for got, want in ((result.orth_corr_re, results[0].orth_corr_re),
                              (result.orth_corr_im, results[0].orth_corr_im)):
                assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
                assert got.std_err == pytest.approx(want.std_err, rel=1e-12, abs=0)

    def test_one_draw_per_kind_fills_the_three_rows(self):
        # one standard_exponential call, then one (2, size) standard_normal
        # call, give the draws of separate calls of size, in that order
        for size in (1000, CHUNK_TRIALS):
            normals = np.empty(3 * CHUNK_TRIALS)
            rows = monte_carlo._draw_bob_trial(monte_carlo._stream(5, 2, 0), normals, size)
            assert rows.shape == (3, size)
            assert np.array_equal(rows, bob_normals(5, 0, size))

    def test_moments_do_not_change_when_h_and_w_turn_by_one_phase(self):
        # the pass draws h real: every moment it sums is the same function
        # of (h, w) and of (h, w) turned by e^{-i arg h}, whose h is |h|
        rng = np.random.default_rng(3)
        a, b, c, d = rng.standard_normal((4, 2000))

        def moments(h, w, gain, kappa, rho_p):
            h_hat = gain * (math.sqrt(rho_p) * h + w)
            err = kappa * h - gain * w  # h - h_hat without its cancellation
            hh, ee = np.abs(h_hat) ** 2, np.abs(err) ** 2
            return (hh, ee, hh * hh, ee * ee, hh * ee), h_hat * np.conj(err)

        for lam, sb2, rho, n_p in itertools.product(
            (1e-3, 1.0, 1e3), (1e-3, 1.0, 1e3), (1e-3, 0.1, 10.0), (1, 10)
        ):
            alloc = PowerAllocation.equal_power(n=100, rho=rho, n_p=n_p)
            pilot_energy = lam * n_p * alloc.rho_p
            gain = math.sqrt(alloc.rho_p) * lam * n_p / (pilot_energy + sb2)
            kappa = sb2 / (pilot_energy + sb2)
            s_h, s_w = math.sqrt(lam / 2.0), math.sqrt(sb2 / (2.0 * n_p))
            h, w = s_h * (a + 1j * b), s_w * (c + 1j * d)
            turn = np.exp(-1j * np.angle(h))
            before, x = moments(h, w, gain, kappa, alloc.rho_p)
            after, turned_x = moments(h * turn, w * turn, gain, kappa, alloc.rho_p)
            case = (lam, sb2, rho, n_p)
            for got, want in zip(after, before):
                assert np.all(np.abs(got - want) <= 1e-13 * want), case
            # Re x and Im x are compared on their own scale |x|, their squares on |x|^2
            for got, want in ((turned_x.real, x.real), (turned_x.imag, x.imag)):
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(x)), case
                assert np.all(np.abs(got * got - want * want) <= 1e-13 * np.abs(x) ** 2), case

    def test_estimates_are_calibrated_over_seeds(self):
        # z-scores of the SINR (against the closed form) and of both
        # correlations (against 0) over 200 seeds: mean 0 and sd 1
        alloc = PowerAllocation.equal_power(n=100, rho=0.3, n_p=20)
        for lam, sb2 in ((1.0, 1.0), (1e-3, 10.0), (1e150, 1.0)):
            cfg = SystemConfig(n=100, lambda_ab=lam, sigma_b2=sb2, sigma_w2=1.0, epsilon=0.1)
            analytic = sinr(cfg, alloc)
            z = []
            for seed in range(1, 201):
                result = simulate_bob(cfg, alloc, McConfig(trials=20_000, seed=seed))
                z.append([(result.sinr.value - analytic) / result.sinr.std_err,
                          result.orth_corr_re.value / result.orth_corr_re.std_err,
                          result.orth_corr_im.value / result.orth_corr_im.std_err])
            z = np.array(z)
            assert np.all(np.abs(z.mean(axis=0)) <= 0.3), (lam, sb2, z.mean(axis=0))
            assert np.all((0.8 <= z.std(axis=0)) & (z.std(axis=0) <= 1.2)), (lam, sb2, z.std(axis=0))

    def test_correlations_do_not_depend_on_a_common_scale(self):
        # lambda_ab = sigma_b2 = c scales every row by sqrt(c), so the
        # correlations, normed by sqrt(var_h_hat) sqrt(var_h_tilde), stay put
        # even where the variances' product would overflow or underflow
        alloc = PowerAllocation.equal_power(n=100, rho=0.3, n_p=20)
        mc = McConfig(trials=20_000, seed=73)

        def correlations(scale):
            cfg = SystemConfig(n=100, lambda_ab=scale, sigma_b2=scale, sigma_w2=1.0, epsilon=0.1)
            with np.errstate(over="ignore"):
                result = simulate_bob(cfg, alloc, mc)
            return result.orth_corr_re.value, result.orth_corr_im.value

        unit = correlations(1.0)
        for exponent in range(-200, 201, 25):
            assert correlations(10.0**exponent) == pytest.approx(unit, rel=1e-12, abs=0), exponent

    def test_allocation_for_another_n_is_refused(self):
        cfg = make_cfg(n=100)
        alloc = PowerAllocation.equal_power(n=10, rho=0.05, n_p=2)
        mc = McConfig(trials=1000, seed=1)
        with pytest.raises(ValueError, match="allocation is for n=10 but"):
            simulate_bob(cfg, alloc, mc)
        with pytest.raises(ValueError, match="allocation is for n=10 but"):
            simulate_warden(cfg, (alloc,), mc, (LikelihoodRatioTest(),))
