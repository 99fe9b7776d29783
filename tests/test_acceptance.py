"""Acceptance suite.

Each test exercises one exit criterion at its stated scale and tolerance
and prints a PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they complete.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from covertpilot.cli import EXIT_OK, main
from covertpilot.detection import (
    covertness_lower_bound,
    kl_divergence,
    kl_divergence_deta,
    min_detection_error,
)
from covertpilot.link_model import PowerAllocation, SystemConfig, sinr
from covertpilot.monte_carlo import (
    LikelihoodRatioTest,
    McConfig,
    Radiometer,
    simulate_bob,
    simulate_warden,
)
from covertpilot.optimizer import np_continuous, np_sensitivity, np_star, solve_rho_star

from oracles import effective_sinr_closed_form


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def make_cfg(n=100, lam=1.0, sb2=1.0, sw2=1.0, eps=0.1):
    return SystemConfig(n=n, lambda_ab=lam, sigma_b2=sb2, sigma_w2=sw2, epsilon=eps)


def test_criterion_1_equal_power_maximizes_warden_error():
    with criterion(1, "equal power split maximizes the warden's error (fig1 trends)"):
        started = time.monotonic()
        cfg = make_cfg(n=100)
        rho = 0.05
        etas = [round(0.05 * k, 2) for k in range(1, 20)]
        sweeps = {
            n_p: tuple(PowerAllocation.split(n=cfg.n, rho=rho, eta=eta, n_p=n_p) for eta in etas)
            for n_p in (20, 50)
        }
        # one pass for both pilot counts, as fig1 makes
        mc = McConfig(trials=100_000, seed=1000)
        wardens = iter(
            simulate_warden(cfg, sum(sweeps.values(), ()), mc, (LikelihoodRatioTest(),))
        )
        for n_p, allocs in sweeps.items():
            eta_equal = (cfg.n - n_p) / cfg.n
            xi_mc = [next(wardens).rates[0].xi.value for _ in allocs]
            bound = [covertness_lower_bound(kl_divergence(cfg, alloc)) for alloc in allocs]
            mc_peak = etas[int(np.argmax(xi_mc))]
            bound_peak = etas[int(np.argmax(bound))]
            assert bound_peak == pytest.approx(eta_equal, abs=1e-12)
            assert abs(mc_peak - eta_equal) <= 0.05 + 1e-12
        elapsed = time.monotonic() - started
        assert elapsed <= 120.0, f"fig1 sweep took {elapsed:.1f}s, budget is 120s"


def _richardson(fn, x: float, h: float) -> float:
    wide = (fn(x + h) - fn(x - h)) / (2.0 * h)
    tight = (fn(x + h / 2.0) - fn(x - h / 2.0)) / h
    return (4.0 * tight - wide) / 3.0


def test_criterion_2_closed_form_derivatives_match_finite_differences():
    with criterion(2, "closed-form derivatives match central finite differences"):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(4, 400))
            sw2 = float(rng.uniform(0.2, 3.0))
            cfg = make_cfg(n=n, sw2=sw2)
            rho = float(rng.uniform(0.001, 2.0))
            n_p = int(rng.integers(1, n))
            eta = float(rng.uniform(0.05, 0.95))

            def d01(e):
                return kl_divergence(cfg, PowerAllocation.split(n=n, rho=rho, eta=e, n_p=n_p))

            fd = _richardson(d01, eta, 1e-4 * min(eta, 1.0 - eta))
            if abs(fd) < 1e-9:
                continue  # too close to the stationary point for a relative check
            closed = kl_divergence_deta(cfg, rho, eta, n_p)
            assert abs(closed - fd) / abs(fd) < 1e-6
            checked += 1

        rng = np.random.default_rng(3)
        for _ in range(1000):
            cfg = make_cfg(
                n=int(rng.integers(2, 1000)),
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            rho = float(rng.uniform(1e-3, 5.0))
            fd = _richardson(lambda r: np_continuous(cfg, r), rho, 1e-4 * rho)
            assert abs(np_sensitivity(cfg, rho) - fd) / abs(fd) < 1e-6


def test_criterion_3_closed_form_error_probability_matches_simulation():
    with criterion(3, "closed-form warden error matches 1e6-trial simulation"):
        rng = np.random.default_rng(4)
        for i in range(10):
            n = int(rng.integers(10, 501))
            rho = float(rng.uniform(0.01, 1.0))  # (0, sigma_w2] with sigma_w2 = 1
            cfg = make_cfg(n=n)
            n_p = int(rng.integers(1, n))
            alloc = PowerAllocation.equal_power(n=n, rho=rho, n_p=n_p)
            analytic = min_detection_error(cfg, rho)
            mc = McConfig(trials=1_000_000, seed=3000 + i)
            radiometer = Radiometer(threshold=analytic.tau_star)
            (warden,) = simulate_warden(cfg, (alloc,), mc, (radiometer, LikelihoodRatioTest()))
            rates = warden.rates[0]
            # rule-of-three floor: a zero-error count has zero binomial
            # standard error but is still consistent with xi_star up to ~3/T
            band = 3.0 * max(rates.xi.std_err, 1.0 / mc.trials)
            assert abs(rates.xi.value - analytic.xi_star) <= band
            assert warden.disagreements == 0


def test_criterion_4_power_solver_round_trip():
    with criterion(4, "covert power solver round trip and monotonicity"):
        for n in (50, 100, 500):
            previous = 0.0
            for eps in (0.01, 0.05, 0.1, 0.2):
                cfg = make_cfg(n=n, eps=eps)
                rho = solve_rho_star(cfg).rho
                assert abs(min_detection_error(cfg, rho).xi_star - (1.0 - eps)) < 1e-9
                assert rho > previous
                previous = rho


def test_criterion_5_integer_pilot_count_is_exhaustive_argmax():
    with criterion(5, "integer pilot optimum equals brute-force argmax"):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 600))
            cfg = make_cfg(
                n=n,
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            rho = float(rng.uniform(0.001, 4.0))
            best, _, _ = np_star(cfg, rho)
            candidates = np.arange(1, n)
            brute = int(candidates[int(np.argmax(effective_sinr_closed_form(cfg, rho, candidates)))])
            assert best == brute


def test_criterion_6_pilot_count_trends():
    with criterion(6, "pilot count trends in covertness and slot length"):
        epsilons = [round(0.02 * k, 2) for k in range(1, 16)]
        slots = (100, 200, 400)
        table = {}
        for n in slots:
            for eps in epsilons:
                cfg = make_cfg(n=n, eps=eps)
                table[(n, eps)] = np_star(cfg, solve_rho_star(cfg).rho)[0]
        for n in slots:
            counts = [table[(n, eps)] for eps in epsilons]
            assert all(b <= a for a, b in zip(counts, counts[1:]))
        for eps in epsilons:
            counts = [table[(n, eps)] for n in slots]
            shares = [table[(n, eps)] / n for n in slots]
            assert all(b > a for a, b in zip(counts, counts[1:]))
            assert all(b < a for a, b in zip(shares, shares[1:]))


def test_criterion_7_effective_sinr_sweep_reproduction(tmp_path):
    with criterion(7, "effective SINR sweep is unimodal with matching analytic optimum"):
        out = tmp_path / "fig2.csv"
        assert main(["fig2", "--out", str(out)]) == EXIT_OK
        header, *rows = out.read_text().splitlines()
        names = header.split(",")
        parsed = [dict(zip(names, row.split(","))) for row in rows]
        peaks = {}
        for eps in (0.05, 0.1, 0.2):
            group = [r for r in parsed if float(r["epsilon"]) == eps]
            gammas = np.array([float(r["gamma_eff"]) for r in group])
            markers = [int(r["analytic_optimum"]) for r in group]
            signs = np.sign(np.diff(gammas))
            changes = np.diff(signs)
            assert np.count_nonzero(changes < 0) == 1
            assert np.count_nonzero(changes > 0) == 0
            assert markers[int(np.argmax(gammas))] == 1
            peaks[eps] = float(np.max(gammas))
        assert peaks[0.05] < peaks[0.1] < peaks[0.2]


def test_criterion_8_receiver_side_simulation_matches_analytics():
    with criterion(8, "simulated receiver SINR and MMSE orthogonality match analytics"):
        rng = np.random.default_rng(8)
        for i in range(5):
            n = int(rng.integers(10, 200))
            cfg = make_cfg(
                n=n,
                lam=float(rng.uniform(0.2, 3.0)),
                sb2=float(rng.uniform(0.2, 3.0)),
            )
            alloc = PowerAllocation.split(
                n=n,
                rho=float(rng.uniform(0.05, 2.0)),
                eta=float(rng.uniform(0.2, 0.9)),
                n_p=int(rng.integers(1, n)),
            )
            mc = McConfig(trials=1_000_000, seed=5000 + i)
            bob = simulate_bob(cfg, alloc, mc)
            assert abs(bob.sinr.value - sinr(cfg, alloc)) <= 0.02 * sinr(cfg, alloc)
            assert abs(bob.orth_corr_re.value) <= 4.0 * bob.orth_corr_re.std_err
            assert abs(bob.orth_corr_im.value) <= 4.0 * bob.orth_corr_im.std_err


def test_criterion_9_verify_output_is_deterministic(tmp_path):
    with criterion(9, "verify CSV is byte-identical across runs with one seed"):
        out_a = tmp_path / "verify_a.csv"
        out_b = tmp_path / "verify_b.csv"
        assert main(["verify", "--seed", "42", "--out", str(out_a)]) == EXIT_OK
        assert main(["verify", "--seed", "42", "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
