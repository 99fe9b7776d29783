"""Tests for the covert design optimizer."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from covertpilot import optimizer
from covertpilot.detection import covert_margin, min_detection_error
from covertpilot.link_model import SystemConfig
from covertpilot.optimizer import (
    MARGIN_REL_TOL,
    SolverError,
    design,
    np_continuous,
    np_sensitivity,
    np_star,
    solve_rho_star,
)

from oracles import effective_sinr_closed_form


def make_cfg(n=100, lam=1.0, sb2=1.0, sw2=1.0, eps=0.1):
    return SystemConfig(n=n, lambda_ab=lam, sigma_b2=sb2, sigma_w2=sw2, epsilon=eps)


class TestRhoSolver:
    @pytest.mark.parametrize("sw2,eps", [(1e-306, 1e-9), (1e-300, 1e-9), (1e-307, 1e-3)])
    def test_power_off_the_normal_range_is_refused(self, sw2, eps):
        # rho* = s* sigma_w2 would round on the subnormal grid
        with pytest.raises(ValueError, match="sigma_w2 = .* for epsilon = "):
            solve_rho_star(make_cfg(sw2=sw2, eps=eps))

    def test_round_trip_against_detection_error(self):
        cfg = make_cfg(n=100, eps=0.1)
        rho = solve_rho_star(cfg).rho
        assert abs(min_detection_error(cfg, rho).xi_star - 0.9) < 1e-9

    def test_monotone_in_epsilon(self):
        loose = solve_rho_star(make_cfg(eps=0.2)).rho
        tight = solve_rho_star(make_cfg(eps=0.1)).rho
        assert loose > tight

    def test_monotone_on_epsilon_grid(self):
        for n in (50, 100, 500):
            values = [
                solve_rho_star(make_cfg(n=n, eps=e)).rho for e in np.arange(0.01, 0.31, 0.01)
            ]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_bracket_failure_raises(self, monkeypatch):
        # a margin that never crosses epsilon leaves no root in the bracket
        for flat in ((1.0, 0.0), (0.0, 0.0)):
            monkeypatch.setattr(optimizer, "covert_margin", lambda n, s, flat=flat: flat)
            with pytest.raises(SolverError, match="did not converge"):
                solve_rho_star(make_cfg())

    def test_stops_on_the_covert_side(self, monkeypatch):
        # a doubled slope halves each Newton step, so the iterates creep down
        # to epsilon from above and pass through the band's infeasible half
        monkeypatch.setattr(optimizer, "covert_margin", lambda n, s: (s, 2.0))
        solve = solve_rho_star(make_cfg(n=5, eps=0.01))
        assert 0.01 * (1.0 - MARGIN_REL_TOL) <= solve.margin <= 0.01
        assert solve.iterations > 5

    def test_feasible_and_tight_over_the_scale_range(self):
        rng = np.random.default_rng(25)
        iterations = []
        for _ in range(400):
            n = int(10 ** rng.uniform(np.log10(2), 8))
            eps = float(10 ** rng.uniform(-9, np.log10(0.3)))
            solve = solve_rho_star(make_cfg(n=n, eps=eps))
            assert covert_margin(n, solve.rho)[0] == solve.margin
            assert eps * (1.0 - MARGIN_REL_TOL) <= solve.margin <= eps
            assert 1 <= solve.iterations <= 5
            iterations.append(solve.iterations)
        # the square-root-law start leaves about two Newton evaluations
        assert np.mean(iterations) <= 2.5

    def test_snr_is_invariant_to_the_noise_scale(self):
        base = solve_rho_star(make_cfg(n=1000, eps=1e-3)).rho
        for exponent in range(-30, 31, 5):
            sw2 = 10.0 ** exponent
            rho = solve_rho_star(make_cfg(n=1000, sw2=sw2, eps=1e-3)).rho
            assert rho / sw2 == pytest.approx(base, rel=1e-15, abs=0)

    def test_loose_covertness_near_one(self):
        for n in (2, 3, 10, 100):
            for eps in (0.5, 0.9, 0.99, 0.999999):
                margin = solve_rho_star(make_cfg(n=n, eps=eps)).margin
                assert eps * (1.0 - MARGIN_REL_TOL) <= margin <= eps


class TestContinuousPilotCount:
    def test_pinned_value(self):
        cfg = make_cfg(n=100)
        assert np_continuous(cfg, 1.0) == pytest.approx(
            math.sqrt(204.0) - 2.0, rel=1e-12
        )

    def test_no_cancellation_at_very_low_snr(self):
        # sigma_b2 >> lambda rho: the textbook root cancels to a few digits
        for n, lam, sb2, rho in ((1000, 1.0, 1.0, 1e-12), (10**8, 1e-3, 1e6, 1e-15)):
            cfg = make_cfg(n=n, lam=lam, sb2=sb2)
            with localcontext() as ctx:
                ctx.prec = 60
                lam_rho = Decimal(lam) * Decimal(rho)
                kappa = lam_rho + Decimal(sb2)
                exact = (-kappa + (kappa * (kappa + n * lam_rho)).sqrt()) / lam_rho
            assert np_continuous(cfg, rho) == pytest.approx(float(exact), rel=1e-14, abs=0)

    def test_zeroes_the_stationarity_quadratic(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            cfg = make_cfg(
                n=int(rng.integers(2, 1000)),
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            rho = float(rng.uniform(0.001, 4.0))
            x = np_continuous(cfg, rho)
            kappa = cfg.lambda_ab * rho + cfg.sigma_b2
            quad = -cfg.lambda_ab * rho * x * x - 2.0 * kappa * x + cfg.n * kappa
            assert abs(quad) < 1e-9 * cfg.n * kappa

    def test_is_grid_argmax_of_continuous_effective_sinr(self):
        cfg = make_cfg(n=100)
        x = np_continuous(cfg, 1.0)
        grid = np.linspace(1e-3, 100 - 1e-3, 100_000)
        vals = effective_sinr_closed_form(cfg, 1.0, grid)
        assert abs(grid[int(np.argmax(vals))] - x) < 2e-3

    def test_in_open_interval_and_sublinear(self):
        ratios = []
        for n in (100, 10_000, 1_000_000):
            cfg = make_cfg(n=n)
            x = np_continuous(cfg, 1.0)
            assert 0.0 < x < n
            ratios.append(x / n)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-2


class TestIntegerPilotCount:
    def test_pinned_case_compares_neighbors(self):
        cfg = make_cfg(n=100)
        best, np_ceil, np_floor = np_star(cfg, 1.0)
        assert (np_floor, np_ceil) == (12, 13)
        g = lambda k: effective_sinr_closed_form(cfg, 1.0, k)
        assert best == (13 if g(13) >= g(12) else 12)

    def test_exhaustive_certificate(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(2, 600))
            cfg = make_cfg(
                n=n,
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            rho = float(rng.uniform(0.001, 4.0))
            best, np_ceil, np_floor = np_star(cfg, rho)
            assert np_floor <= best <= np_ceil
            candidates = np.arange(1, n)
            vals = effective_sinr_closed_form(cfg, rho, candidates)
            assert best == int(candidates[int(np.argmax(vals))])

    def test_clamped_to_one_for_two_symbol_slot(self):
        cfg = make_cfg(n=2)
        best, np_ceil, np_floor = np_star(cfg, 3.0)
        assert best == np_ceil == np_floor == 1

    def test_non_finite_sinr_is_refused(self):
        # rho_d lambda^2 n_p rho_p overflows here, so both candidates read inf
        with pytest.raises(ValueError, match="lambda_ab = 1e\\+156 and sigma_b2 = 1.0"):
            np_star(make_cfg(lam=1e156), 0.025)


class TestPilotSensitivity:
    def test_always_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            cfg = make_cfg(
                n=int(rng.integers(2, 1000)),
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            assert np_sensitivity(cfg, float(rng.uniform(1e-3, 5.0))) < 0.0

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(24)
        for _ in range(1000):
            cfg = make_cfg(
                n=int(rng.integers(2, 1000)),
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            rho = float(rng.uniform(1e-3, 5.0))
            h = 1e-6 * rho
            fd = (np_continuous(cfg, rho + h) - np_continuous(cfg, rho - h)) / (2 * h)
            assert np_sensitivity(cfg, rho) == pytest.approx(fd, rel=1e-6)

    def test_pinned_instance(self):
        cfg = make_cfg(n=100)
        h = 1e-6
        fd = (np_continuous(cfg, 1.0 + h) - np_continuous(cfg, 1.0 - h)) / (2 * h)
        assert np_sensitivity(cfg, 1.0) == pytest.approx(fd, rel=1e-6)

    def test_no_cancellation_at_low_snr(self):
        # at n = 1000, rho = 1e-9 the bracket 2 kappa + n rho lambda -
        # 2 sqrt(kappa (kappa + n rho lambda)) cancels to four digits
        cases = (
            (1000, 1.0, 1.0, 1e-9),
            (1000, 1.0, 1.0, 1e-12),
            (10**8, 1e-3, 1e6, 1e-15),
            (100, 1.0, 1.0, 1.0),
            (2, 4.0, 0.1, 5.0),
        )
        for n, lam, sb2, rho in cases:
            cfg = make_cfg(n=n, lam=lam, sb2=sb2)
            with localcontext() as ctx:
                ctx.prec = 60
                lam, sb2, rho = Decimal(lam), Decimal(sb2), Decimal(rho)
                kappa = lam * rho + sb2
                root = (kappa * (kappa + n * rho * lam)).sqrt()
                exact = -sb2 * (2 * kappa + n * rho * lam - 2 * root) / (
                    2 * lam * rho * rho * root
                )
            assert np_sensitivity(cfg, float(rho)) == pytest.approx(
                float(exact), rel=1e-12, abs=0
            )

    def test_continuous_count_decreasing_in_power(self):
        cfg = make_cfg(n=200)
        rhos = np.linspace(0.01, 3.0, 200)
        counts = [np_continuous(cfg, float(r)) for r in rhos]
        assert all(b < a for a, b in zip(counts, counts[1:]))


class TestDesign:
    def test_achieves_covertness_with_equality(self):
        for eps in (0.01, 0.05, 0.1, 0.2):
            result = design(make_cfg(n=100, eps=eps))
            assert abs(result.xi_star_achieved - (1.0 - eps)) < 1e-9
            assert result.np_star in (result.np_ceil, result.np_floor)
            assert result.np_floor <= result.np_continuous <= result.np_ceil

    def test_reports_the_solve(self):
        cfg = make_cfg(n=100, eps=0.1)
        result = design(cfg)
        solve = solve_rho_star(cfg)
        assert result.rho_star == solve.rho
        assert result.xi_star_achieved == 1.0 - solve.margin
        assert result.solver_iterations == solve.iterations
        assert result.solver_residual == solve.margin / 0.1 - 1.0
        assert -MARGIN_REL_TOL <= result.solver_residual <= 0.0

    def test_tighter_covertness_needs_more_pilots(self):
        tight = design(make_cfg(eps=0.05))
        loose = design(make_cfg(eps=0.2))
        assert tight.np_star >= loose.np_star
        assert tight.gamma_eff_star < loose.gamma_eff_star

    def test_longer_slots_use_more_pilots_at_lower_share(self):
        small = design(make_cfg(n=100))
        large = design(make_cfg(n=400))
        assert large.np_star > small.np_star
        assert large.np_star / 400 < small.np_star / 100


def normal_quantile_z(epsilon):
    """z = Phi^-1((1 + epsilon)/2) = sqrt(2) erfinv(epsilon); (1 + epsilon)/2 rounds at small epsilon."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.sqrt(2) * mpmath.erfinv(epsilon))


SLOT_LENGTHS = [10**k for k in range(2, 9)]


class TestAsymptoticLaws:
    @pytest.mark.parametrize("eps", [0.3, 0.1, 1e-3, 1e-6, 1e-9])
    def test_square_root_law(self, eps):
        # rho* sqrt(n) / (2 z sigma_w2) = 1 + z/sqrt(n) + 1/(12 n) + O(z^2/n);
        # the O(z^2/n) term measured 0.69 z^2/n, and the solve's tolerance
        # leaves ~1e-12 relative in rho*
        z = normal_quantile_z(eps)
        for n in SLOT_LENGTHS:
            for sw2 in (1e-3, 1.0):
                rho = solve_rho_star(make_cfg(n=n, sw2=sw2, eps=eps)).rho
                excess = rho * math.sqrt(n) / (2.0 * z * sw2) - 1.0
                law = z / math.sqrt(n) + 1.0 / (12.0 * n)
                assert abs(excess - law) <= (z * z + 0.05 / math.sqrt(n)) / n + 2e-12, (eps, n)

    def test_pilot_share_is_one_half_at_low_snr(self):
        # np_continuous / n = 1 / (1 + sqrt(1 + x)) = 1/2 - x/8 + O(x^2) at
        # x = n lambda rho / (lambda rho + sigma_b2), which shrinks as epsilon does
        for n in SLOT_LENGTHS:
            cfg = make_cfg(n=n, eps=1e-9)
            rho = solve_rho_star(cfg).rho
            share = np_star(cfg, rho)[0] / n
            x = n * rho / (rho + 1.0)
            assert share <= 0.5
            assert abs(share - (0.5 - x / 8.0)) <= x * x / 16.0 + 1.0 / n, n
            if n <= 10**6:
                assert share == 0.5

    def test_pilot_count_approaches_sqrt_n_at_high_snr(self):
        # np_continuous = n / (1 + sqrt(1 + n)) as sigma_b2 -> 0, which is
        # sqrt(n) (1 - 1/sqrt(n) + ...): below sqrt(n), and closer in ratio as n grows
        ratios = []
        for n in SLOT_LENGTHS:
            result = design(make_cfg(n=n, sb2=1e-12))
            ratio = result.np_continuous / math.sqrt(n)
            assert 0.9 / math.sqrt(n) <= 1.0 - ratio <= 1.0 / math.sqrt(n), n
            assert abs(result.np_star - result.np_continuous) < 1.0
            ratios.append(ratio)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
