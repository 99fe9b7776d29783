"""Tests for the Alice-Bob link analytics."""

import math
import numbers
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from covertpilot.link_model import (
    PowerAllocation,
    SystemConfig,
    _is_integer,
    effective_sinr,
    sinr,
)

from oracles import effective_sinr_closed_form


def make_cfg(n=100, lam=1.0, sb2=1.0, sw2=1.0, eps=0.1):
    return SystemConfig(n=n, lambda_ab=lam, sigma_b2=sb2, sigma_w2=sw2, epsilon=eps)


def sinr_eta_form(cfg, rho, eta, n_p):
    """Oracle: the SINR written in the (rho, eta, n_p) parameterization.

    gamma = lambda^2 rho n eta (1 - eta)
            / ((n - n_p) sigma_b2 [lambda (1 - eta) + sigma_b2 / (rho n)
                                   + lambda eta / (n - n_p)])
    """
    lam = cfg.lambda_ab
    sb2 = cfg.sigma_b2
    n = cfg.n
    n_d = n - n_p
    num = lam * lam * rho * n * eta * (1.0 - eta)
    den = n_d * sb2 * (lam * (1.0 - eta) + sb2 / (rho * n) + lam * eta / n_d)
    return num / den


class _IntSubclass(int):
    pass


NUMPY_INTEGER_TYPES = sorted(
    {t for t in np.sctypeDict.values() if issubclass(t, np.integer)}, key=lambda t: t.__name__
)


@pytest.mark.parametrize("value", [
    0, -1, 2**70, _IntSubclass(3), True,
    *(t(1) for t in NUMPY_INTEGER_TYPES), np.bool_(True),
    1.0, np.float64(2), np.array(3),
    Fraction(4, 2), Decimal(4),
], ids=repr)
def test_is_integer_keeps_the_integral_rule(value):
    # the old rule, which loaded numbers for every check
    expected = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    assert _is_integer(value) is expected


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(n=1), "n"),
            (dict(lam=0.0), "lambda_ab"),
            (dict(sb2=-1.0), "sigma_b2"),
            (dict(sw2=0.0), "sigma_w2"),
            (dict(eps=0.0), "epsilon"),
            (dict(eps=1.0), "epsilon"),
        ],
    )
    def test_invalid_config_names_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            make_cfg(**kwargs)

    @pytest.mark.parametrize(
        "arg,field",
        [("lam", "lambda_ab"), ("sb2", "sigma_b2"), ("sw2", "sigma_w2"), ("eps", "epsilon")],
    )
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_value_names_field(self, arg, field, value):
        with pytest.raises(ValueError, match=field):
            make_cfg(**{arg: value})

    @pytest.mark.parametrize(
        "arg,field", [("lam", "lambda_ab"), ("sb2", "sigma_b2"), ("sw2", "sigma_w2")]
    )
    def test_subnormal_scale_names_field(self, arg, field):
        for value in (1e-310, 5e-324, sys.float_info.min * (1.0 - 2.0**-52)):
            with pytest.raises(ValueError, match=f"{field} must be .* normal"):
                make_cfg(**{arg: value})
        assert getattr(make_cfg(**{arg: sys.float_info.min}), field) == sys.float_info.min

    def test_invalid_allocation(self):
        with pytest.raises(ValueError, match="n_p"):
            PowerAllocation.split(n=10, rho=1.0, eta=0.5, n_p=10)
        with pytest.raises(ValueError, match="n_p"):
            PowerAllocation(n=10, n_p=0, rho_p=1.0, rho_d=1.0)
        with pytest.raises(ValueError, match="eta"):
            PowerAllocation.split(n=10, rho=1.0, eta=1.0, n_p=5)
        with pytest.raises(ValueError, match="rho"):
            PowerAllocation.split(n=10, rho=-0.1, eta=0.5, n_p=5)
        with pytest.raises(ValueError, match="rho_d"):
            PowerAllocation(n=10, n_p=5, rho_p=1.0, rho_d=-0.1)


class TestPowerAllocation:
    def test_total_energy_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            rho = float(rng.uniform(0.001, 5.0))
            a = PowerAllocation.split(
                n=n, rho=rho, eta=float(rng.uniform(0.02, 0.98)), n_p=int(rng.integers(1, n))
            )
            total = a.rho_p * a.n_p + a.rho_d * a.n_d
            assert total == pytest.approx(rho * n, rel=1e-12)

    def test_equal_power_iff_eta_is_data_share(self):
        a = PowerAllocation.equal_power(n=100, rho=0.7, n_p=20)
        assert (a.rho_p, a.rho_d) == (0.7, 0.7)
        assert a.is_equal_power()
        # the split at eta = n_d / n is equal power up to rounding
        assert PowerAllocation.split(n=100, rho=0.05, eta=0.8, n_p=20).is_equal_power()
        assert not PowerAllocation.split(n=100, rho=0.7, eta=0.5, n_p=20).is_equal_power()
        assert PowerAllocation.equal_power(n=100, rho=0.0, n_p=20).is_equal_power()

    def test_from_powers_round_trip(self):
        # (rho_p, rho_d) -> (rho, eta) -> split gives the powers back
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            n_p = int(rng.integers(1, n))
            rho_p = float(rng.uniform(0.0, 3.0))
            rho_d = float(rng.uniform(0.01, 3.0))
            rho = (rho_p * n_p + rho_d * (n - n_p)) / n
            eta = rho_d * (n - n_p) / (rho * n)
            a = PowerAllocation.split(n=n, rho=rho, eta=eta, n_p=n_p)
            assert a.rho_p == pytest.approx(rho_p, rel=1e-12, abs=1e-15)
            assert a.rho_d == pytest.approx(rho_d, rel=1e-12)


class TestSinr:
    def test_no_data_power_gives_zero(self):
        cfg = make_cfg(n=10)
        alloc = PowerAllocation.split(n=10, rho=1.0, eta=1e-300, n_p=2)
        assert sinr(cfg, alloc) == pytest.approx(0.0, abs=1e-290)

    def test_unit_case(self):
        # lambda = sigma_b2 = 1, rho_p = rho_d = 1, n_p = 1: denominator 1+1+1
        cfg = make_cfg(n=2)
        alloc = PowerAllocation.equal_power(n=2, rho=1.0, n_p=1)
        assert sinr(cfg, alloc) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert effective_sinr(cfg, alloc) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_eta_form_vanishes_at_extremes(self):
        # all energy on the pilots, or all on the data, leaves no SINR
        cfg = make_cfg(n=50)
        for eta in (1e-12, 1.0 - 1e-12):
            assert sinr(cfg, PowerAllocation.split(n=50, rho=1.0, eta=eta, n_p=10)) < 1e-10

    def test_parameterization_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(2, 500))
            cfg = make_cfg(
                n=n,
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            rho = float(rng.uniform(0.001, 5.0))
            eta = float(rng.uniform(0.02, 0.98))
            n_p = int(rng.integers(1, n))
            alloc = PowerAllocation.split(n=n, rho=rho, eta=eta, n_p=n_p)
            assert sinr_eta_form(cfg, rho, eta, n_p) == pytest.approx(
                sinr(cfg, alloc), rel=1e-10
            )

    def test_monotone_in_pilot_energy_and_data_power(self):
        cfg = make_cfg(n=100)
        base = PowerAllocation(n=100, n_p=10, rho_p=0.5, rho_d=1.0)
        more_pilot = PowerAllocation(n=100, n_p=10, rho_p=0.8, rho_d=1.0)
        more_data = PowerAllocation(n=100, n_p=10, rho_p=0.5, rho_d=1.5)
        assert sinr(cfg, more_pilot) > sinr(cfg, base)
        assert sinr(cfg, more_data) > sinr(cfg, base)

    def test_effective_sinr_overhead_factor(self):
        cfg = make_cfg(n=40)
        alloc = PowerAllocation.equal_power(n=40, rho=0.3, n_p=39)
        assert effective_sinr(cfg, alloc) == pytest.approx(
            sinr(cfg, alloc) / 40.0, rel=1e-14
        )

    def test_zero_power_gives_zero_effective_sinr(self):
        cfg = make_cfg(n=20)
        alloc = PowerAllocation.split(n=20, rho=0.0, eta=0.5, n_p=5)
        assert effective_sinr(cfg, alloc) == 0.0

    def test_zero_pilot_power_gives_zero(self):
        # v = 0 needs no branch: u v / (1 + u + v) is 0 at any data power
        cfg = make_cfg(n=10, lam=1e100, sb2=1e-100)
        for rho_d in (0.0, 1.0, 1e100):
            assert sinr(cfg, PowerAllocation(n=10, n_p=2, rho_p=0.0, rho_d=rho_d)) == 0.0

    def test_scales_enter_only_as_their_ratio(self):
        # (2c, 3c) moves lambda / sigma_b2 by an ulp at most and gamma by
        # two, each gamma within two ulps of the exact rational; equal
        # scales keep every bit
        alloc = PowerAllocation(n=100, n_p=20, rho_p=0.3, rho_d=0.05)
        unit = sinr(make_cfg(lam=2.0, sb2=3.0), alloc)
        for exponent in range(-300, 301, 25):
            scale = float(f"1e{exponent}")
            cfg = make_cfg(lam=2.0 * scale, sb2=3.0 * scale)
            got = sinr(cfg, alloc)
            assert abs(got - unit) <= 2 * math.ulp(unit), exponent
            gain = Fraction(cfg.lambda_ab) / Fraction(cfg.sigma_b2)
            u, v = Fraction(alloc.rho_d) * gain, alloc.n_p * Fraction(alloc.rho_p) * gain
            assert abs(Fraction(got) - u * v / (1 + u + v)) <= 2 * math.ulp(got), exponent
        for exponent in range(-300, 301, 25):
            scale = float(f"1e{exponent}")
            assert sinr(make_cfg(lam=scale, sb2=scale), alloc) == sinr(make_cfg(), alloc)

    def test_equal_power_against_mpmath_at_scale(self):
        # one pilot in 1e8 symbols: equal power holds both powers exactly,
        # where rebuilding them from an energy share cancelled to ~5e-9
        mpmath = pytest.importorskip("mpmath")
        n = 10**8
        for lam, sb2 in ((1.0, 1.0), (0.3, 2.0)):
            cfg = make_cfg(n=n, lam=lam, sb2=sb2)
            for exponent in range(-8, 5):
                rho = 10.0**exponent
                got = effective_sinr(cfg, PowerAllocation.equal_power(n=n, rho=rho, n_p=1))
                with mpmath.workdps(40):
                    lam_rho = mpmath.mpf(lam) * mpmath.mpf(rho)
                    exact = (n - 1) * lam_rho**2 / (n * sb2 * (sb2 + 2 * lam_rho))
                    assert abs(got - exact) <= 4e-16 * exact, (lam, sb2, rho)


class TestEqualPowerClosedForm:
    def test_matches_effective_sinr(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 500))
            cfg = make_cfg(
                n=n,
                lam=float(rng.uniform(0.1, 4.0)),
                sb2=float(rng.uniform(0.1, 4.0)),
            )
            rho = float(rng.uniform(0.001, 5.0))
            n_p = int(rng.integers(1, n))
            alloc = PowerAllocation.equal_power(n=n, rho=rho, n_p=n_p)
            assert effective_sinr_closed_form(cfg, rho, n_p) == pytest.approx(
                effective_sinr(cfg, alloc), rel=1e-15
            )

    def test_vectorized_over_pilot_counts(self):
        cfg = make_cfg(n=100)
        n_p = np.arange(1, 100)
        values = effective_sinr_closed_form(cfg, 0.05, n_p)
        assert values.shape == (99,)
        assert np.all(values > 0)

    def test_continuous_pilot_count_unimodal(self):
        # Exactly one maximum on (0, n): the finite-difference sign pattern
        # over a 1000-point grid switches from + to - exactly once.
        cfg = make_cfg(n=100)
        grid = np.linspace(1e-6, 100 - 1e-6, 1000)
        vals = effective_sinr_closed_form(cfg, 0.05, grid)
        signs = np.sign(np.diff(vals))
        changes = np.diff(signs)
        assert np.count_nonzero(changes < 0) == 1
        assert np.count_nonzero(changes > 0) == 0


def test_alloc_config_mismatch_rejected():
    cfg = make_cfg(n=10)
    alloc = PowerAllocation.equal_power(n=12, rho=1.0, n_p=2)
    with pytest.raises(ValueError, match="n=12"):
        sinr(cfg, alloc)
