"""Alice-Bob link analytics.

Covers the slot and power-allocation types, the post-estimation SINR of
the data phase under MMSE channel estimation from the pilots, and the
effective SINR per channel use, which charges the pilot overhead
(n - n_p)/n against the data phase.

All powers and variances are linear scale; dBm conversion is a CLI
concern.  Bob's noise power is the link's unit: each formula reads
lambda_ab and sigma_b2 once, as the gain g = lambda_ab / sigma_b2, and
works in Bob's SNRs, each a power times g.
"""

import math
import numbers
import sys
from typing import NamedTuple

# pilot and data powers within this fraction of the larger count as equal:
# a split at eta = n_d / n lands an ulp or so off rho_p == rho_d
_EQUAL_POWER_RTOL = 1e-9


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# a NamedTuple body may not define __new__, so each checked record is a
# subclass of a bare field tuple; its __new__ checks before the tuple is built
class _SystemConfigFields(NamedTuple):
    n: int
    lambda_ab: float
    sigma_b2: float
    sigma_w2: float
    epsilon: float


class SystemConfig(_SystemConfigFields):
    """Slot-level physical parameters.

    n           total channel uses per slot (pilots + data)
    lambda_ab   Rayleigh fading variance E[|h_ab|^2] of the Alice-Bob channel
    sigma_b2    noise variance at Bob
    sigma_w2    noise variance at the warden
    epsilon     covertness parameter in (0, 1); the warden's minimum
                detection error probability must stay >= 1 - epsilon

    The three scales must be normal doubles: positive, finite and not
    subnormal.
    """

    __slots__ = ()

    def __new__(cls, n, lambda_ab, sigma_b2, sigma_w2, epsilon):
        if not _is_integer(n) or n < 2:
            raise ValueError(f"n must be an integer >= 2, got {n!r}")
        for name, value in (("lambda_ab", lambda_ab), ("sigma_b2", sigma_b2),
                            ("sigma_w2", sigma_w2)):
            # a subnormal scale has lost digits before any formula reads it
            if not (sys.float_info.min <= value < math.inf):
                raise ValueError(
                    f"{name} must be positive, finite and at least the smallest normal "
                    f"double {sys.float_info.min!r}, got {value!r}"
                )
        if not (0.0 < epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
        return tuple.__new__(cls, (n, lambda_ab, sigma_b2, sigma_w2, epsilon))

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, would skip the checks
        return cls(*iterable)


def _check_slot(n, n_p) -> None:
    if not _is_integer(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not _is_integer(n_p):
        raise ValueError(f"n_p must be an integer, got {n_p!r}")
    if not 1 <= n_p <= n - 1:
        raise ValueError(f"n_p must lie in [1, n-1], got {n_p!r} for n={n}")


class _PowerAllocationFields(NamedTuple):
    n: int
    n_p: int
    rho_p: float
    rho_d: float


class PowerAllocation(_PowerAllocationFields):
    """Per-symbol powers of a slot of n symbols, the first n_p of them pilots.

    rho_p is the power of each pilot symbol and rho_d that of each of the
    n - n_p data symbols.  Zero power is allowed so that no-transmission
    limits can be expressed.
    """

    __slots__ = ()

    def __new__(cls, n, n_p, rho_p, rho_d):
        _check_slot(n, n_p)
        for name, value in (("rho_p", rho_p), ("rho_d", rho_d)):
            if not (value >= 0):
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        return tuple.__new__(cls, (n, n_p, rho_p, rho_d))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def n_d(self) -> int:
        return self.n - self.n_p

    @classmethod
    def equal_power(cls, n: int, rho: float, n_p: int) -> "PowerAllocation":
        """Allocation with rho_p == rho_d == rho exactly."""
        return cls(n=n, n_p=n_p, rho_p=rho, rho_d=rho)

    @classmethod
    def split(cls, n: int, rho: float, eta: float, n_p: int) -> "PowerAllocation":
        """Average power rho over n symbols, the fraction eta of the energy rho*n as data.

        The pilots carry (1 - eta) rho n / n_p each and the data symbols
        eta rho n / n_d; eta = n_d / n is equal power.
        """
        _check_slot(n, n_p)
        if not (rho >= 0):
            raise ValueError(f"rho must be nonnegative, got {rho!r}")
        if not (0.0 < eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {eta!r}")
        return cls(
            n=n, n_p=n_p, rho_p=(1.0 - eta) * rho * n / n_p, rho_d=eta * rho * n / (n - n_p)
        )

    def is_equal_power(self) -> bool:
        return abs(self.rho_p - self.rho_d) <= _EQUAL_POWER_RTOL * max(self.rho_p, self.rho_d)


def _check_alloc(cfg: SystemConfig, alloc: PowerAllocation) -> None:
    if alloc.n != cfg.n:
        raise ValueError(
            f"allocation is for n={alloc.n} but the system config has n={cfg.n}"
        )


def sinr(cfg: SystemConfig, alloc: PowerAllocation) -> float:
    """Post-estimation SINR of the data phase, gamma = u v / (1 + u + v).

    u = rho_d g and v = n_p rho_p g are Bob's data and pilot SNRs.
    """
    _check_alloc(cfg, alloc)
    gain = cfg.lambda_ab / cfg.sigma_b2
    u = alloc.rho_d * gain
    v = alloc.n_p * alloc.rho_p * gain
    return u * v / (1.0 + u + v)


def effective_sinr(cfg: SystemConfig, alloc: PowerAllocation) -> float:
    """SINR per channel use after charging the pilot overhead: ((n - n_p)/n) * gamma."""
    return (cfg.n - alloc.n_p) / cfg.n * sinr(cfg, alloc)
