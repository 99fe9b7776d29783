"""Alice-Bob link analytics.

Covers the slot and power-allocation types, the post-estimation SINR of
the data phase under MMSE channel estimation from the pilots, and the
effective SINR per channel use, which charges the pilot overhead
(n - n_p)/n against the data phase.

All powers and variances are linear scale; dBm conversion is a CLI
concern.
"""

import math
import numbers
from dataclasses import dataclass

# pilot and data powers within this fraction of rho count as equal
_EQUAL_POWER_RTOL = 1e-9


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SystemConfig:
    """Slot-level physical parameters.

    n           total channel uses per slot (pilots + data)
    lambda_ab   Rayleigh fading variance E[|h_ab|^2] of the Alice-Bob channel
    sigma_b2    noise variance at Bob
    sigma_w2    noise variance at the warden
    epsilon     covertness parameter in (0, 1); the warden's minimum
                detection error probability must stay >= 1 - epsilon
    """

    n: int
    lambda_ab: float
    sigma_b2: float
    sigma_w2: float
    epsilon: float

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        for name in ("lambda_ab", "sigma_b2", "sigma_w2"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")


@dataclass(frozen=True)
class PowerAllocation:
    """Joint description of average power, power split, and pilot count.

    rho is the average power over all n symbols, eta the fraction of the
    total energy rho*n carried by the data segment, n_p the number of
    pilot symbols.  rho = 0 is allowed so that no-transmission limits can
    be expressed.
    """

    n: int
    rho: float
    eta: float
    n_p: int

    def __post_init__(self):
        if not _is_integer(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not _is_integer(self.n_p):
            raise ValueError(f"n_p must be an integer, got {self.n_p!r}")
        if not 1 <= self.n_p <= self.n - 1:
            raise ValueError(f"n_p must lie in [1, n-1], got {self.n_p!r} for n={self.n}")
        if not (self.rho >= 0):
            raise ValueError(f"rho must be nonnegative, got {self.rho!r}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta!r}")

    @property
    def n_d(self) -> int:
        return self.n - self.n_p

    @property
    def rho_p(self) -> float:
        """Per-symbol pilot power: the (1 - eta) energy share over n_p symbols."""
        return (1.0 - self.eta) * self.rho * self.n / self.n_p

    @property
    def rho_d(self) -> float:
        """Per-symbol data power: the eta energy share over n_d symbols."""
        return self.eta * self.rho * self.n / self.n_d

    @classmethod
    def equal_power(cls, n: int, rho: float, n_p: int) -> "PowerAllocation":
        """Allocation with rho_p == rho_d == rho, i.e. eta = n_d / n."""
        return cls(n=n, rho=rho, eta=(n - n_p) / n, n_p=n_p)

    @classmethod
    def from_powers(cls, n: int, rho_p: float, rho_d: float, n_p: int) -> "PowerAllocation":
        """Build from per-segment powers; both must be strictly positive.

        A segment with exactly zero power has eta at an endpoint and is
        representable only as a limit.
        """
        if not (rho_p > 0) or not (rho_d > 0):
            raise ValueError("from_powers requires rho_p > 0 and rho_d > 0")
        n_d = n - n_p
        rho = (rho_p * n_p + rho_d * n_d) / n
        eta = rho_d * n_d / (rho * n)
        return cls(n=n, rho=rho, eta=eta, n_p=n_p)

    def is_equal_power(self) -> bool:
        if self.rho == 0.0:
            return True
        return abs(self.rho_p - self.rho_d) < _EQUAL_POWER_RTOL * self.rho


def _check_alloc(cfg: SystemConfig, alloc: PowerAllocation) -> None:
    if alloc.n != cfg.n:
        raise ValueError(
            f"allocation is for n={alloc.n} but the system config has n={cfg.n}"
        )


def sinr(cfg: SystemConfig, alloc: PowerAllocation) -> float:
    """Post-estimation SINR of the data phase.

    gamma = rho_d lambda^2 n_p rho_p
            / (sigma_b^4 + rho_d lambda sigma_b2 + sigma_b2 lambda n_p rho_p)
    """
    _check_alloc(cfg, alloc)
    lam = cfg.lambda_ab
    sb2 = cfg.sigma_b2
    pilot_energy = alloc.n_p * alloc.rho_p
    num = alloc.rho_d * lam * lam * pilot_energy
    den = sb2 * sb2 + alloc.rho_d * lam * sb2 + sb2 * lam * pilot_energy
    return num / den


def effective_sinr(cfg: SystemConfig, alloc: PowerAllocation) -> float:
    """SINR per channel use after charging the pilot overhead: ((n - n_p)/n) * gamma."""
    return (cfg.n - alloc.n_p) / cfg.n * sinr(cfg, alloc)


def effective_sinr_equal_power(cfg: SystemConfig, rho, n_p):
    """Closed form of the effective SINR when rho_p == rho_d == rho.

    ((n - n_p)/n) * lambda^2 rho^2 n_p / (sigma_b2 (sigma_b2 + lambda rho (n_p + 1)))

    Accepts scalars or numpy arrays for rho and n_p, which makes pilot
    sweeps cheap.
    """
    lam = cfg.lambda_ab
    sb2 = cfg.sigma_b2
    n = cfg.n
    return ((n - n_p) / n) * (lam * lam * rho * rho * n_p) / (
        sb2 * (sb2 + lam * rho * (n_p + 1))
    )
