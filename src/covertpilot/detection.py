"""Warden-side detection analytics.

The warden observes n complex samples and must decide whether a slot
carried a transmission.  This module provides the KL divergence between
the no-transmission and transmission observation distributions, its
derivative in the data power fraction, the resulting lower bound on the
warden's minimum detection error probability, and, for the equal-power
regime, the optimal radiometer threshold, the closed-form minimum
detection error probability itself, and its complement, the covert
margin, evaluated directly.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .link_model import PowerAllocation, SystemConfig
from .specfun import expm1mx, reg_lower_gamma, stirlerr


@dataclass(frozen=True)
class DetectionReport:
    """Warden detection metrics for one allocation.

    tau_star, xi_star, alpha and beta have closed forms only in the
    equal-power regime and are None otherwise.
    """

    d01: float
    xi_lower_bound: float
    tau_star: Optional[float] = None
    xi_star: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None


def _per_sample_divergence(snr: float) -> float:
    """KL divergence of CN(0, v) from CN(0, v (1 + snr)) per sample."""
    return math.log1p(snr) - snr / (1.0 + snr)


def kl_divergence(cfg: SystemConfig, alloc: PowerAllocation) -> float:
    """KL divergence of the warden's H0 observation law from its H1 law.

    Sums the per-sample divergence over the pilot and data segments:

        n_p [ln(1 + rho_p/sigma_w2) - (rho_p/sigma_w2)/(1 + rho_p/sigma_w2)]
      + n_d [ln(1 + rho_d/sigma_w2) - (rho_d/sigma_w2)/(1 + rho_d/sigma_w2)]
    """
    if alloc.n != cfg.n:
        raise ValueError(
            f"allocation is for n={alloc.n} but the system config has n={cfg.n}"
        )
    sw2 = cfg.sigma_w2
    return alloc.n_p * _per_sample_divergence(alloc.rho_p / sw2) + alloc.n_d * (
        _per_sample_divergence(alloc.rho_d / sw2)
    )


def kl_divergence_deta(cfg: SystemConfig, rho: float, eta: float, n_p: int) -> float:
    """Derivative of the KL divergence with respect to the data power fraction.

        n^2 rho^2 (n eta - n_d) (n^2 rho^2 eta^2 - n^2 rho^2 eta + n_d n_p sigma_w^4)
        / [(n eta rho + n_d sigma_w2)^2 ((1 - eta) n rho + n_p sigma_w2)^2]

    Vanishes at eta = n_d / n, the equal-power point.  Matches the central
    finite difference of kl_divergence over eta.
    """
    if not 1 <= n_p <= cfg.n - 1:
        raise ValueError(f"n_p must lie in [1, n-1], got {n_p!r}")
    if not (rho > 0):
        raise ValueError(f"kl_divergence_deta requires rho > 0, got {rho!r}")
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta!r}")
    n = cfg.n
    n_d = n - n_p
    sw2 = cfg.sigma_w2
    nrho = n * rho
    num = (
        n * n
        * rho * rho
        * (n * eta - n_d)
        * (nrho * nrho * eta * eta - nrho * nrho * eta + n_d * n_p * sw2 * sw2)
    )
    den = (nrho * eta + n_d * sw2) ** 2 * ((1.0 - eta) * nrho + n_p * sw2) ** 2
    return num / den


def covertness_lower_bound(d01: float) -> float:
    """Lower bound on the warden's minimum detection error: max(0, 1 - sqrt(d01/2))."""
    if not (d01 >= 0):
        raise ValueError(f"d01 must be nonnegative, got {d01!r}")
    return max(0.0, 1.0 - math.sqrt(d01 / 2.0))


def optimal_threshold(rho: float, sigma_w2: float) -> float:
    """Radiometer threshold minimizing alpha + beta in the equal-power regime.

    tau = (sigma_w2 / rho) (sigma_w2 + rho) ln(1 + rho / sigma_w2)

    Always lies strictly between the mean per-sample powers under the two
    hypotheses, sigma_w2 and sigma_w2 + rho.
    """
    if not (rho > 0):
        raise ValueError(f"optimal_threshold requires rho > 0, got {rho!r}")
    if not (sigma_w2 > 0):
        raise ValueError(f"sigma_w2 must be positive, got {sigma_w2!r}")
    return (sigma_w2 / rho) * (sigma_w2 + rho) * math.log1p(rho / sigma_w2)


def min_detection_error(cfg: SystemConfig, rho: float) -> DetectionReport:
    """Closed-form minimum detection error probability, equal-power regime.

    With rho_p = rho_d = rho the optimal detector reduces to the
    radiometer at the optimal threshold, and with P the regularized lower
    incomplete gamma function:

        alpha = 1 - P(n, n tau / sigma_w2)
        beta  =     P(n, n tau / (rho + sigma_w2))
        xi    = alpha + beta

    The result depends on n only, not on the pilot/data split.
    """
    if not (rho > 0):
        raise ValueError(f"min_detection_error requires rho > 0, got {rho!r}")
    sw2 = cfg.sigma_w2
    n = cfg.n
    tau = optimal_threshold(rho, sw2)
    alpha = 1.0 - reg_lower_gamma(n, n * tau / sw2)
    beta = reg_lower_gamma(n, n * tau / (rho + sw2))
    d01 = n * _per_sample_divergence(rho / sw2)
    return DetectionReport(
        d01=d01,
        xi_lower_bound=covertness_lower_bound(d01),
        tau_star=tau,
        xi_star=alpha + beta,
        alpha=alpha,
        beta=beta,
    )


def _gauss_legendre_half(m: int) -> Tuple[Tuple[float, float], ...]:
    """Positive nodes and weights of the m-point Gauss-Legendre rule, m even.

    Newton's method on the Legendre polynomial P_m from the usual cosine
    guesses; the rule is symmetric, so the negative nodes are mirrors.
    """
    rule = []
    for i in range(1, m // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, m + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = m * (x * p - p_prev) / (x * x - 1.0)
            dx = p / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


# 16 nodes per panel at most 3 / sqrt(n) wide (about three standard
# deviations of ln E0) keep V within ~1e-15 of a 40-digit reference at
# any n and s; epsilon <= 0.3 needs one panel, looser covertness more
_GL_HALF = _gauss_legendre_half(16)
_PANEL_SPAN = 3.0
# the density below e^-_TAIL_EXPONENT of its peak is left out
_TAIL_EXPONENT = 50.0


def covert_margin(n: int, s: float) -> Tuple[float, float]:
    """Covert margin V = 1 - xi* at warden SNR s = rho / sigma_w2, and dV/ds.

    V is the Gamma(n, 1) mass between the optimal radiometer thresholds
    seen from the two hypotheses, n ln(1+s)/s and (1+s) n ln(1+s)/s:
    the warden's H0 energy lands there exactly when the radiometer errs
    on neither side.  In w = ln(x/n) the window has width L = ln(1+s),
    its lower end is -ln(expm1(L)/L), and the Gamma(n, 1) density has
    the saddle-point log form

        ln(n / 2 pi)/2 - stirlerr(n) - n (expm1(w) - w),

    integrated by 16-point Gauss-Legendre quadrature at O(1) cost in n:
    one panel at design-range epsilon, at most 16 over the density's
    effective support when the window is wide.  The density takes equal
    values at the two ends of the window, so dV/ds is the density at the
    lower end over (1 + s).
    """
    if not (s > 0) or math.isinf(s):
        raise ValueError(f"covert_margin requires finite s > 0, got {s!r}")
    log_c = 0.5 * math.log(n / (2.0 * math.pi)) - stirlerr(n)
    width = math.log1p(s)
    w_lo = -math.log1p(expm1mx(width) / width)
    # expm1(w) - w >= w^2/2 for w >= 0 and >= w^2/(2 - w) for w < 0, so
    # the density is below e^-C of its peak beyond these ends
    tail = _TAIL_EXPONENT
    lo = max(w_lo, -(tail + math.sqrt(tail * tail + 8.0 * n * tail)) / (2.0 * n))
    hi = min(w_lo + width, math.sqrt(2.0 * tail / n))
    panels = math.ceil((hi - lo) * math.sqrt(n) / _PANEL_SPAN)
    half = 0.5 * (hi - lo) / panels
    total = 0.0
    for k in range(panels):
        mid = lo + (2 * k + 1) * half
        for x, weight in _GL_HALF:
            total += weight * (
                math.exp(log_c - n * expm1mx(mid - half * x))
                + math.exp(log_c - n * expm1mx(mid + half * x))
            )
    density_lo = math.exp(log_c - n * expm1mx(w_lo))
    return half * total, density_lo / (1.0 + s)


def detection_report(cfg: SystemConfig, alloc: PowerAllocation) -> DetectionReport:
    """Full detection report for an allocation.

    The KL divergence and the covertness lower bound are always
    available; the closed-form threshold and error probabilities exist
    only when the pilot and data powers match.
    """
    d01 = kl_divergence(cfg, alloc)
    if alloc.rho > 0 and alloc.is_equal_power():
        report = min_detection_error(cfg, alloc.rho)
        return DetectionReport(
            d01=d01,
            xi_lower_bound=covertness_lower_bound(d01),
            tau_star=report.tau_star,
            xi_star=report.xi_star,
            alpha=report.alpha,
            beta=report.beta,
        )
    return DetectionReport(d01=d01, xi_lower_bound=covertness_lower_bound(d01))
