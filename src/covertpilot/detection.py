"""Warden-side detection analytics.

The warden observes n complex samples and must decide whether a slot
carried a transmission.  This module provides the KL divergence between
the no-transmission and transmission observation distributions, its
derivative in the data power fraction, the resulting lower bound on the
warden's minimum detection error probability, and, for the equal-power
regime, the optimal radiometer threshold, the closed-form minimum
detection error probability itself, and its complement, the covert
margin, evaluated directly.  The regularized incomplete gamma function
behind alpha and beta integrates the same Gamma(n, 1) density as the
covert margin, with the same quadrature.
"""

import math
import sys
from typing import NamedTuple, Tuple

from .link_model import PowerAllocation, SystemConfig, _check_alloc, _check_slot, _is_integer
from .specfun import expm1mx, stirlerr


class DetectionReport(NamedTuple):
    """Warden detection metrics at equal pilot and data power."""

    d01: float
    xi_lower_bound: float
    tau_star: float
    xi_star: float
    alpha: float
    beta: float


def _per_sample_divergence(snr: float) -> float:
    """KL divergence of CN(0, v) from CN(0, v (1 + snr)) per sample."""
    return math.log1p(snr) - snr / (1.0 + snr)


def kl_divergence(cfg: SystemConfig, alloc: PowerAllocation) -> float:
    """KL divergence of the warden's H0 observation law from its H1 law.

    Sums the per-sample divergence over the pilot and data segments:

        n_p [ln(1 + rho_p/sigma_w2) - (rho_p/sigma_w2)/(1 + rho_p/sigma_w2)]
      + n_d [ln(1 + rho_d/sigma_w2) - (rho_d/sigma_w2)/(1 + rho_d/sigma_w2)]
    """
    _check_alloc(cfg, alloc)
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
    _check_slot(cfg.n, n_p)
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
    radiometer at the optimal threshold, and with P = reg_lower_gamma the
    regularized lower incomplete gamma function and Q = 1 - P:

        alpha = Q(n, n tau / sigma_w2)
        beta  = P(n, n tau / (rho + sigma_w2))
        xi    = alpha + beta

    Each is the Gamma(n) tail beyond the mode, integrated directly, so it
    keeps its relative accuracy however small.  The result depends on n
    only, not on the pilot/data split.
    """
    if not (rho > 0):
        raise ValueError(f"min_detection_error requires rho > 0, got {rho!r}")
    sw2 = cfg.sigma_w2
    n = cfg.n
    tau = optimal_threshold(rho, sw2)
    # a subnormal rho / sigma_w2 has lost digits; tau overflows once sigma_w2^2 / rho does
    if not (sys.float_info.min <= rho / sw2 and tau < math.inf):
        raise ValueError(
            "min_detection_error needs a normal rho / sigma_w2 and a finite optimal "
            f"threshold, got rho = {rho!r} and sigma_w2 = {sw2!r}"
        )
    alpha = _gamma_tail(n, n * tau / sw2, upper=True)
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
# _gamma_tail's panels: at most 2 wide, which the double-exponential
# density at n = 1 needs, and narrowed so the log-density falls by at
# most _PANEL_DROP across one; the tail is cut _TAIL_DEPTH below its
# largest density; no tail needs more than 21 of the _MAX_PANELS
_PANEL_MAX = 2.0
_PANEL_DROP = 4.0
_TAIL_DEPTH = 40.0
_MAX_PANELS = 64
# a tail whose density starts below e^-800 is below the smallest double,
# and skipping it keeps expm1 from overflowing beyond x ~ 1e308
_LOG_DENSITY_MIN = -800.0


def _log_density_scale(n: int) -> float:
    """ln(n / 2 pi)/2 - stirlerr(n), the constant of the log-density in w."""
    return 0.5 * math.log(n / (2.0 * math.pi)) - stirlerr(n)


def _panel_mass(n: int, log_c: float, mid: float, half: float) -> float:
    """Gamma(n, 1) mass over w in [mid - half, mid + half], 16-point Gauss-Legendre.

    The density in w = ln(x/n) has the saddle-point log form
    log_c - n (expm1(w) - w), with log_c from _log_density_scale.
    """
    total = 0.0
    for x, weight in _GL_HALF:
        total += weight * (
            math.exp(log_c - n * expm1mx(mid - half * x))
            + math.exp(log_c - n * expm1mx(mid + half * x))
        )
    return half * total


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
    log_c = _log_density_scale(n)
    width = math.log1p(s)
    w_lo = -math.log1p(expm1mx(width) / width)
    # expm1(w) - w >= w^2/2 for w >= 0 and >= w^2/(2 - w) for w < 0, so
    # the density is below e^-C of its peak beyond these ends
    tail = _TAIL_EXPONENT
    lo = max(w_lo, -(tail + math.sqrt(tail * tail + 8.0 * n * tail)) / (2.0 * n))
    hi = min(w_lo + width, math.sqrt(2.0 * tail / n))
    panels = math.ceil((hi - lo) * math.sqrt(n) / _PANEL_SPAN)
    half = 0.5 * (hi - lo) / panels
    mass = sum(
        _panel_mass(n, log_c, lo + (2 * k + 1) * half, half) for k in range(panels)
    )
    density_lo = math.exp(log_c - n * expm1mx(w_lo))
    return mass, density_lo / (1.0 + s)


def _gamma_tail(n: int, x: float, upper: bool) -> float:
    """Gamma(n, 1) mass above x if upper, else below it, for x on that side of n.

    This is the tail on the far side of the mode, the only one that
    reg_lower_gamma and min_detection_error ask for.  At x = n both tails
    lie on the far side, so the side is an argument and not read off x.
    In w = ln(x/n) it is the integral of the log-density covert_margin
    integrates, taken outward from w with the same 16-point panels, each
    at most min(3/sqrt(n), 2) wide and at most 4 / (n |expm1(w)|), so the
    log-density falls by at most about 4 across one.  The integral stops
    e^-40 below the density at w.

    w is formed as log1p((x - n)/n) for x > n/2: ln(x/n) leaves an
    absolute error of an ulp in w, which the steep tails at large n
    magnify to ~1e-12 relative.
    """
    log_c = _log_density_scale(n)
    if 2.0 * x > n:
        w = math.log1p((x - n) / n)
    else:
        # x / n underflows only at n >= 2, where the density at w is
        # below e^-1400 whether or not it does
        w = math.log(max(x / n, math.ulp(0.0)))
    outward = 1.0 if upper else -1.0
    start = log_c - n * expm1mx(w)
    if start < _LOG_DENSITY_MIN:
        return 0.0
    floor = start - _TAIL_DEPTH
    span = min(_PANEL_SPAN / math.sqrt(n), _PANEL_MAX)
    tail = 0.0
    edge = w
    for _ in range(_MAX_PANELS):
        slope = n * abs(math.expm1(edge))
        width = span if slope * span <= _PANEL_DROP else _PANEL_DROP / slope
        tail += _panel_mass(n, log_c, edge + outward * 0.5 * width, 0.5 * width)
        edge += outward * width
        if log_c - n * expm1mx(edge) < floor:
            break
    return tail


def reg_lower_gamma(n: int, x: float) -> float:
    """P(n, x), the regularized lower incomplete gamma function, integer n >= 1.

    The tail on the far side of the mode, the lower one for x <= n and
    the upper one above, is integrated by _gamma_tail; P is that tail or
    its exact complement.  Against 260-digit mpmath, that tail is within
    1.5e-14 relative at n in {1, 2, 10, 100, 1e3, 1e4, 1e6} and
    x = n(1 + k/sqrt(n)) for |k| <= 8, and within 2.2e-13 for |k| <= 30,
    tails down to 1e-200; against a 40-digit quadrature of the density it
    is within 1.5e-14 at n in {1e7, 1e8} for |k| <= 8.  The cost does not grow with n: at most 11
    panels at n >= 2 and 21 at n = 1, none once the tail underflows.
    """
    if not _is_integer(n) or n < 1:
        raise ValueError(f"reg_lower_gamma requires integer n >= 1, got {n!r}")
    if not (x >= 0) or math.isinf(x):
        raise ValueError(f"reg_lower_gamma requires finite x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x > n:
        return 1.0 - _gamma_tail(n, x, upper=True)
    return _gamma_tail(n, x, upper=False)
