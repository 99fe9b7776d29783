"""Covert design optimizer.

Solves the two-stage allocation problem for the equal-power regime:
first find the largest average power whose closed-form minimum detection
error probability still meets the covertness target, then pick the
integer pilot count maximizing the effective SINR at that power.  The
power solve comes first because the warden's error probability depends
on the slot length only, never on the pilot/data split.

The power solve works on the covert margin V = 1 - xi* as a function of
the warden SNR s = rho / sigma_w2, so it is scale-free: safeguarded
Newton on ln V(s) = ln epsilon in ln s, started from the square-root
law (Bash, Goeckel & Towsley, IEEE JSAC 31(9), 2013) and bracketed
below by Pinsker's inequality.
"""

import math
import sys
from typing import NamedTuple, Tuple

from .detection import covert_margin
from .link_model import PowerAllocation, SystemConfig, effective_sinr

# the solve returns V(s*) in [epsilon (1 - MARGIN_REL_TOL), epsilon]
MARGIN_REL_TOL = 1e-12
# from the warm start Newton needs at most 5 evaluations for epsilon <= 0.3
# at any n up to 1e8, and under 20 as epsilon nears 1; the rest of the
# budget covers bisection steps, which halve the bracket in ln s
_MAX_ITERATIONS = 100
# Newton steps on erf for the warm start's normal quantile; the start is
# refined by the solve itself, so this need not run to convergence
_QUANTILE_STEPS = 8


class SolverError(RuntimeError):
    """The power solve did not converge; the configuration is pathological."""


class PowerSolve(NamedTuple):
    """The covert power and how the solve reached it."""

    rho: float
    margin: float  # covert margin V = 1 - xi* at rho, <= epsilon
    iterations: int  # covert_margin evaluations


class DesignResult(NamedTuple):
    """Output of the full design optimization."""

    rho_star: float
    np_continuous: float
    np_star: int
    gamma_eff_star: float
    xi_star_achieved: float
    np_ceil: int
    np_floor: int
    solver_iterations: int
    solver_residual: float


def _warm_start(n: int, epsilon: float) -> float:
    """Square-root-law SNR 2 z / sqrt(n) (1 + 1/(12 n)), z = Phi^-1((1 + epsilon)/2).

    z = sqrt(2) u with erf(u) = epsilon, found by Newton from erf's
    tangent at 0, epsilon sqrt(pi)/2: erf is concave on u > 0, so the
    steps climb to the root from below.  Solving erf(u) = epsilon keeps
    full relative precision at tiny epsilon, where (1 + epsilon)/2
    rounds.  The 1/(12 n) factor removes the leading finite-n error at
    tight epsilon.
    """
    u = 0.5 * math.sqrt(math.pi) * epsilon
    for _ in range(_QUANTILE_STEPS):
        step = (epsilon - math.erf(u)) * 0.5 * math.sqrt(math.pi) * math.exp(u * u)
        u += step
        if step <= 1e-12 * u:
            break
    return 2.0 * math.sqrt(2.0) * u / math.sqrt(n) * (1.0 + 1.0 / (12.0 * n))


def solve_rho_star(cfg: SystemConfig) -> PowerSolve:
    """Largest average power meeting the covertness target.

    Solves V(s) = epsilon for the warden SNR s, where V = 1 - xi* rises
    strictly with s, by Newton steps on ln V - ln epsilon in t = ln s,
    aimed at the middle of the accepted band so the result lands on the
    feasible side: V(s*) <= epsilon within MARGIN_REL_TOL relative.
    Every evaluation narrows a bracket in t; a step that would leave it
    bisects it instead.  The lower end s = 2 epsilon / sqrt(n) is
    certified by Pinsker's inequality, since the divergence is below
    n s^2 / 2.  Returns rho* = s* sigma_w2 with V(s*) and the number of
    covert_margin evaluations.  Raises ValueError where rho* is not a
    normal double, naming sigma_w2 and epsilon: a subnormal rho* is s*
    sigma_w2 rounded on a coarser grid, which can break V <= epsilon.
    """
    n, epsilon = cfg.n, cfg.epsilon
    log_eps = math.log(epsilon)
    target = log_eps + math.log1p(-0.5 * MARGIN_REL_TOL)
    t_lo = math.log(2.0 * epsilon / math.sqrt(n))
    t_hi = math.inf
    t = max(math.log(_warm_start(n, epsilon)), t_lo)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        s = math.exp(t)
        margin, slope = covert_margin(n, s)
        residual = margin / epsilon - 1.0
        if -MARGIN_REL_TOL <= residual <= 0.0:
            rho = s * cfg.sigma_w2
            # off the normal range rho rounds to a power whose margin is not V(s)
            if not (sys.float_info.min <= rho < math.inf):
                raise ValueError(
                    f"covert power rho* = s* sigma_w2 = {s!r} * {cfg.sigma_w2!r} is not a normal "
                    f"double: sigma_w2 = {cfg.sigma_w2!r} is out of range for "
                    f"epsilon = {epsilon!r} at n = {n}"
                )
            return PowerSolve(rho=rho, margin=margin, iterations=iteration)
        if residual < 0.0:
            t_lo = max(t_lo, t)
        else:
            t_hi = min(t_hi, t)
        step = math.nan
        if margin > 0.0 and slope > 0.0:
            step = (target - math.log(margin)) * margin / (s * slope)
        t_next = t + step
        if not (t_lo < t_next < t_hi):
            t_next = 0.5 * (t_lo + t_hi) if t_hi < math.inf else t_lo + 1.0
        t = t_next
    raise SolverError(
        f"covert power solve did not converge in {_MAX_ITERATIONS} iterations for "
        f"n={n}, epsilon={epsilon!r}: SNR bracket [{math.exp(t_lo)!r}, {math.exp(t_hi)!r}]"
    )


def np_continuous(cfg: SystemConfig, rho_star: float) -> float:
    """Real-valued pilot count maximizing the effective SINR at equal power.

    The positive root of u x^2 + 2 (u + 1) x - n (u + 1) = 0, where
    u = rho g is Bob's SNR, g = lambda_ab / sigma_b2, in the form that
    neither cancels when u is small nor overflows when it is large:

        x = n / (1 + sqrt(1 + n u / (u + 1)))

    Always lies in (0, n).
    """
    if not (rho_star > 0):
        raise ValueError(f"np_continuous requires rho_star > 0, got {rho_star!r}")
    u = rho_star * (cfg.lambda_ab / cfg.sigma_b2)
    return cfg.n / (1.0 + math.sqrt(1.0 + cfg.n * (u / (u + 1.0))))


def effective_sinr_equal_power(cfg: SystemConfig, rho: float, n_p: int) -> float:
    """Effective SINR of n_p pilots and n - n_p data symbols, all at power rho."""
    return effective_sinr(cfg, PowerAllocation.equal_power(cfg.n, rho, n_p))


def _sinr_out_of_range(cfg: SystemConfig, where: str, power: str) -> ValueError:
    """The refusal of an effective SINR that is not finite at `where`.

    `power` names the keys that set the power, with their values: Bob's
    SNRs are that power times lambda_ab / sigma_b2.
    """
    return ValueError(
        f"effective SINR is not finite at {where}: {power}, lambda_ab = {cfg.lambda_ab!r} "
        f"and sigma_b2 = {cfg.sigma_b2!r} are beyond the link model's range"
    )


def np_star(cfg: SystemConfig, rho_star: float) -> Tuple[int, int, int]:
    """Integer pilot count maximizing the effective SINR at equal power.

    Evaluates the effective SINR at the ceiling and floor of the
    continuous optimum (clamped into [1, n-1]) and keeps the larger, the
    ceiling on ties.  Returns (np_star, np_ceil, np_floor).  Raises
    ValueError where either SINR is not finite, which the link model
    reaches where Bob's SNRs overflow their product, from about 1e154:
    two infinite SINRs would rank nothing.  So it does where his SNR
    itself overflows and leaves no optimum to round.  The message names
    sigma_w2, since the covert power is rho_star = s* sigma_w2.
    """
    x = np_continuous(cfg, rho_star)
    if math.isnan(x):  # Bob's SNR rho_star g overflowed to inf
        raise _sinr_out_of_range(cfg, f"rho = {rho_star!r}", f"sigma_w2 = {cfg.sigma_w2!r}")
    lo_limit, hi_limit = 1, cfg.n - 1
    np_floor = min(max(math.floor(x), lo_limit), hi_limit)
    np_ceil = min(max(math.ceil(x), lo_limit), hi_limit)
    gamma_ceil = effective_sinr_equal_power(cfg, rho_star, np_ceil)
    gamma_floor = effective_sinr_equal_power(cfg, rho_star, np_floor)
    if not (math.isfinite(gamma_ceil) and math.isfinite(gamma_floor)):
        raise _sinr_out_of_range(
            cfg, f"n_p = {np_floor} or {np_ceil}", f"sigma_w2 = {cfg.sigma_w2!r}"
        )
    best = np_ceil if gamma_ceil >= gamma_floor else np_floor
    return best, np_ceil, np_floor


def np_sensitivity(cfg: SystemConfig, rho: float) -> float:
    """Derivative of the continuous pilot count with respect to the power.

        - (sqrt(kappa + n rho g) - sqrt(kappa))^2
          / (2 g rho^2 sqrt(kappa (kappa + n rho g)))

    with kappa = rho g + 1, g = lambda_ab / sigma_b2.  The difference of
    square roots is formed as n rho g / (sqrt(kappa + n rho g) +
    sqrt(kappa)), so it does not cancel at low SNR.  Strictly negative:
    raising the power always lowers the pilot optimum.
    """
    if not (rho > 0):
        raise ValueError(f"np_sensitivity requires rho > 0, got {rho!r}")
    g = cfg.lambda_ab / cfg.sigma_b2
    kappa = g * rho + 1.0
    snr = cfg.n * rho * g
    root_kappa = math.sqrt(kappa)
    root_total = math.sqrt(kappa + snr)
    gap = snr / (root_total + root_kappa)
    return -gap * gap / (2.0 * g * rho * rho * root_kappa * root_total)


def design(cfg: SystemConfig) -> DesignResult:
    """Full covert design: solve the power, then the pilot count."""
    power = solve_rho_star(cfg)
    rho_star = power.rho
    best, np_ceil, np_floor = np_star(cfg, rho_star)
    return DesignResult(
        rho_star=rho_star,
        np_continuous=np_continuous(cfg, rho_star),
        np_star=best,
        gamma_eff_star=effective_sinr_equal_power(cfg, rho_star, best),
        xi_star_achieved=1.0 - power.margin,
        np_ceil=np_ceil,
        np_floor=np_floor,
        solver_iterations=power.iterations,
        solver_residual=power.margin / cfg.epsilon - 1.0,
    )
