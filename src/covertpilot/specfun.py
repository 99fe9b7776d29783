"""Log-gamma, regularized incomplete gamma and saddle-point kernels.

P(s, x) is evaluated by its power series for x < s + 1 and through the
continued fraction for Q(s, x) = 1 - P(s, x) otherwise; this split keeps
both expansions in their fast-converging regime.  All prefactors are
accumulated in log space and exponentiated last, so shapes in the
thousands do not underflow.

stirlerr and expm1mx are the two pieces of the saddle-point form of the
Gamma(n, 1) density (Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000): each is evaluated without the cancellation its
defining difference suffers from.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

MAX_ITERATIONS = 10_000
RELATIVE_TOL = 1e-15

# smallest positive normal double, used to guard Lentz denominators
_TINY = 1e-300


class ConvergenceError(ArithmeticError):
    """Raised when the series or continued fraction hits the iteration cap."""


@dataclass(frozen=True)
class RegGammaResult:
    """Both tails of the regularized incomplete gamma function at (s, x)."""

    lower: float  # P(s, x) = gamma(s, x) / Gamma(s)
    upper: float  # Q(s, x) = 1 - P(s, x)


def ln_gamma(s: float) -> float:
    """Natural log of the complete gamma function, s > 0."""
    if not (s > 0) or math.isinf(s):
        raise ValueError(f"ln_gamma requires finite s > 0, got {s!r}")
    return math.lgamma(s)


def _lower_series(s: float, x: float) -> float:
    """P(s, x) by the lower series; valid and fast for x < s + 1."""
    term = 1.0 / s
    total = term
    for k in range(1, MAX_ITERATIONS + 1):
        term *= x / (s + k)
        total += term
        if abs(term) < abs(total) * RELATIVE_TOL:
            log_p = s * math.log(x) - x - math.lgamma(s) + math.log(total)
            return math.exp(log_p)
    raise ConvergenceError(
        f"lower incomplete gamma series did not converge for s={s}, x={x}"
    )


def _upper_continued_fraction(s: float, x: float) -> float:
    """Q(s, x) by modified Lentz continued fraction; for x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, MAX_ITERATIONS + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < RELATIVE_TOL:
            log_q = s * math.log(x) - x - math.lgamma(s) + math.log(h)
            return math.exp(log_q)
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction did not converge for s={s}, x={x}"
    )


# ln(n!) - [(n + 1/2) ln n - n + ln(2 pi)/2] for n = 1..15, where the
# Stirling series below is not yet accurate to double precision
_STIRLERR_SMALL = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# Stirling series coefficients B_2k / (2k (2k - 1)), k = 6 down to 1; the
# first term left out is below 2e-18 for n > 15
_STIRLING_SERIES = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
# |w| below which expm1mx sums its Taylor series; above it the direct
# difference loses at most a few ulps
_EXPM1MX_SERIES_MAX = 0.5


def stirlerr(n: int) -> float:
    """Stirling's error ln(n!) - [(n + 1/2) ln n - n + ln(2 pi)/2], integer n >= 1."""
    if n <= 15:
        return _STIRLERR_SMALL[n - 1]
    inv2 = 1.0 / (n * n)
    total = 0.0
    for coeff in _STIRLING_SERIES:
        total = total * inv2 + coeff
    return total / n


def expm1mx(w: float) -> float:
    """expm1(w) - w = w^2/2! + w^3/3! + ..., to a few ulps relative."""
    if abs(w) >= _EXPM1MX_SERIES_MAX:
        return math.expm1(w) - w
    # the series to w^15/15! in Horner form, written out because a loop
    # over the coefficients costs more than the arithmetic; the first term
    # left out, w^16/16!, is below 1e-17 of w^2/2 for |w| < 0.5
    acc = 1 / 39916800 + w * (1 / 479001600 + w * (1 / 6227020800 + w * (
        1 / 87178291200 + w * (1 / 1307674368000))))
    acc = 1 / 120 + w * (1 / 720 + w * (1 / 5040 + w * (1 / 40320 + w * (
        1 / 362880 + w * (1 / 3628800 + w * acc)))))
    return w * w * (1 / 2 + w * (1 / 6 + w * (1 / 24 + w * acc)))


def reg_gamma(s: float, x: float) -> RegGammaResult:
    """Regularized incomplete gamma pair (P(s, x), Q(s, x)).

    The tail that the active expansion computes directly is accurate to
    roughly 1e-15 relative; the other is its exact complement, so
    lower + upper == 1 holds to the last bit.
    """
    if not (s > 0) or math.isinf(s):
        raise ValueError(f"reg_gamma requires finite s > 0, got {s!r}")
    if not (x >= 0) or math.isinf(x):
        raise ValueError(f"reg_gamma requires finite x >= 0, got {x!r}")
    if x == 0.0:
        return RegGammaResult(lower=0.0, upper=1.0)
    if x < s + 1.0:
        lower = min(_lower_series(s, x), 1.0)
        return RegGammaResult(lower=lower, upper=1.0 - lower)
    upper = min(_upper_continued_fraction(s, x), 1.0)
    return RegGammaResult(lower=1.0 - upper, upper=upper)


def reg_lower_gamma(s: float, x: float) -> float:
    """P(s, x), the regularized lower incomplete gamma function."""
    return reg_gamma(s, x).lower


def chi_square_cdf(dof: int, x: float) -> float:
    """CDF of a chi-square random variable with `dof` degrees of freedom.

    Equals P(dof/2, x/2) exactly.
    """
    if not isinstance(dof, numbers.Integral) or isinstance(dof, bool) or dof < 1:
        raise ValueError(f"chi_square_cdf requires integer dof >= 1, got {dof!r}")
    if not (x >= 0) or math.isinf(x):
        raise ValueError(f"chi_square_cdf requires finite x >= 0, got {x!r}")
    return reg_lower_gamma(dof / 2.0, x / 2.0)
