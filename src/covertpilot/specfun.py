"""Saddle-point kernels of the Gamma(n, 1) density.

stirlerr and expm1mx are the two pieces of the saddle-point form of the
Gamma(n, 1) density (Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000): each is evaluated without the cancellation its
defining difference suffers from.  detection integrates that density.
"""

import math

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
