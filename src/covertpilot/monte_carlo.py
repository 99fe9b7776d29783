"""Monte Carlo verification of the detection and estimation analytics.

The warden's detectors (energy detector and likelihood ratio test) are
functions of the received energy in the pilot and data segments, and the
sum of k iid squared magnitudes of CN(0, v) samples is v times a unit
Gamma(k) draw, so the hot path draws the unit energies G_p ~ Gamma(n_p)
and G_d ~ Gamma(n_d) directly.  Under either hypothesis each detector
decides H1 where a_p G_p + a_d G_d > t, one linear test per detector
and hypothesis whose coefficients carry sigma_w2 and the segment
powers, so one draw per trial serves both hypotheses and every power
split.  The energies of one slot serve every pilot count at once: for
counts m_1 < ... < m_K the slot is cut into K + 1 runs of symbols, whose
unit energies Gamma(m_1), Gamma(m_2 - m_1), ..., Gamma(n - m_K) are
drawn in that order, and count m_k reads the sum of the first k as G_p
and of the rest as G_d.  When every split is at equal power, where both
detectors weigh the segments alike, the draw is a single Gamma(n)
total.  One pass over the warden stream builds every allocation's
tests, evaluates them on buffers allocated once per pass, and feeds
both the error rates and the detector disagreement count.
Bob's MMSE estimate depends on the pilot observations only through
their average, whose noise term w is CN(0, sigma_b2 / n_p), so that
average is drawn directly as well.  The channel h ~ CN(0, lambda_ab) and
w are independent and circularly symmetric, and each of Bob's moments
is unchanged when both turn by one phase, so his trials are drawn in
h's own phase frame: h = sqrt(lambda_ab E) is real, with E ~ Exp(1),
and w takes two unit normals.  One pass of real arithmetic sums nine
moments of the estimate and its error; the SINR estimate and the
estimation diagnostics are both formed from those sums.
simulate_warden and simulate_bob each draw their stream once per call
and return all that the pass yields; nothing is kept between calls.

Determinism: trials are processed in fixed-size chunks and every chunk
draws from its own SFC64 substream, seeded by SeedSequence(seed,
spawn_key=(domain, chunk index)).  SeedSequence pads the 64-bit seed
to a fixed width before it appends the spawn key, so no two (seed,
domain, chunk) share a state; as one flat entropy list they can (seed
5 + 2**32 at chunk 0 and seed 5 at chunk 1 do).  Counts are reduced as
exact integers, and Bob's moments by numpy's pairwise sum in chunk
order (no BLAS call, whose order varies with the build and thread
count), so estimates are bit-identical for a given (seed, config).
An allocation's warden estimates depend on the others in its pass only
through the pass's pilot counts, which set how the slot is cut, and
through whether any allocation is at unequal power, which makes the
pass draw the segments rather than the total; a pass of one pilot count
draws Gamma(n_p) and then Gamma(n_d).  The estimates of every allocation
in a pass, of any pilot counts, read the same slots and so are
positively correlated.

numpy is imported by the functions that draw, not by the module, and the
package and the CLI import this module only when a Monte Carlo name is
first used, so the closed-form commands load neither.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterator, NamedTuple, Optional, Tuple, Union

from .link_model import PowerAllocation, SystemConfig, TrialBudgetError, _check_alloc, _is_integer

if TYPE_CHECKING:
    import numpy as np

CHUNK_TRIALS = 1 << 14
MIN_TRIALS = 1_000

_DOMAIN_WILLIE = 1
_DOMAIN_BOB = 2


class _McConfigFields(NamedTuple):
    trials: int
    seed: int


class McConfig(_McConfigFields):
    """Monte Carlo settings; the seed fully determines every stream."""

    __slots__ = ()

    def __new__(cls, trials, seed):
        if not _is_integer(trials) or trials < MIN_TRIALS:
            raise TrialBudgetError(
                f"at least {MIN_TRIALS} trials are required for a reported "
                f"estimate, got {trials!r}"
            )
        if not _is_integer(seed) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        return tuple.__new__(cls, (trials, seed))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class McEstimate(NamedTuple):
    """Point estimate with its standard error and trial count."""

    value: float
    std_err: float
    trials: int


class LikelihoodRatioTest(NamedTuple):
    """Log-likelihood-ratio detector at threshold 0, which minimizes alpha + beta."""


class Radiometer(NamedTuple):
    """Energy detector on the average received power per channel use."""

    threshold: float


Detector = Union[LikelihoodRatioTest, Radiometer]


class WillieErrorRates(NamedTuple):
    alpha: McEstimate
    beta: McEstimate
    xi: McEstimate


class WardenResult(NamedTuple):
    """What one pass over the warden substreams yields."""

    rates: Tuple[WillieErrorRates, ...]  # one per detector, in the order given
    disagreements: int  # trials, over both hypotheses, where the first two differ


class BobResult(NamedTuple):
    """Empirical SINR and MMSE statistics from one pass over Bob's substreams."""

    sinr: McEstimate
    var_h_hat: McEstimate
    var_h_tilde: McEstimate
    orth_corr_re: McEstimate
    orth_corr_im: McEstimate


def _stream(seed: int, domain: int, chunk: int) -> np.random.Generator:
    from numpy.random import SFC64, Generator, SeedSequence

    return Generator(SFC64(SeedSequence(seed, spawn_key=(domain, chunk))))


def _chunks(trials: int) -> Iterator[Tuple[int, int]]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    for chunk in range(full):
        yield chunk, CHUNK_TRIALS
    if rest:
        yield full, rest


def _prob_estimate(count: int, trials: int) -> McEstimate:
    p = count / trials
    return McEstimate(
        value=p, std_err=math.sqrt(p * (1.0 - p) / trials), trials=trials
    )


def _linear_test(
    detector: Detector, cfg: SystemConfig, alloc: PowerAllocation, hypothesis: int
) -> Tuple[float, float, float]:
    """The test (a_p, a_d, t) of `detector` under `hypothesis`, 0 for H0 and 1 for H1.

    The detector decides H1 where a_p G_p + a_d G_d > t on the unit draws.
    Each segment energy is v_k G_k, its unit draw G_k ~ Gamma(n_k) times
    v_k = sigma_w2 under H0 and sigma_w2 + rho_k under H1.  The radiometer
    compares the energy sum with n tau, and the LRT weighs each energy by
    w_k = rho_k / (sigma_w2 (rho_k + sigma_w2)) against its log1p threshold,
    so both tests are linear in the unit draws with coefficients v_k and
    w_k v_k.  Float addition and multiplication by w_k >= 0 are monotone,
    so a^H1 >= a^H0 >= 0 holds exactly.
    """
    sw2 = cfg.sigma_w2
    v_p, v_d = (sw2 + alloc.rho_p, sw2 + alloc.rho_d) if hypothesis else (sw2, sw2)
    if isinstance(detector, Radiometer):
        return v_p, v_d, cfg.n * detector.threshold
    if isinstance(detector, LikelihoodRatioTest):
        # 1/sw2 - 1/(rho + sw2) without its cancellation at low SNR
        w_p = alloc.rho_p / (sw2 * (alloc.rho_p + sw2))
        w_d = alloc.rho_d / (sw2 * (alloc.rho_d + sw2))
        threshold = (
            alloc.n_p * math.log1p(alloc.rho_p / sw2)
            + alloc.n_d * math.log1p(alloc.rho_d / sw2)
        )
        return w_p * v_p, w_d * v_d, threshold
    raise TypeError(f"unknown detector type: {detector!r}")


def _draw_segment_energies(
    rng: np.random.Generator,
    cfg: SystemConfig,
    allocs: Tuple[PowerAllocation, ...],
    energies: np.ndarray,
    size: int,
) -> Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Unit (pilot, data) segment energies for `size` trials, per pilot count of `allocs`.

    For the distinct counts m_1 < ... < m_K the unit energies of the K + 1
    runs of symbols they cut the slot into, Gamma(m_1), Gamma(m_2 - m_1),
    ..., Gamma(n - m_K), are drawn in that order.  Count m_k reads
    G_p = the sum of the first k, added in ascending order, and G_d = the
    sum of the rest, added in descending order, each a row of the first
    `size` columns of `energies`, which has 2 K rows.  With K = 1 that is
    G_p ~ Gamma(n_p) drawn before G_d ~ Gamma(n_d).  No power or noise
    enters the draws, so they serve both hypotheses and every allocation
    (common random numbers).  When every allocation is at equal power both
    tests weigh the segments alike, so one Gamma(n) draw of the total
    stands for G_p + G_d at every count, as (G, None).
    """
    import numpy as np

    counts = sorted({alloc.n_p for alloc in allocs})
    if all(alloc.is_equal_power() for alloc in allocs):
        total = rng.standard_gamma(cfg.n, out=energies[0, :size])
        return {count: (total, None) for count in counts}
    last = len(counts) - 1
    pilots, data = energies[: last + 1, :size], energies[last + 1 :, :size]
    # the first run is m_1's pilot row and the last m_K's data row; the
    # run between m_k and m_k+1 waits in data row k - 1 until both sums
    # have read it
    rng.standard_gamma(counts[0], out=pilots[0])
    for k in range(1, last + 1):
        rng.standard_gamma(counts[k] - counts[k - 1], out=data[k - 1])
    rng.standard_gamma(cfg.n - counts[-1], out=data[last])
    for k in range(1, last + 1):
        np.add(pilots[k - 1], data[k - 1], out=pilots[k])
    for k in range(last - 1, -1, -1):
        np.add(data[k], data[k + 1], out=data[k])
    return {count: (pilots[k], data[k]) for k, count in enumerate(counts)}


def simulate_warden(
    cfg: SystemConfig,
    allocs: Tuple[PowerAllocation, ...],
    mc: McConfig,
    detectors: Tuple[Detector, ...],
) -> Tuple[WardenResult, ...]:
    """Per allocation, the error rates of each detector and the disagreements of the first two.

    One pass over the warden substreams runs mc.trials slots under each
    hypothesis.  Each chunk is drawn once for all the allocations, which
    must share n and may differ in n_p: every pilot count reads its own
    segment energies from the same slots (see _draw_segment_energies).
    Every allocation applies every detector to its count's samples, so
    the disagreement count comes from exactly the samples that produced
    the rates, and the estimates of any two allocations are positively
    correlated (common random numbers), which makes their differences
    precise.  Every decision is one linear test on the unit draws, built
    by _linear_test before the first draw.  Per detector,
    xi = alpha + beta.  The two hypotheses share the draw and the
    threshold, and a test's H1 coefficients are never below its H0 ones,
    which are nonnegative, in floating point at any scale, so a false
    alarm and a miss never fall on one trial: xi is a binomial
    proportion at any power split.  The pass holds two rows of
    CHUNK_TRIALS doubles per distinct pilot count.
    """
    import numpy as np

    # an allocation is itself a tuple, so it would pass for a tuple of its fields
    if isinstance(allocs, PowerAllocation):
        raise TypeError("simulate_warden takes a tuple of allocations, got one PowerAllocation")
    if not allocs:
        raise ValueError("at least one allocation is required")
    # a bare LikelihoodRatioTest() is an empty tuple, so it lands here too
    if not detectors:
        raise ValueError("at least one detector is required")
    for alloc in allocs:
        _check_alloc(cfg, alloc)
    # per allocation and hypothesis: one (a_p, a_d, t) per detector
    tests = [
        [[_linear_test(d, cfg, alloc, hypothesis) for d in detectors] for hypothesis in (0, 1)]
        for alloc in allocs
    ]
    # per allocation and detector: (false alarms, misses)
    errors = [[[0, 0] for _ in detectors] for _ in allocs]
    disagreements = [0] * len(allocs)
    # the unit (pilot, data) draws of each pilot count, two work rows and
    # one decision row per detector
    pilot_counts = len({alloc.n_p for alloc in allocs})
    energies = np.empty((2 * pilot_counts, CHUNK_TRIALS))
    work = np.empty((2, CHUNK_TRIALS))
    decided = np.empty((len(detectors), CHUNK_TRIALS), dtype=bool)
    for chunk, size in _chunks(mc.trials):
        rng = _stream(mc.seed, _DOMAIN_WILLIE, chunk)
        draws = _draw_segment_energies(rng, cfg, allocs, energies, size)
        stat, spare = work[:, :size]
        for index, (alloc, alloc_tests) in enumerate(zip(allocs, tests)):
            pilot, data = draws[alloc.n_p]
            for hypothesis, hypothesis_tests in enumerate(alloc_tests):
                for (a_p, a_d, t), row, counts in zip(hypothesis_tests, decided, errors[index]):
                    np.multiply(pilot, a_p, out=stat)
                    if data is not None:
                        np.add(stat, np.multiply(data, a_d, out=spare), out=stat)
                    h1_decisions = int(np.count_nonzero(np.greater(stat, t, out=row[:size])))
                    # an error decides H1 under H0, or H0 under H1
                    counts[hypothesis] += size - h1_decisions if hypothesis else h1_decisions
                if len(detectors) > 1:
                    first, second = decided[:2, :size]
                    disagreements[index] += int(np.count_nonzero(first != second))
    return tuple(
        WardenResult(
            rates=tuple(
                WillieErrorRates(
                    alpha=_prob_estimate(false_alarms, mc.trials),
                    beta=_prob_estimate(missed, mc.trials),
                    xi=_prob_estimate(false_alarms + missed, mc.trials),
                )
                for false_alarms, missed in alloc_errors
            ),
            disagreements=alloc_disagreements,
        )
        for alloc_errors, alloc_disagreements in zip(errors, disagreements)
    )


def _draw_bob_trial(rng: np.random.Generator, normals: np.ndarray, size: int) -> np.ndarray:
    """Unit draws for `size` trials, as rows E ~ Exp(1), w re, w im.

    One standard_exponential call, then one standard_normal call, fill a
    (3, size) view of `normals` with the draws of three calls of `size`.
    """
    rows = normals[: 3 * size].reshape(3, size)
    rng.standard_exponential(out=rows[0])
    rng.standard_normal(out=rows[1:])
    return rows


def simulate_bob(cfg: SystemConfig, alloc: PowerAllocation, mc: McConfig) -> BobResult:
    """Empirical post-estimation SINR at Bob and the MMSE diagnostics.

    In units of Bob's noise, lambda standing for lambda_ab / sigma_b2, and
    in h's phase frame, h = sqrt(lambda) r, with r = sqrt(E), and
    w = s_w (c + i d).  With A = g sqrt(rho_p lambda), K = kappa sqrt(lambda)
    and B = g s_w, the estimate is h_hat = (A r + B c) + i B d and its
    error h - h_hat = (K r - B c) - i B d, where kappa = 1 - g sqrt(rho_p)
    is a ratio, so the error keeps its digits at any pilot SNR, as does
    Im(h_hat conj(h - h_hat)) = sqrt(lambda) r B d, since A + K = sqrt(lambda).
    The SINR is the ratio of the means of s = rho_d |h_hat|^2 and
    i = rho_d |h - h_hat|^2 + 1, whose sums are exact combinations
    of the nine below, with a delta-method standard error.  The same sums
    give the variances of the estimate and its error, and the correlation
    of h_hat with h - h_hat (zero for an MMSE split) with standard errors,
    NaN where a variance underflows to 0; sigma_b2 scales the variances back.
    """
    import numpy as np

    _check_alloc(cfg, alloc)
    lam, sb2, n_p, rho_p = cfg.lambda_ab / cfg.sigma_b2, cfg.sigma_b2, alloc.n_p, alloc.rho_p
    s_h, s_w = math.sqrt(lam), math.sqrt(1.0 / (2.0 * n_p))
    gain = math.sqrt(rho_p) * lam * n_p / (lam * n_p * rho_p + 1.0)
    kappa = 1.0 / (lam * n_p * rho_p + 1.0)
    hat_r, err_r, w_b = gain * math.sqrt(rho_p) * s_h, kappa * s_h, gain * s_w
    normals, work = np.empty(3 * CHUNK_TRIALS), np.empty((2, CHUNK_TRIALS))
    # with hh = |h_hat|^2, ee = |h - h_hat|^2 and x = h_hat conj(h - h_hat):
    # hh, hh^2, ee, ee^2, hh ee, Re x, (Re x)^2, Im x, (Im x)^2
    sums = [0.0] * 9

    def add(k: int, row: np.ndarray) -> None:
        sums[k] += float(np.add.reduce(row))

    # moments past the double range are inf or nan, which the estimates
    # report; numpy's warning about them would only be noise on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk, size in _chunks(mc.trials):
            rng = _stream(mc.seed, _DOMAIN_BOB, chunk)
            r, c, d = _draw_bob_trial(rng, normals, size)
            hat_re, spare = work[:, :size]
            np.sqrt(r, out=r)
            # B d is h_hat's imaginary part and minus the error's
            np.multiply(d, w_b, out=d)
            np.multiply(c, w_b, out=c)
            np.add(np.multiply(r, hat_r, out=hat_re), c, out=hat_re)
            err_re = np.subtract(np.multiply(r, err_r, out=spare), c, out=c)
            # Im x = sqrt(lambda) r B d, then Re x = hat_re err_re - (B d)^2
            np.multiply(r, s_h, out=r)
            add(7, np.multiply(r, d, out=r))
            add(8, np.multiply(r, r, out=r))
            np.multiply(d, d, out=d)
            add(5, np.subtract(np.multiply(hat_re, err_re, out=r), d, out=r))
            add(6, np.multiply(r, r, out=r))
            hh = np.add(np.multiply(hat_re, hat_re, out=hat_re), d, out=hat_re)
            ee = np.add(np.multiply(err_re, err_re, out=err_re), d, out=err_re)
            add(0, hh)
            add(2, ee)
            add(4, np.multiply(hh, ee, out=d))
            add(1, np.multiply(hh, hh, out=hh))
            add(3, np.multiply(ee, ee, out=ee))
    sum_hh, sum_hh2, sum_ee, sum_ee2, sum_hhee, sum_cre, sum_cre2, sum_cim, sum_cim2 = sums

    rho_d, trials = alloc.rho_d, mc.trials
    sum_s = rho_d * sum_hh
    sum_i = rho_d * sum_ee + trials
    sum_ss = rho_d * rho_d * sum_hh2
    sum_ii = rho_d * rho_d * sum_ee2 + 2.0 * rho_d * sum_ee + trials
    sum_si = rho_d * rho_d * sum_hhee + rho_d * sum_hh
    mean_s = sum_s / trials
    mean_i = sum_i / trials
    ratio = mean_s / mean_i
    # delta method: var(ratio) ~ var(s - ratio * i) / (trials * mean_i^2)
    var_resid = (sum_ss - 2.0 * ratio * sum_si + ratio * ratio * sum_ii) / trials
    std_err = math.sqrt(max(var_resid, 0.0) / trials) / mean_i

    def moment_estimate(total: float, total_sq: float) -> McEstimate:
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        return McEstimate(value=mean, std_err=math.sqrt(var / trials), trials=trials)

    var_h_hat = moment_estimate(sum_hh, sum_hh2)
    var_h_tilde = moment_estimate(sum_ee, sum_ee2)
    # a product of the variances would overflow or underflow first
    norm = math.sqrt(var_h_hat.value) * math.sqrt(var_h_tilde.value)

    def correlation(total: float, total_sq: float) -> McEstimate:
        if norm == 0.0:  # a variance underflowed
            return McEstimate(math.nan, math.nan, trials)
        moment = moment_estimate(total, total_sq)
        return McEstimate(moment.value / norm, moment.std_err / norm, trials)

    return BobResult(
        sinr=McEstimate(value=ratio, std_err=std_err, trials=trials),
        var_h_hat=McEstimate(var_h_hat.value * sb2, var_h_hat.std_err * sb2, trials),
        var_h_tilde=McEstimate(var_h_tilde.value * sb2, var_h_tilde.std_err * sb2, trials),
        orth_corr_re=correlation(sum_cre, sum_cre2),
        orth_corr_im=correlation(sum_cim, sum_cim2),
    )
