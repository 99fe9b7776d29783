"""Monte Carlo verification of the detection and estimation analytics.

The warden's detectors (energy detector and likelihood ratio test) are
functions of the received energy in the pilot and data segments, and the
sum of k iid squared magnitudes of CN(0, v) samples is Gamma(k, v), so
the hot path draws segment energies directly.  One draw per trial
serves both hypotheses: each H1 segment energy is its H0 energy scaled
by 1 + rho_seg / sigma_w2, and at equal power, where both detectors
read only the total energy, that draw is a single Gamma(n) total.
One pass over the warden stream evaluates every detector a call names,
and feeds both the error rates and the detector disagreement count.
Bob's MMSE estimate depends on the pilot observations only through
their average, whose noise term is CN(0, sigma_b2 / n_p), so that
average is drawn directly as well, in one pass that sums nine moments
of the estimate and its error; the SINR estimate and the estimation
diagnostics are both formed from those sums.  simulate_warden and
simulate_bob each draw their stream once per call and return all that
the pass yields; nothing is kept between calls.

Determinism: trials are processed in fixed-size chunks and every chunk
draws from its own SFC64 substream, seeded by SeedSequence(seed,
spawn_key=(domain, chunk index)).  SeedSequence pads the 64-bit seed
to a fixed width before it appends the spawn key, so no two (seed,
domain, chunk) share a state; as one flat entropy list they can (seed
5 + 2**32 at chunk 0 and seed 5 at chunk 1 do).  Counts are reduced as
exact integers, so estimates are bit-identical for a given (seed,
config) regardless of how chunks are scheduled.

numpy is imported by the functions that draw, not by the module, so the
closed-form commands never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Tuple, Union

from .link_model import PowerAllocation, SystemConfig, _check_alloc, _is_integer

if TYPE_CHECKING:
    import numpy as np

    # (pilot, data) energies; at equal power the pilot energy carries the
    # total and the data energy is 0.0
    _Energies = Tuple[np.ndarray, Union[np.ndarray, float]]

CHUNK_TRIALS = 1 << 14
MIN_TRIALS = 1_000

_DOMAIN_WILLIE = 1
_DOMAIN_BOB = 2


class TrialBudgetError(Exception):
    """Trial budget below the minimum for a reportable estimate."""


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings; the seed fully determines every stream."""

    trials: int
    seed: int

    def __post_init__(self):
        if not _is_integer(self.trials) or self.trials < MIN_TRIALS:
            raise TrialBudgetError(
                f"at least {MIN_TRIALS} trials are required for a reported "
                f"estimate, got {self.trials!r}"
            )
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and trial count."""

    value: float
    std_err: float
    trials: int


@dataclass(frozen=True)
class LikelihoodRatioTest:
    """Log-likelihood-ratio detector at threshold 0, which minimizes alpha + beta."""


@dataclass(frozen=True)
class Radiometer:
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


def _complex_normal(rng: np.random.Generator, var: float, size: int) -> np.ndarray:
    # circularly symmetric: two real Gaussians of variance var/2 per component
    scale = math.sqrt(var / 2.0)
    return scale * rng.standard_normal(size) + 1j * scale * rng.standard_normal(size)


def _decides_h1(
    detector: Detector,
    cfg: SystemConfig,
    alloc: PowerAllocation,
    pilot_energy: np.ndarray,
    data_energy: Union[np.ndarray, float],
) -> np.ndarray:
    sw2 = cfg.sigma_w2
    if isinstance(detector, Radiometer):
        return (pilot_energy + data_energy) / cfg.n > detector.threshold
    if isinstance(detector, LikelihoodRatioTest):
        # 1/sw2 - 1/(rho + sw2) without its cancellation at low SNR
        w_p = alloc.rho_p / (sw2 * (alloc.rho_p + sw2))
        w_d = alloc.rho_d / (sw2 * (alloc.rho_d + sw2))
        threshold = (
            alloc.n_p * math.log1p(alloc.rho_p / sw2)
            + alloc.n_d * math.log1p(alloc.rho_d / sw2)
        )
        return w_p * pilot_energy + w_d * data_energy > threshold
    raise TypeError(f"unknown detector type: {detector!r}")


def _draw_segment_energies(
    rng: np.random.Generator,
    cfg: SystemConfig,
    alloc: PowerAllocation,
    size: int,
) -> Tuple[_Energies, _Energies]:
    """(pilot, data) segment energies for `size` trials under H0 and under H1.

    One set of unit energies per trial serves both hypotheses (common
    random numbers): G_p ~ Gamma(n_p) and G_d ~ Gamma(n_d), drawn in that
    order, give the H0 energies sigma_w2 (G_p, G_d), and each H1 energy
    is its H0 energy times 1 + rho_seg / sigma_w2.  At equal power the
    detectors read only the total, so one Gamma(n) draw gives the H0
    total, carried as the pilot energy next to a zero data energy.  Every
    consumer of a chunk stream sees identical samples.
    """
    sw2 = cfg.sigma_w2
    if alloc.is_equal_power():
        total_h0 = sw2 * rng.standard_gamma(cfg.n, size)
        return (total_h0, 0.0), ((1.0 + alloc.rho_p / sw2) * total_h0, 0.0)
    pilot_h0 = sw2 * rng.standard_gamma(alloc.n_p, size)
    data_h0 = sw2 * rng.standard_gamma(alloc.n_d, size)
    return (pilot_h0, data_h0), (
        (1.0 + alloc.rho_p / sw2) * pilot_h0,
        (1.0 + alloc.rho_d / sw2) * data_h0,
    )


def simulate_warden(
    cfg: SystemConfig,
    alloc: PowerAllocation,
    mc: McConfig,
    detectors: Tuple[Detector, ...],
) -> WardenResult:
    """Empirical error rates of each detector, and the disagreements of the first two.

    One pass over the warden substreams runs mc.trials slots under each
    hypothesis and applies every detector to the same samples, so the
    disagreement count comes from exactly the samples that produced the
    rates.  Per detector, xi = alpha + beta.  The two hypotheses share
    one draw per trial, whose H1 segment energies are never below its H0
    ones, and both detectors weigh the energies with nonnegative weights,
    so a false alarm and a miss never fall on one trial: xi is a binomial
    proportion at any power split.
    """
    import numpy as np

    _check_alloc(cfg, alloc)
    errors = [[0, 0] for _ in detectors]  # (false alarms, misses)
    disagreements = 0
    for chunk, size in _chunks(mc.trials):
        rng = _stream(mc.seed, _DOMAIN_WILLIE, chunk)
        for hypothesis, energies in enumerate(
            _draw_segment_energies(rng, cfg, alloc, size)
        ):
            decisions = [_decides_h1(d, cfg, alloc, *energies) for d in detectors]
            for counts, decides in zip(errors, decisions):
                h1_decisions = int(np.count_nonzero(decides))
                # an error decides H1 under H0, or H0 under H1
                counts[hypothesis] += size - h1_decisions if hypothesis else h1_decisions
            if len(decisions) > 1:
                disagreements += int(np.count_nonzero(decisions[0] != decisions[1]))
    rates = tuple(
        WillieErrorRates(
            alpha=_prob_estimate(false_alarms, mc.trials),
            beta=_prob_estimate(missed, mc.trials),
            xi=_prob_estimate(false_alarms + missed, mc.trials),
        )
        for false_alarms, missed in errors
    )
    return WardenResult(rates=rates, disagreements=disagreements)


def _draw_bob_trial(
    rng: np.random.Generator,
    cfg: SystemConfig,
    alloc: PowerAllocation,
    size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """(channel, MMSE estimate) pairs for `size` trials.

    The known unit-power pilot sequence makes the pilot average the
    sufficient statistic: z = sqrt(rho_p) h + w with w ~ CN(0, sigma_b2/n_p),
    and the MMSE estimate is a fixed scalar multiple of z.
    """
    lam = cfg.lambda_ab
    h = _complex_normal(rng, lam, size)
    w = _complex_normal(rng, cfg.sigma_b2 / alloc.n_p, size)
    z = math.sqrt(alloc.rho_p) * h + w
    gain = math.sqrt(alloc.rho_p) * lam * alloc.n_p / (
        lam * alloc.n_p * alloc.rho_p + cfg.sigma_b2
    )
    return h, gain * z


def _bob_terms(h_hat: np.ndarray, err: np.ndarray) -> Iterator[np.ndarray]:
    """Per-trial moments of the estimate and its error, one at a time.

    With hh = |h_hat|^2, ee = |h - h_hat|^2 and c = h_hat conj(h - h_hat):
    hh, hh^2, ee, ee^2, hh ee, Re c, (Re c)^2, Im c and (Im c)^2.
    """
    import numpy as np

    hh = np.abs(h_hat) ** 2
    ee = np.abs(err) ** 2
    yield hh
    yield hh * hh
    yield ee
    yield ee * ee
    yield hh * ee
    cross = h_hat * np.conj(err)
    yield cross.real
    yield cross.real**2
    yield cross.imag
    yield cross.imag**2


def simulate_bob(cfg: SystemConfig, alloc: PowerAllocation, mc: McConfig) -> BobResult:
    """Empirical post-estimation SINR at Bob and the MMSE diagnostics.

    Per trial, draws the fading coefficient, forms the MMSE estimate from
    the pilot phase, and weighs the data-phase signal power
    s = rho_d |h_hat|^2 against the interference-plus-noise power
    i = rho_d |h - h_hat|^2 + sigma_b2.  One pass sums the nine
    _bob_terms; the sums of s, i and their products are exact
    combinations of those, and the SINR is their ratio of means with a
    delta-method standard error.  The same sums give the variances of
    the estimate and its error, and the correlation of h_hat with
    h - h_hat, which is zero for an MMSE split; both its components are
    reported with standard errors for that check, and are NaN where the
    variances underflow so far that no correlation can be formed.
    """
    import numpy as np

    _check_alloc(cfg, alloc)
    sums = [0.0] * 9
    for chunk, size in _chunks(mc.trials):
        rng = _stream(mc.seed, _DOMAIN_BOB, chunk)
        h, h_hat = _draw_bob_trial(rng, cfg, alloc, size)
        # each term is summed and dropped before the next is built
        sums = [total + float(np.sum(term))
                for total, term in zip(sums, _bob_terms(h_hat, h - h_hat))]
    sum_hh, sum_hh2, sum_ee, sum_ee2, sum_hhee, sum_cre, sum_cre2, sum_cim, sum_cim2 = sums

    rho_d, sb2, trials = alloc.rho_d, cfg.sigma_b2, mc.trials
    sum_s = rho_d * sum_hh
    sum_i = rho_d * sum_ee + sb2 * trials
    sum_ss = rho_d * rho_d * sum_hh2
    sum_ii = rho_d * rho_d * sum_ee2 + 2.0 * rho_d * sb2 * sum_ee + sb2 * sb2 * trials
    sum_si = rho_d * rho_d * sum_hhee + rho_d * sb2 * sum_hh
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
    norm = math.sqrt(var_h_hat.value * var_h_tilde.value)

    def correlation(total: float, total_sq: float) -> McEstimate:
        if norm == 0.0:  # the variances' product underflowed
            return McEstimate(math.nan, math.nan, trials)
        moment = moment_estimate(total, total_sq)
        return McEstimate(moment.value / norm, moment.std_err / norm, trials)

    return BobResult(
        sinr=McEstimate(value=ratio, std_err=std_err, trials=trials),
        var_h_hat=var_h_hat,
        var_h_tilde=var_h_tilde,
        orth_corr_re=correlation(sum_cre, sum_cre2),
        orth_corr_im=correlation(sum_cim, sum_cim2),
    )
