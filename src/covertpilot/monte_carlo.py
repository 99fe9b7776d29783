"""Monte Carlo verification of the detection and estimation analytics.

The warden's detectors (energy detector and likelihood ratio test) are
functions of the received energy in the pilot and data segments, and the
sum of k iid squared magnitudes of CN(0, v) samples is Gamma(k, v), so
the hot path draws segment energies directly.  One draw per trial
serves both hypotheses and every power split of one pilot count: the
H0 energies hold no power, each H1 segment energy is its H0 energy
scaled by 1 + rho_seg / sigma_w2, and when every split is at equal
power, where both detectors read only the total energy, that draw is a
single Gamma(n) total.  One pass over the warden stream evaluates every
allocation and detector a call names, on buffers allocated once per
pass, and feeds both the error rates and the detector disagreement
count.
Bob's MMSE estimate depends on the pilot observations only through
their average, whose noise term is CN(0, sigma_b2 / n_p), so that
average is drawn directly as well, in one pass of real arithmetic that
sums nine moments of the estimate and its error; the SINR estimate and
the estimation diagnostics are both formed from those sums.
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
An allocation's warden estimates do not depend on the others in its
pass, except that a pass with an unequal-power allocation draws the two
segments rather than the total.

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

    # (pilot, data) energies; in a pass of equal-power allocations only,
    # the pilot energy carries the total and the data energy is 0.0
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


def _decides_h1(
    detector: Detector,
    cfg: SystemConfig,
    alloc: PowerAllocation,
    pilot_energy: np.ndarray,
    data_energy: Union[np.ndarray, float],
    work: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Whether each trial decides H1, written into the bool row `out`; `work` is scratch."""
    import numpy as np

    stat, spare = work
    sw2 = cfg.sigma_w2
    # an equal-power total comes with a data energy of 0.0, whose addition
    # would change no decision, so it is skipped
    has_data = not isinstance(data_energy, float)
    if isinstance(detector, Radiometer):
        if has_data:
            pilot_energy = np.add(pilot_energy, data_energy, out=stat)
        return np.greater(np.divide(pilot_energy, cfg.n, out=stat), detector.threshold, out=out)
    if isinstance(detector, LikelihoodRatioTest):
        # 1/sw2 - 1/(rho + sw2) without its cancellation at low SNR
        w_p = alloc.rho_p / (sw2 * (alloc.rho_p + sw2))
        w_d = alloc.rho_d / (sw2 * (alloc.rho_d + sw2))
        threshold = (
            alloc.n_p * math.log1p(alloc.rho_p / sw2)
            + alloc.n_d * math.log1p(alloc.rho_d / sw2)
        )
        np.multiply(pilot_energy, w_p, out=stat)
        if has_data:
            np.add(stat, np.multiply(data_energy, w_d, out=spare), out=stat)
        return np.greater(stat, threshold, out=out)
    raise TypeError(f"unknown detector type: {detector!r}")


def _draw_segment_energies(
    rng: np.random.Generator,
    cfg: SystemConfig,
    allocs: Tuple[PowerAllocation, ...],
    energies: np.ndarray,
    size: int,
) -> _Energies:
    """H0 (pilot, data) segment energies for `size` trials of every allocation in `allocs`.

    The unit energies G_p ~ Gamma(n_p) and G_d ~ Gamma(n_d), drawn in that
    order into the first `size` columns of the two rows of `energies`,
    give the H0 energies sigma_w2 (G_p, G_d); no power enters them, so
    one draw serves every allocation of a shared n_p, and _h1_energies
    scales it to each allocation's H1 energies.  When every allocation is
    at equal power the detectors read only the total, so one Gamma(n)
    draw gives the H0 total, carried as the pilot energy next to a zero
    data energy.
    """
    import numpy as np

    sw2 = cfg.sigma_w2
    pilot, data = energies[:, :size]
    if all(alloc.is_equal_power() for alloc in allocs):
        rng.standard_gamma(cfg.n, out=pilot)
        return np.multiply(pilot, sw2, out=pilot), 0.0
    rng.standard_gamma(allocs[0].n_p, out=pilot)
    rng.standard_gamma(allocs[0].n_d, out=data)
    return np.multiply(pilot, sw2, out=pilot), np.multiply(data, sw2, out=data)


def _h1_energies(
    cfg: SystemConfig,
    alloc: PowerAllocation,
    h0: _Energies,
    out: np.ndarray,
) -> _Energies:
    """One allocation's H1 energies, written into the two rows of `out`.

    Each H1 segment energy is its H0 energy times 1 + rho_seg / sigma_w2:
    H1 and H0 share the draw (common random numbers), so every consumer
    of a chunk stream sees identical samples under both hypotheses.
    """
    import numpy as np

    sw2 = cfg.sigma_w2
    pilot, data = h0
    pilot_h1 = np.multiply(pilot, 1.0 + alloc.rho_p / sw2, out=out[0])
    if isinstance(data, float):  # an equal-power total
        return pilot_h1, data
    return pilot_h1, np.multiply(data, 1.0 + alloc.rho_d / sw2, out=out[1])


def simulate_warden(
    cfg: SystemConfig,
    allocs: Tuple[PowerAllocation, ...],
    mc: McConfig,
    detectors: Tuple[Detector, ...],
) -> Tuple[WardenResult, ...]:
    """Per allocation, the error rates of each detector and the disagreements of the first two.

    One pass over the warden substreams runs mc.trials slots under each
    hypothesis.  Each chunk is drawn once for all the allocations, which
    must share n and n_p, and every allocation applies every detector to
    the same samples, so the disagreement count comes from exactly the
    samples that produced the rates, and the estimates of two allocations
    are positively correlated (common random numbers), which makes their
    differences precise.  Per detector, xi = alpha + beta.  The two
    hypotheses share one draw per trial, whose H1 segment energies are
    never below its H0 ones, and both detectors weigh the energies with
    nonnegative weights, so a false alarm and a miss never fall on one
    trial: xi is a binomial proportion at any power split.
    """
    import numpy as np

    if not allocs:
        raise ValueError("at least one allocation is required")
    for alloc in allocs:
        _check_alloc(cfg, alloc)
        if alloc.n_p != allocs[0].n_p:
            raise ValueError(
                f"allocations must share n_p, got {allocs[0].n_p} and {alloc.n_p}"
            )
    # per allocation and detector: (false alarms, misses)
    errors = [[[0, 0] for _ in detectors] for _ in allocs]
    disagreements = [0] * len(allocs)
    # H0 then H1 (pilot, data) energies, two work rows and one decision row per detector
    energies, work = np.empty((4, CHUNK_TRIALS)), np.empty((2, CHUNK_TRIALS))
    decided = np.empty((len(detectors), CHUNK_TRIALS), dtype=bool)
    for chunk, size in _chunks(mc.trials):
        rng = _stream(mc.seed, _DOMAIN_WILLIE, chunk)
        h0 = _draw_segment_energies(rng, cfg, allocs, energies[:2], size)
        for index, alloc in enumerate(allocs):
            h1 = _h1_energies(cfg, alloc, h0, energies[2:, :size])
            for hypothesis, segments in enumerate((h0, h1)):
                decisions = [
                    _decides_h1(d, cfg, alloc, *segments, work[:, :size], row[:size])
                    for d, row in zip(detectors, decided)
                ]
                for counts, decides in zip(errors[index], decisions):
                    h1_decisions = int(np.count_nonzero(decides))
                    # an error decides H1 under H0, or H0 under H1
                    counts[hypothesis] += size - h1_decisions if hypothesis else h1_decisions
                if len(decisions) > 1:
                    disagreements[index] += int(np.count_nonzero(decisions[0] != decisions[1]))
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
    """Unit normals for `size` trials, as rows h re, h im, w re, w im.

    One call fills a (4, size) view of `normals` with the draws that four
    calls of `size` each would make, in that order.
    """
    rows = normals[: 4 * size].reshape(4, size)
    rng.standard_normal(out=rows)
    return rows


def simulate_bob(cfg: SystemConfig, alloc: PowerAllocation, mc: McConfig) -> BobResult:
    """Empirical post-estimation SINR at Bob and the MMSE diagnostics.

    From unit normals a (of h) and c (of w) per real component, the
    estimate is h_hat = g sqrt(rho_p) s_h a + g s_w c and its error
    h - h_hat = kappa s_h a - g s_w c, where s_h and s_w scale the normals
    to h and w, and kappa = 1 - g sqrt(rho_p) is formed as a ratio, so
    the error keeps its digits at any pilot SNR.  The SINR is the ratio
    of the means of s = rho_d |h_hat|^2 and i = rho_d |h - h_hat|^2 + sigma_b2,
    whose sums are exact combinations of the nine below, with a
    delta-method standard error.  The same sums give the variances of
    the estimate and its error, and the correlation of h_hat with
    h - h_hat (zero for an MMSE split) with standard errors, NaN where
    the variances' product underflows.
    """
    import numpy as np

    _check_alloc(cfg, alloc)
    lam, sb2, n_p, rho_p = cfg.lambda_ab, cfg.sigma_b2, alloc.n_p, alloc.rho_p
    s_h, s_w = math.sqrt(lam / 2.0), math.sqrt(sb2 / (2.0 * n_p))
    gain = math.sqrt(rho_p) * lam * n_p / (lam * n_p * rho_p + sb2)
    kappa = sb2 / (lam * n_p * rho_p + sb2)
    hat_a, hat_c, err_a = gain * math.sqrt(rho_p) * s_h, gain * s_w, kappa * s_h
    normals, work = np.empty(4 * CHUNK_TRIALS), np.empty((2, CHUNK_TRIALS))
    # with hh = |h_hat|^2, ee = |h - h_hat|^2 and x = h_hat conj(h - h_hat):
    # hh, hh^2, ee, ee^2, hh ee, Re x, (Re x)^2, Im x, (Im x)^2
    sums = [0.0] * 9

    def add(k: int, row: np.ndarray) -> None:
        sums[k] += float(np.sum(row))

    for chunk, size in _chunks(mc.trials):
        rng = _stream(mc.seed, _DOMAIN_BOB, chunk)
        a, b, c, d = _draw_bob_trial(rng, normals, size)
        hat_re, spare = work[:, :size]
        # per component, the estimate into hat_re then c, the error over a then b
        for h_row, w_row, hat in ((a, c, hat_re), (b, d, c)):
            np.multiply(w_row, hat_c, out=w_row)
            np.multiply(h_row, hat_a, out=hat)
            np.add(hat, w_row, out=hat)
            np.multiply(h_row, err_a, out=h_row)
            np.subtract(h_row, w_row, out=h_row)
        hat_im, err_re, err_im = c, a, b
        # Re x = hat_re err_re + hat_im err_im, then Im x = hat_im err_re - hat_re err_im
        np.multiply(hat_re, err_re, out=d)
        np.multiply(hat_im, err_im, out=spare)
        add(5, np.add(d, spare, out=d))
        add(6, np.multiply(d, d, out=d))
        np.multiply(hat_im, err_re, out=d)
        np.multiply(hat_re, err_im, out=spare)
        add(7, np.subtract(d, spare, out=d))
        add(8, np.multiply(d, d, out=d))
        # hh over hat_re and ee over err_re, each squared in place
        for row in (hat_re, hat_im, err_re, err_im):
            np.multiply(row, row, out=row)
        hh = np.add(hat_re, hat_im, out=hat_re)
        ee = np.add(err_re, err_im, out=err_re)
        add(0, hh)
        add(2, ee)
        add(4, np.multiply(hh, ee, out=d))
        add(1, np.multiply(hh, hh, out=hh))
        add(3, np.multiply(ee, ee, out=ee))
    sum_hh, sum_hh2, sum_ee, sum_ee2, sum_hhee, sum_cre, sum_cre2, sum_cim, sum_cim2 = sums

    rho_d, trials = alloc.rho_d, mc.trials
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
