"""Counting statistics for the multiplexed source.

The source emits pairs into a ladder of frequency modes, each an independent
thermal (geometric) pair-number distribution with mean mu. Threshold
detectors close the model: a click is >= 1 surviving photon. For any subset
of detectors the no-click probability of one mode has the closed form
1 / (1 + mu (1 - q)), with q the per-photon probability of missing every
detector in the subset, so every counting probability reduces to
inclusion-exclusion over such terms. analytic_counting evaluates those exact
expressions at any mu; monte_carlo_counting samples the same model and is the
oracle the analytic path is tested against. Only hom_visibility is leading
order in mu: its domain is mu * n_modes < HOM_MU_MODES_LIMIT, which the
hom-dip scenario checks.

The Monte Carlo draws counts, not cells: the pulses are iid, so each of its
six counts is built from binomials over integer counts (monte_carlo_counting).
Every count has the law of the pulse-by-pulse geometric sampler, but not its
random stream: a seed gives other counts than it would there.

Routing model: with multiplexing enabled the lowest-index clicking herald
wins and only the winner's signal mode is shifted into the output filter
(everything else, including unheralded pulses, is rejected). With
multiplexing disabled the model is the single filter-band mode whose signal
reaches the detectors regardless of heralding, which is the configuration
Klyshko estimates are meaningful for.

Useful leading-order laws recovered by the exact forms: P(S,H) = mu eta_s
eta_h, and heralded g2 = 2 mu (2 - eta_h), i.e. 4 mu in the low-herald-
efficiency limit where pair-number size bias is maximal.

The module writes no files: the stats-sweep scenario writes each
CountingResult, with its model, as one row of counting_mc.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiplexedStatisticsModel",
    "CountingResult",
    "effective_mode_count",
    "analytic_counting",
    "monte_carlo_counting",
    "klyshko_efficiencies",
    "hom_visibility",
    "HOM_MU_MODES_LIMIT",
    "hom_dip_curve",
]

_DIP_EDGE = 28.0  # |bandwidth * t| beyond which exp(-(bandwidth * t)^2) is 0.0 in float64


def effective_mode_count(shift_range_hz: float, photon_bandwidth_hz: float) -> float:
    """Number of addressable frequency channels, shift range over bandwidth."""
    if not (shift_range_hz > 0 and photon_bandwidth_hz > 0):
        raise ValueError("shift range and bandwidth must be positive")
    return shift_range_hz / photon_bandwidth_hz


@dataclass(frozen=True)
class MultiplexedStatisticsModel:
    """Mode count, pair rate, and arm efficiencies for one operating point.

    n_modes may be fractional: the ladder is floor(n_modes) full modes plus
    one partial mode carrying the fractional pair rate, so counting
    probabilities vary continuously with the effective mode count.
    """

    n_modes: float
    mu: float
    eta_s: float
    eta_h: float
    multiplexing_enabled: bool = True

    def __post_init__(self):
        if not self.n_modes >= 1:
            raise ValueError("n_modes must be >= 1")
        if not self.mu >= 0:
            raise ValueError("mu must be non-negative")
        for name in ("eta_s", "eta_h"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def mode_rates(self) -> list[float]:
        """Per-mode mean pair numbers; one partial mode for fractional n_modes."""
        if not self.multiplexing_enabled:
            return [self.mu]
        full = int(math.floor(self.n_modes))
        frac = self.n_modes - full
        rates = [self.mu] * full
        if frac > 1e-12:
            rates.append(self.mu * frac)
        return rates


@dataclass(frozen=True)
class CountingResult:
    """Per-pulse click probabilities and the heralded autocorrelation.

    pulses is None for analytic results; Monte Carlo results carry the
    pulse count, the recorded seed, and delta-method standard errors.
    """

    p_h: float
    p_s: float
    p_sh: float
    p_s1h: float
    p_s2h: float
    p_s1s2h: float
    g2_h: float
    pulses: int | None = None
    seed: int | None = None
    se_p_sh: float = 0.0
    se_g2_h: float = 0.0

    def __post_init__(self):
        slack = 1e-12
        for name in ("p_h", "p_s", "p_sh", "p_s1h", "p_s2h", "p_s1s2h"):
            v = getattr(self, name)
            if not -slack <= v <= 1.0 + slack:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.p_sh > min(self.p_s, self.p_h) + slack:
            raise ValueError("joint probability exceeds a marginal")
        if self.p_s1s2h > min(self.p_s1h, self.p_s2h) + slack:
            raise ValueError("triple probability exceeds a pair probability")


def _silence(a: float) -> float:
    """P(no click on a detector subset) for one thermal mode.

    a is mu times the per-photon probability of reaching some detector in the
    subset; the thermal generating function gives 1/(1 + a) exactly. Two such
    terms differ as s(a) - s(b) = (b - a) s(a) s(b).
    """
    return 1.0 / (1.0 + a)


def _open_mode(mu: float, eta_h: float, eta_s: float):
    """Exact joint click probabilities for the mode routed to the output.

    Each signal photon reaches S1 or S2 with probability eta_s/2 each, so
    the subset miss factors multiply as (1 - eta_h)^[H] (1 - eta_s/2 [S1]
    - eta_s/2 [S2]); inclusion-exclusion over subsets does the rest. Each
    difference of silences is written as a product, 1 - s(a) = a s(a) and
    s(a) - s(b) = (b - a) s(a) s(b). The triple term also takes out its exact
    zero 1 - 2 q_1 + q_12 with s(a) s(b) - 1 = -(a + b + ab) s(a) s(b), so no
    O(1) terms cancel and every probability keeps its digits as mu -> 0.
    """
    e_1 = 0.5 * eta_s
    q_1, q_12, q_h = 1.0 - e_1, 1.0 - eta_s, 1.0 - eta_h
    a_h, a_1, a_12 = mu * eta_h, mu * e_1, mu * eta_s
    a_h1 = mu * (eta_h + q_h * e_1)
    a_h12 = mu * (eta_h + q_h * eta_s)
    s_h, s_1, s_12, s_h1, s_h12 = map(_silence, (a_h, a_1, a_12, a_h1, a_h12))
    p_h = a_h * s_h
    p_s = a_12 * s_12
    # P(H) - P(H, no click on the subset): s_1 - s_h1 = (a_h1 - a_1) s_1 s_h1 = a_h q_1 s_1 s_h1
    p_hs = p_h - a_h * q_12 * s_12 * s_h12
    p_hs1 = p_h - a_h * q_1 * s_1 * s_h1
    d_1 = (a_1 + a_h1 + a_1 * a_h1) * s_1 * s_h1  # 1 - s_1 s_h1
    d_12 = (a_12 + a_h12 + a_12 * a_h12) * s_12 * s_h12  # 1 - s_12 s_h12
    p_hs1s2 = a_h * (2.0 * q_1 * d_1 - p_h - q_12 * d_12)
    return p_h, p_s, p_hs, p_hs1, p_hs1s2


def _g2(p_s1s2h, p_h, p_s1h, p_s2h) -> float:
    if p_s1h <= 0.0 or p_s2h <= 0.0:
        return float("nan")
    # two ratios, so that rates near the float minimum do not underflow their product
    return (p_s1s2h / p_s1h) * (p_h / p_s2h)


def analytic_counting(model: MultiplexedStatisticsModel) -> CountingResult:
    """Closed-form counting probabilities for the thermal threshold model.

    Exact within the model (no series truncation), so it holds at any mu,
    multi-pair pulses included; monte_carlo_counting agrees with it from mu =
    1e-3 to 10. mu = 0 returns zero probabilities with g2 = NaN.
    """
    if model.mu == 0.0:
        return CountingResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, float("nan"))
    if not model.multiplexing_enabled:
        p_h, p_s, p_hs, p_hs1, p_hs1s2 = _open_mode(model.mu, model.eta_h, model.eta_s)
    else:
        p_h = p_hs = p_hs1 = p_hs1s2 = 0.0
        upstream_silent = 1.0
        for mu_m in model.mode_rates():
            m_h, _, m_hs, m_hs1, m_hs1s2 = _open_mode(mu_m, model.eta_h, model.eta_s)
            p_h += upstream_silent * m_h
            p_hs += upstream_silent * m_hs
            p_hs1 += upstream_silent * m_hs1
            p_hs1s2 += upstream_silent * m_hs1s2
            upstream_silent *= _silence(mu_m * model.eta_h)
        p_s = p_hs  # unheralded pulses leave nothing in the filter band
    return CountingResult(
        p_h=p_h,
        p_s=p_s,
        p_sh=p_hs,
        p_s1h=p_hs1,
        p_s2h=p_hs1,
        p_s1s2h=p_hs1s2,
        g2_h=_g2(p_hs1s2, p_h, p_hs1, p_hs1),
    )


def _pair_numbers(rng, mu, n) -> list[int]:
    """How many of n thermal cells hold 1, 2, ... pairs: entry j - 1 counts pair number j.

    A cell holds a pair with probability mu / (1 + mu); given N >= j it holds
    exactly j with probability 1 / (1 + mu), because the thermal law is
    memoryless. So the occupied count is one binomial and each pair number's
    count another, over the cells not yet placed, until none are left.
    """
    rest = rng.binomial(n, mu / (1.0 + mu))
    counts = []
    while rest:
        c = rng.binomial(rest, 1.0 / (1.0 + mu))
        counts.append(c)
        rest -= c
    return counts


def _signal_laws(eta_s):
    """P(some signal click) and P(both detectors | some click) for m = 1, 2, ... photons.

    Each photon is lost or reaches S1 or S2 with probability eta_s/2 each.
    Conditioning on the first photon, P(one detector only) and P(both) step
    from m - 1 to m through sums of non-negative terms, so P(both) is exactly
    0 at m = 1 and never negative. The closed form 1 - 2 (1 - eta_s/2)^m +
    (1 - eta_s)^m cancels to +-1e-16 there, and to noise at small eta_s.
    """
    keep, miss_s1 = 1.0 - eta_s, 1.0 - 0.5 * eta_s
    none, no_s1, one, both = 1.0, 1.0, 0.0, 0.0
    while True:
        # the first photon lost, or at S1 (S2 alike) with S2 silent or not among the rest
        one, both = keep * one + eta_s * no_s1, keep * both + eta_s * (1.0 - no_s1)
        none, no_s1 = keep * none, miss_s1 * no_s1
        yield 1.0 - none, (both / (one + both) if both else 0.0)


def _counting_result(counts, pulses: int, seed: int) -> CountingResult:
    """Frequencies and delta-method standard errors from the six summed counts."""
    c_h, c_s, c_sh, c_s1h, c_s2h, c_s1s2h = counts
    n = float(pulses)
    p = lambda c: float(c) / n
    g2 = float(_g2(p(c_s1s2h), p(c_h), p(c_s1h), p(c_s2h)))
    if c_s1s2h > 0 and c_h > 0 and c_s1h > 0 and c_s2h > 0:
        rel = math.sqrt(1.0 / c_s1s2h + 1.0 / c_h + 1.0 / c_s1h + 1.0 / c_s2h)
        se_g2 = float(g2 * rel)
    else:
        se_g2 = float("nan")
    return CountingResult(
        p_h=p(c_h),
        p_s=p(c_s),
        p_sh=p(c_sh),
        p_s1h=p(c_s1h),
        p_s2h=p(c_s2h),
        p_s1s2h=p(c_s1s2h),
        g2_h=g2,
        pulses=pulses,
        seed=seed,
        se_p_sh=math.sqrt(p(c_sh) * (1.0 - p(c_sh)) / n),
        se_g2_h=se_g2,
    )


def monte_carlo_counting(
    model: MultiplexedStatisticsModel,
    pulses: int,
    rng: int | np.random.Generator,
) -> CountingResult:
    """Sample the thermal threshold model's six counts as binomials over integer counts.

    The pulses are iid, so only how many of them show each click pattern
    matters. Mode by mode in ladder order, _pair_numbers splits the pulses not
    yet heralded by pair number j; of the c_j with j pairs, a binomial number
    herald (1 - (1 - eta_h)^j each), and binomials over those split their
    signal outcomes by _signal_laws. With multiplexing the heralded pulses
    leave the pool, so the lowest clicking mode wins; the single arm adds the
    signal clicks of its unheralded pulses. No array holds a cell or a pulse:
    the cost grows with the number of pair numbers drawn, about ln(pulses) /
    ln(1 + 1/mu) per mode, and memory does not grow with pulses. Any mu >= 0
    samples.

    One counter-based generator seeded with the recorded seed drives the
    call, so the seed alone reproduces the run. rng may be a seed or a
    Generator (a seed is then drawn from it). The counts have the law of a
    pulse-by-pulse geometric sampler, but a seed does not give the counts
    that sampler would.
    """
    if pulses < 1:
        raise ValueError("pulses must be positive")
    if isinstance(rng, np.random.Generator):
        seed = int(rng.integers(2**63))
    else:
        seed = int(rng)
    rng = np.random.Generator(np.random.Philox(seed))
    c_h = c_sh = c_s1h = c_s2h = c_s1s2h = unheralded_s = 0
    free = pulses
    for mu in model.mode_rates():
        for j, (c, (p_click, p_both)) in enumerate(
            zip(_pair_numbers(rng, mu, free), _signal_laws(model.eta_s)), start=1
        ):
            h = rng.binomial(c, 1.0 - (1.0 - model.eta_h) ** j)
            s = rng.binomial(h, p_click)
            both = rng.binomial(s, p_both)
            s1 = rng.binomial(s - both, 0.5)  # the one detector that clicked, S1 or S2 alike
            c_h += h
            c_sh += s
            c_s1h += s1 + both
            c_s2h += s - s1
            c_s1s2h += both
            if model.multiplexing_enabled:
                free -= h
            else:
                unheralded_s += rng.binomial(c - h, p_click)
    counts = (c_h, c_sh + unheralded_s, c_sh, c_s1h, c_s2h, c_s1s2h)
    return _counting_result(counts, pulses, seed)


def klyshko_efficiencies(counts: CountingResult) -> tuple[float, float]:
    """Arm efficiencies from coincidence-to-singles ratios.

    eta_s = P(S,H)/P(H) and eta_h = P(S,H)/P(S); unbiased only when the
    signal reaches its detector independently of heralding (the
    non-multiplexed configuration) and mu is small.
    """
    if counts.p_h <= 0.0 or counts.p_s <= 0.0:
        raise ValueError("Klyshko estimate needs nonzero herald and signal rates")
    return counts.p_sh / counts.p_h, counts.p_sh / counts.p_s


# mu * n_modes below which hom_visibility's leading-order multi-pair term holds
HOM_MU_MODES_LIMIT = 0.1


def hom_visibility(purity: float, g2_h: float) -> float:
    """Two-photon interference visibility, purity * (1 - g2_h).

    The multi-pair term enters as a coincidence background exactly the way
    distinguishability does, so the two suppressions multiply. That holds to
    leading order in mu, for mu * n_modes < HOM_MU_MODES_LIMIT.
    """
    if not 0.0 < purity <= 1.0:
        raise ValueError("purity must be in (0, 1]")
    if g2_h < 0.0:
        raise ValueError("g2_h must be non-negative")
    return purity * (1.0 - g2_h)


def hom_dip_curve(purity, g2_h, bandwidth, delays) -> np.ndarray:
    """Normalized coincidence rate vs relative delay.

    bandwidth is the RMS width of the photon's intensity spectrum in rad/s;
    for Gaussian envelopes the overlap decays as exp(-(bandwidth*t)^2), so
    R(t) = 1 - V exp(-(bandwidth*t)^2) with R -> 1 far from overlap. Delays
    are clipped at _DIP_EDGE / bandwidth, where the exponential has already
    underflowed to 0.0, so no delay overflows the square and R is exactly
    1.0 beyond.
    """
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    v = hom_visibility(purity, g2_h)
    edge = _DIP_EDGE / bandwidth
    t = np.clip(np.asarray(delays, dtype=float), -edge, edge)
    return 1.0 - v * np.exp(-((bandwidth * t) ** 2))
