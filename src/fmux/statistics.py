"""Counting statistics for the multiplexed source.

The source emits pairs into a ladder of frequency modes, each an independent
thermal (geometric) pair-number distribution with mean mu. Threshold
detectors close the model: a click is >= 1 surviving photon. For any subset
of detectors the no-click probability of one mode has the closed form
1 / (1 + mu (1 - q)), with q the per-photon probability of missing every
detector in the subset, so every counting probability reduces to
inclusion-exclusion over such terms. analytic_counting evaluates those exact
expressions; monte_carlo_counting samples the same model and is the oracle
the analytic path is tested against.

Routing model: with multiplexing enabled the lowest-index clicking herald
wins and only the winner's signal mode is shifted into the output filter
(everything else, including unheralded pulses, is rejected). With
multiplexing disabled the model is the single filter-band mode whose signal
reaches the detectors regardless of heralding, which is the configuration
Klyshko estimates are meaningful for.

Useful leading-order laws recovered by the exact forms: P(S,H) = mu eta_s
eta_h, and heralded g2 = 2 mu (2 - eta_h), i.e. 4 mu in the low-herald-
efficiency limit where pair-number size bias is maximal.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiplexedStatisticsModel",
    "CountingResult",
    "ExpansionDomainError",
    "effective_mode_count",
    "analytic_counting",
    "monte_carlo_counting",
    "klyshko_efficiencies",
    "hom_visibility",
    "hom_dip_curve",
    "counting_csv_header",
    "counting_csv_row",
    "write_counting_csv",
]

EXPANSION_LIMIT = 0.1  # max mu * n_modes accepted by the analytic path
_DIP_EDGE = 28.0  # |bandwidth * t| beyond which exp(-(bandwidth * t)^2) is 0.0 in float64


class ExpansionDomainError(ValueError):
    """mu * n_modes is too large for the small-squeezing counting model."""


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


def _silence(mu: float, q: float) -> float:
    """P(no click on a detector subset) for one thermal mode.

    q is the per-photon probability of evading every detector in the subset;
    the thermal generating function gives 1/(1 + mu(1-q)) exactly.
    """
    return 1.0 / (1.0 + mu * (1.0 - q))


def _open_mode(mu: float, eta_h: float, eta_s: float):
    """Exact joint click probabilities for the mode routed to the output.

    Each signal photon reaches S1 or S2 with probability eta_s/2 each, so
    the subset miss factors multiply as (1 - eta_h)^[H] (1 - eta_s/2 [S1]
    - eta_s/2 [S2]); inclusion-exclusion over subsets does the rest.
    """
    miss_h = 1.0 - eta_h
    miss_one = 1.0 - 0.5 * eta_s
    miss_both = 1.0 - eta_s
    s_h = _silence(mu, miss_h)
    s_1 = _silence(mu, miss_one)
    s_12 = _silence(mu, miss_both)
    s_h1 = _silence(mu, miss_h * miss_one)
    s_h12 = _silence(mu, miss_h * miss_both)
    p_h = 1.0 - s_h
    p_s = 1.0 - s_12
    p_hs = 1.0 - s_h - s_12 + s_h12
    p_hs1 = 1.0 - s_h - s_1 + s_h1
    p_hs1s2 = 1.0 - s_h - 2.0 * s_1 + 2.0 * s_h1 + s_12 - s_h12
    return p_h, p_s, p_hs, p_hs1, p_hs1s2


def _g2(p_s1s2h, p_h, p_s1h, p_s2h) -> float:
    if p_s1h <= 0.0 or p_s2h <= 0.0:
        return float("nan")
    return p_s1s2h * p_h / (p_s1h * p_s2h)


def analytic_counting(model: MultiplexedStatisticsModel) -> CountingResult:
    """Closed-form counting probabilities for the thermal threshold model.

    Exact within the model (no series truncation); the small-squeezing
    domain mu * n_modes < 0.1 is still enforced because outside it the
    single-pair interpretation of the source breaks down. mu = 0 returns
    zero probabilities with g2 = NaN.
    """
    if model.mu * model.n_modes >= EXPANSION_LIMIT:
        raise ExpansionDomainError(
            f"mu*n_modes = {model.mu * model.n_modes:.3f} >= {EXPANSION_LIMIT}"
        )
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
            upstream_silent *= _silence(mu_m, 1.0 - model.eta_h)
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


_COUNT_FIELDS = 6  # h, s, sh, s1h, s2h, s1s2h
MC_CHUNK = 1 << 17  # pulses per spawned seed stream; part of what a seed reproduces


def _binomial_nonzero(rng: np.random.Generator, n: np.ndarray, p: float) -> np.ndarray:
    """rng.binomial(n, p), drawn only where n != 0.

    binomial(0, p) returns 0 without consuming the stream, so drawing the
    nonzero entries in C order leaves the generator exactly where the dense
    call would, with the same values.
    """
    out = np.zeros_like(n)
    nonzero = n != 0
    out[nonzero] = rng.binomial(n[nonzero], p)
    return out


def _simulate_chunk(rng, mus, eta_s, eta_h, multiplexed, n) -> np.ndarray:
    pairs = np.empty((len(mus), n), dtype=np.int64)
    for i, mu in enumerate(mus):
        # geometric on {1,2,...}; subtracting 1 gives the thermal distribution
        pairs[i] = rng.geometric(1.0 / (1.0 + mu), size=n) - 1
    # pulses with no pair in any mode never click; most pulses at small mu
    pairs = pairs[:, pairs.any(axis=0)]
    herald_hits = _binomial_nonzero(rng, pairs, eta_h)
    clicks = herald_hits >= 1
    if multiplexed:
        heralded = clicks.any(axis=0)
        winner = clicks.argmax(axis=0)
        routed = np.where(heralded, pairs[winner, np.arange(pairs.shape[1])], 0)
    else:
        heralded = clicks[0]
        routed = pairs[0]
    detected = _binomial_nonzero(rng, routed, eta_s)
    s1 = _binomial_nonzero(rng, detected, 0.5)
    s2 = detected - s1
    c_s1 = s1 >= 1
    c_s2 = s2 >= 1
    c_s = detected >= 1
    return np.array(
        [
            heralded.sum(),
            c_s.sum(),
            (c_s & heralded).sum(),
            (c_s1 & heralded).sum(),
            (c_s2 & heralded).sum(),
            (c_s1 & c_s2 & heralded).sum(),
        ],
        dtype=np.int64,
    )


def monte_carlo_counting(
    model: MultiplexedStatisticsModel,
    pulses: int,
    rng: int | np.random.Generator,
) -> CountingResult:
    """Sample the thermal threshold model pulse by pulse.

    Pulses are partitioned into chunks of MC_CHUNK, each driven by its own
    counter-based stream spawned from the recorded seed, so results are
    identical for a given seed and the seed alone reproduces the run.
    rng may be a seed or a Generator (a seed is then drawn from it).
    """
    if pulses < 1:
        raise ValueError("pulses must be positive")
    if isinstance(rng, np.random.Generator):
        seed = int(rng.integers(2**63))
    else:
        seed = int(rng)
    mus = model.mode_rates()
    sizes = [MC_CHUNK] * (pulses // MC_CHUNK)
    if pulses % MC_CHUNK:
        sizes.append(pulses % MC_CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    parts = [
        _simulate_chunk(np.random.Generator(np.random.Philox(child)), mus, model.eta_s,
                        model.eta_h, model.multiplexing_enabled, size)
        for size, child in zip(sizes, children)
    ]
    c_h, c_s, c_sh, c_s1h, c_s2h, c_s1s2h = np.sum(parts, axis=0)

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


def klyshko_efficiencies(counts: CountingResult) -> tuple[float, float]:
    """Arm efficiencies from coincidence-to-singles ratios.

    eta_s = P(S,H)/P(H) and eta_h = P(S,H)/P(S); unbiased only when the
    signal reaches its detector independently of heralding (the
    non-multiplexed configuration) and mu is small.
    """
    if counts.p_h <= 0.0 or counts.p_s <= 0.0:
        raise ValueError("Klyshko estimate needs nonzero herald and signal rates")
    return counts.p_sh / counts.p_h, counts.p_sh / counts.p_s


def hom_visibility(purity: float, g2_h: float) -> float:
    """Two-photon interference visibility, purity * (1 - g2_h).

    The multi-pair term enters as a coincidence background exactly the way
    distinguishability does, so the two suppressions multiply.
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


def _config_hash(model: MultiplexedStatisticsModel) -> str:
    text = (
        f"n_modes={model.n_modes!r},mu={model.mu!r},eta_s={model.eta_s!r},"
        f"eta_h={model.eta_h!r},multiplexed={model.multiplexing_enabled}"
    )
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def counting_csv_header() -> str:
    return ("config,n_modes,mu,eta_s,eta_h,multiplexed,"
            "p_h,p_s,p_sh,p_s1s2h,g2_h,se_p_sh,se_g2_h,pulses,seed")


def counting_csv_row(model: MultiplexedStatisticsModel, result: CountingResult) -> str:
    cells = [
        _config_hash(model),
        repr(model.n_modes),
        repr(model.mu),
        repr(model.eta_s),
        repr(model.eta_h),
        str(int(model.multiplexing_enabled)),
        repr(result.p_h),
        repr(result.p_s),
        repr(result.p_sh),
        repr(result.p_s1s2h),
        repr(result.g2_h),
        repr(result.se_p_sh),
        repr(result.se_g2_h),
        "" if result.pulses is None else str(result.pulses),
        "" if result.seed is None else str(result.seed),
    ]
    return ",".join(cells)


def write_counting_csv(path, rows) -> None:
    """rows: iterable of (model, result) pairs."""
    with open(path, "w") as fh:
        fh.write(counting_csv_header() + "\n")
        for model, result in rows:
            fh.write(counting_csv_row(model, result) + "\n")
