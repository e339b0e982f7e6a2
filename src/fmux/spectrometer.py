"""Time-of-flight herald spectrometer.

Frequency maps to arrival time through the grating dispersion (an affine,
strictly monotone map), the time tag is quantized by the TDC bin, and analog
detector jitter smears the tag. The module exposes the forward conditional
P(omega_H | omega_i), its Bayesian inverse over a supplied prior, and a
Monte Carlo sampler that agrees with the forward conditional.

The instrument itself is built from the configuration
(ScenarioConfig.build_spectrometer). Its measured jitter model carries the
detector timing jitter MEASURED_JITTER_TIME_STD, whose frequency width at the
calibration dispersion (MEASURED_JITTER_FREQ_STD) is much wider than the
quoted resolution figure and reproduces the measured heralded-photon purity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .spectral import FrequencyGrid

__all__ = [
    "JitterDistribution",
    "SpectrometerModel",
    "HeraldOutcome",
    "FrequencyRangeError",
    "ZeroEvidenceError",
    "frequency_to_arrival_time",
    "arrival_time_to_frequency",
    "time_to_bin",
    "conditional_outcome_distribution",
    "herald_posterior",
    "sample_herald_event",
    "load_jitter_histogram",
    "MEASURED_JITTER_FREQ_STD",
    "MEASURED_JITTER_TIME_STD",
]

# Effective Gaussian width of the measured arrival-time jitter: 45 GHz of
# frequency std at the 16 ps/GHz calibration dispersion, i.e. 720 ps in time.
# Calibrated against the measured heralded-photon purity; the quoted resolution
# figure is a different (bin-limited) quantity. The jitter is a detector time
# width, so its frequency width scales as 1 / dispersion. A tabulated histogram
# (load_jitter_histogram) replaces this stand-in.
MEASURED_JITTER_FREQ_STD = defaults.TWO_PI * 45e9  # rad/s, at the calibration dispersion
MEASURED_JITTER_DISPERSION_PS_PER_GHZ = 16.0
# the same expression as ScenarioConfig.build_spectrometer, so 16 ps/GHz is bit-equal
MEASURED_JITTER_TIME_STD = MEASURED_JITTER_FREQ_STD * (
    MEASURED_JITTER_DISPERSION_PS_PER_GHZ / 1e12 / (defaults.TWO_PI * 1e9)
)  # s


class FrequencyRangeError(ValueError):
    """Frequency outside the calibrated span of the instrument."""


class ZeroEvidenceError(ValueError):
    """Posterior requested for an outcome with zero probability under the prior."""


@dataclass(frozen=True)
class JitterDistribution:
    """Arrival-time jitter: parametric Gaussian or tabulated density.

    Exactly one representation is active: sigma_t (Gaussian std, s) or a
    tabulated density over time offsets (s, 1/s) normalized to 1.
    """

    sigma_t: float | None = None
    offsets: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        if (self.sigma_t is None) == (self.offsets is None):
            raise ValueError("provide either sigma_t or a tabulated density")
        if self.sigma_t is not None:
            if self.sigma_t < 0:
                raise ValueError("sigma_t must be non-negative")
            return
        off = np.asarray(self.offsets, dtype=float)
        den = np.asarray(self.density, dtype=float)
        if off.ndim != 1 or off.shape != den.shape or off.size < 2:
            raise ValueError("tabulated jitter needs matching 1-D offset/density arrays")
        if np.any(np.diff(off) <= 0):
            raise ValueError("offsets must be strictly increasing")
        if np.any(den < 0):
            raise ValueError("density must be non-negative")
        area = np.trapezoid(den, off)
        if abs(area - 1.0) > 1e-6:
            raise ValueError(f"tabulated density integrates to {area:.6f}, not 1")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "density", den)

    @classmethod
    def gaussian(cls, sigma_t: float) -> "JitterDistribution":
        return cls(sigma_t=sigma_t)

    @classmethod
    def from_table(cls, offsets, counts) -> "JitterDistribution":
        """Tabulated histogram; counts are normalized to a unit-area density."""
        off = np.asarray(offsets, dtype=float)
        cnt = np.asarray(counts, dtype=float)
        area = np.trapezoid(cnt, off)
        if area <= 0:
            raise ValueError("histogram has zero area")
        return cls(offsets=off, density=cnt / area)

    def time_std(self) -> float:
        if self.sigma_t is not None:
            return self.sigma_t
        m = np.trapezoid(self.offsets * self.density, self.offsets)
        v = np.trapezoid((self.offsets - m) ** 2 * self.density, self.offsets)
        return math.sqrt(max(v, 0.0))

    def cdf(self, t) -> np.ndarray:
        """P(offset <= t)."""
        t = np.asarray(t, dtype=float)
        if self.sigma_t is not None:
            if self.sigma_t == 0.0:
                return (t >= 0).astype(float)
            from scipy import special  # loaded on first use: config-only runs never need it

            return 0.5 * (1.0 + special.erf(t / (self.sigma_t * math.sqrt(2.0))))
        cum = np.concatenate(
            ([0.0], np.cumsum(np.diff(self.offsets) * 0.5 * (self.density[1:] + self.density[:-1])))
        )
        cum = cum / cum[-1]
        return np.interp(t, self.offsets, cum, left=0.0, right=1.0)

    def interval_probability(self, lo, hi) -> np.ndarray:
        return self.cdf(hi) - self.cdf(lo)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        if self.sigma_t is not None:
            return rng.normal(0.0, self.sigma_t, size=size)
        u = rng.uniform(size=size)
        cum = np.concatenate(
            ([0.0], np.cumsum(np.diff(self.offsets) * 0.5 * (self.density[1:] + self.density[:-1])))
        )
        cum = cum / cum[-1]
        return np.interp(u, cum, self.offsets)

    def reach(self) -> float:
        """Offset beyond which the density carries negligible mass."""
        if self.sigma_t is not None:
            return 8.0 * self.sigma_t if self.sigma_t > 0 else 0.0
        return float(max(abs(self.offsets[0]), abs(self.offsets[-1])))


@dataclass(frozen=True)
class SpectrometerModel:
    """Dispersion map plus digitizer and jitter; immutable.

    dispersion is in s per rad/s (positive sign convention; only the
    magnitude matters for purity), tdc_bin in s, reference_frequency in
    rad/s. calibrated_span, when set, bounds accepted input frequencies
    around the reference.
    """

    dispersion: float
    tdc_bin: float
    jitter: JitterDistribution
    reference_frequency: float
    t0: float = 0.0
    calibrated_span: float | None = None

    def __post_init__(self):
        if self.dispersion == 0:
            raise ValueError("dispersion must be nonzero")
        if not self.tdc_bin > 0:
            raise ValueError("tdc_bin must be positive")

    @property
    def bin_frequency_step(self) -> float:
        """Frequency width of one TDC bin, rad/s."""
        return self.tdc_bin / abs(self.dispersion)

    def frequency_std(self) -> float:
        """Jitter-induced frequency uncertainty std, rad/s (bin quantization excluded)."""
        return self.jitter.time_std() / abs(self.dispersion)

    def bin_center_frequency(self, index) -> np.ndarray:
        return self.reference_frequency + np.asarray(index) * self.bin_frequency_step * np.sign(
            self.dispersion
        )

    def herald_grid(self, n_bins: int) -> FrequencyGrid:
        """Grid of bin-center frequencies, n_bins odd, centered on the reference."""
        if n_bins % 2 == 0:
            raise ValueError("n_bins must be odd to center on the reference")
        return FrequencyGrid(self.reference_frequency, (n_bins - 1) * self.bin_frequency_step, n_bins)


@dataclass(frozen=True)
class HeraldOutcome:
    """One digitized herald detection: TDC bin and the frequency it implies."""

    time_bin_index: int
    inferred_frequency: float


def _check_range(model: SpectrometerModel, omega) -> None:
    if model.calibrated_span is None:
        return
    det = np.abs(np.asarray(omega, dtype=float) - model.reference_frequency)
    if np.any(det > 0.5 * model.calibrated_span * (1 + 1e-12)):
        raise FrequencyRangeError("frequency outside the calibrated span")


def frequency_to_arrival_time(model: SpectrometerModel, omega) -> np.ndarray:
    """Affine dispersion map t = t0 + dispersion * (omega - reference)."""
    _check_range(model, omega)
    return model.t0 + model.dispersion * (np.asarray(omega, dtype=float) - model.reference_frequency)


def arrival_time_to_frequency(model: SpectrometerModel, t) -> np.ndarray:
    return model.reference_frequency + (np.asarray(t, dtype=float) - model.t0) / model.dispersion


def time_to_bin(model: SpectrometerModel, t) -> np.ndarray:
    """Bin index of an arrival time; bin centers align to t0, edge ties round toward t0."""
    dt = (np.asarray(t, dtype=float) - model.t0) / model.tdc_bin
    k = np.sign(dt) * np.ceil(np.abs(dt) - 0.5)
    return k.astype(int)


def conditional_outcome_distribution(
    model: SpectrometerModel, omega_i: float, bins: np.ndarray | None = None
):
    """Discrete outcome distribution P(omega_H | omega_i) over TDC bins.

    Returns (bin_indices, probabilities, bin_frequencies). With bins=None the
    support is enumerated automatically out to where the jitter density is
    negligible; probabilities then sum to 1 within 1e-6 (and are renormalized
    to machine precision).
    """
    t_center = float(frequency_to_arrival_time(model, omega_i))
    if bins is None:
        reach = model.jitter.reach() + model.tdc_bin
        k_lo = time_to_bin(model, t_center - reach)
        k_hi = time_to_bin(model, t_center + reach)
        bins = np.arange(int(k_lo), int(k_hi) + 1)
    else:
        bins = np.asarray(bins, dtype=int)
    lo = model.t0 + (bins - 0.5) * model.tdc_bin - t_center
    hi = model.t0 + (bins + 0.5) * model.tdc_bin - t_center
    p = model.jitter.interval_probability(lo, hi)
    total = p.sum()
    if total < 1.0 - 1e-6:
        raise ValueError("bin set does not cover the outcome distribution")
    return bins, p / total, model.bin_center_frequency(bins)


def herald_posterior(
    model: SpectrometerModel,
    omega_h: float,
    prior_grid: FrequencyGrid,
    prior_density: np.ndarray,
) -> np.ndarray:
    """Bayes inversion P(omega_i | omega_H) on the prior grid.

    The likelihood is the probability that the true frequency omega_i lands
    in the TDC bin containing omega_h. Returns a density normalized with
    trapezoid weights; raises ZeroEvidenceError when the outcome has no
    support under the prior.
    """
    prior = np.asarray(prior_density, dtype=float)
    if prior.shape != (prior_grid.points,):
        raise ValueError("prior shape does not match grid")
    k = int(time_to_bin(model, frequency_to_arrival_time(model, omega_h)))
    t_lo = model.t0 + (k - 0.5) * model.tdc_bin
    t_hi = model.t0 + (k + 0.5) * model.tdc_bin
    t_i = frequency_to_arrival_time(model, prior_grid.values)
    like = model.jitter.interval_probability(t_lo - t_i, t_hi - t_i)
    post = like * prior
    w = prior_grid.trapezoid_weights()
    evidence = float(post @ w)
    if evidence <= 0.0:
        raise ZeroEvidenceError("outcome has zero probability under the prior")
    return post / evidence


def sample_herald_event(
    model: SpectrometerModel, omega_i, rng: np.random.Generator
) -> HeraldOutcome | list[HeraldOutcome]:
    """Draw jitter, map to time, digitize, and infer the herald frequency.

    omega_i may be a scalar (returns one HeraldOutcome) or an array (returns
    a list). Deterministic for a fixed generator state.
    """
    om = np.asarray(omega_i, dtype=float)
    t = frequency_to_arrival_time(model, om) + model.jitter.sample(rng, size=om.shape)
    k = time_to_bin(model, t)
    freq = model.bin_center_frequency(k)
    if om.ndim == 0:
        return HeraldOutcome(int(k), float(freq))
    return [HeraldOutcome(int(ki), float(fi)) for ki, fi in zip(np.ravel(k), np.ravel(freq))]


def load_jitter_histogram(path) -> JitterDistribution:
    """Two-column text (offset in ps, count); counts normalized on load."""
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("expected two columns: time offset (ps), count")
    return JitterDistribution.from_table(data[:, 0] * 1e-12, data[:, 1])
