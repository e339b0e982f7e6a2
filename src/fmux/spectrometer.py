"""Time-of-flight herald spectrometer.

Frequency maps to arrival time through the grating dispersion (an affine,
increasing map: the dispersion is positive), the time tag is quantized by the
TDC bin, and analog detector jitter, a Gaussian given by its one standard
deviation, smears the tag. Frequencies outside the calibrated span are
refused. One call of sample_herald_event tags an array of idlers; the
feed-forward stream calls it block by block, and since a generator's
consecutive normal draws equal one whole draw, the blocks tag as one call
over the whole column would.

The instrument itself is built from the configuration
(ScenarioConfig.build_spectrometer). Its measured jitter model carries the
detector timing jitter MEASURED_JITTER_TIME_STD, whose frequency width at the
calibration dispersion (MEASURED_JITTER_FREQ_STD) is much wider than the
quoted resolution figure and reproduces the measured heralded-photon purity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults

__all__ = [
    "SpectrometerModel",
    "FrequencyRangeError",
    "frequency_to_arrival_time",
    "time_to_bin",
    "sample_herald_event",
    "MEASURED_JITTER_FREQ_STD",
    "MEASURED_JITTER_TIME_STD",
    "JITTER_REACH_SIGMAS",
]

# Effective Gaussian width of the measured arrival-time jitter: 45 GHz of
# frequency std at the 16 ps/GHz calibration dispersion, i.e. 720 ps in time.
# Calibrated against the measured heralded-photon purity; the quoted resolution
# figure is a different (bin-limited) quantity. The jitter is a detector time
# width, so its frequency width scales as 1 / dispersion.
MEASURED_JITTER_FREQ_STD = defaults.TWO_PI * 45e9  # rad/s, at the calibration dispersion
MEASURED_JITTER_DISPERSION_PS_PER_GHZ = 16.0
# the same expression as ScenarioConfig.build_spectrometer, so 16 ps/GHz is bit-equal
MEASURED_JITTER_TIME_STD = MEASURED_JITTER_FREQ_STD * (
    MEASURED_JITTER_DISPERSION_PS_PER_GHZ / 1e12 / (defaults.TWO_PI * 1e9)
)  # s


# jitter offsets beyond this many stds carry negligible probability (about 1e-15)
JITTER_REACH_SIGMAS = 8.0


class FrequencyRangeError(ValueError):
    """Frequency outside the calibrated span of the instrument."""


@dataclass(frozen=True)
class SpectrometerModel:
    """Dispersion map plus digitizer and Gaussian jitter; immutable.

    dispersion is in s per rad/s and positive, tdc_bin and the arrival-time
    jitter std jitter_std in s, reference_frequency and calibrated_span in
    rad/s. calibrated_span bounds accepted input frequencies around the
    reference; math.inf accepts every frequency.
    """

    dispersion: float
    tdc_bin: float
    jitter_std: float
    reference_frequency: float
    calibrated_span: float

    def __post_init__(self):
        if not self.dispersion > 0:
            raise ValueError("dispersion must be positive")
        if not self.tdc_bin > 0:
            raise ValueError("tdc_bin must be positive")
        if not self.jitter_std >= 0:
            raise ValueError("jitter_std must be non-negative")

    @property
    def bin_frequency_step(self) -> float:
        """Frequency width of one TDC bin, rad/s."""
        return self.tdc_bin / self.dispersion

    def frequency_std(self) -> float:
        """Jitter-induced frequency uncertainty std, rad/s (bin quantization excluded)."""
        return self.jitter_std / self.dispersion

    def bin_center_frequency(self, index) -> np.ndarray:
        return self.reference_frequency + np.asarray(index) * self.bin_frequency_step


def _check_range(model: SpectrometerModel, omega) -> None:
    det = np.abs(np.asarray(omega, dtype=float) - model.reference_frequency)
    if np.any(det > 0.5 * model.calibrated_span * (1 + 1e-12)):
        raise FrequencyRangeError("frequency outside the calibrated span")


def frequency_to_arrival_time(model: SpectrometerModel, omega) -> np.ndarray:
    """Affine dispersion map t = dispersion * (omega - reference)."""
    _check_range(model, omega)
    return model.dispersion * (np.asarray(omega, dtype=float) - model.reference_frequency)


def time_to_bin(model: SpectrometerModel, t) -> np.ndarray:
    """Bin index of an arrival time; bin centers align to t = 0, edge ties round toward 0."""
    dt = np.asarray(t, dtype=float) / model.tdc_bin
    k = np.sign(dt) * np.ceil(np.abs(dt) - 0.5)
    return k.astype(int)


def sample_herald_event(
    model: SpectrometerModel, omega_i, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw jitter, map to time, digitize, and infer the herald frequency.

    Returns (bins, herald_frequency): the TDC bin of each idler omega_i
    (scalar or array) and the bin center it implies, shaped like omega_i.
    Draws one jitter sample per idler; deterministic for a fixed generator
    state.
    """
    om = np.asarray(omega_i, dtype=float)
    t = frequency_to_arrival_time(model, om) + rng.normal(0.0, model.jitter_std, size=om.shape)
    bins = time_to_bin(model, t)
    return bins, model.bin_center_frequency(bins)
