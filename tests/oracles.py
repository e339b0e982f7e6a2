"""The spectrometer's conditional outcome law P(omega_H | omega_i), for tests only.

The package only samples herald events (spectrometer.sample_herald_event);
this is the law those samples follow, integrated with the Gaussian CDF over
each TDC bin. Its tests in test_spectrometer.py pin it down, and the stream's
routed fraction in test_scenarios.py is checked against it.
"""

import math

import numpy as np
from scipy import special

from fmux.spectrometer import SpectrometerModel, frequency_to_arrival_time, time_to_bin


def jitter_cdf(sigma_t: float, t) -> np.ndarray:
    """P(offset <= t) for a Gaussian arrival-time jitter of std sigma_t, s."""
    t = np.asarray(t, dtype=float)
    if sigma_t == 0.0:
        return (t >= 0).astype(float)
    return 0.5 * (1.0 + special.erf(t / (sigma_t * math.sqrt(2.0))))


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
    sigma_t = model.jitter.sigma_t
    lo = (bins - 0.5) * model.tdc_bin - t_center
    hi = (bins + 0.5) * model.tdc_bin - t_center
    p = jitter_cdf(sigma_t, hi) - jitter_cdf(sigma_t, lo)
    total = p.sum()
    if total < 1.0 - 1e-6:
        raise ValueError("bin set does not cover the outcome distribution")
    return bins, p / total, model.bin_center_frequency(bins)
