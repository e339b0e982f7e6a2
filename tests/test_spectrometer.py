import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmux import defaults
from fmux.scenarios import ConfigError, load_config
from fmux.spectral import FrequencyGrid
from fmux.spectrometer import (
    MEASURED_JITTER_FREQ_STD,
    FrequencyRangeError,
    JitterDistribution,
    frequency_to_arrival_time,
    sample_herald_event,
    time_to_bin,
)
from oracles import conditional_outcome_distribution, jitter_cdf

GHZ = defaults.TWO_PI * 1e9

CFG = load_config("lut-dump")
MEASURED = CFG.build_spectrometer("measured")
REF = MEASURED.reference_frequency


def quiet_spectrometer(sigma_t=0.0):
    """The configured instrument with Gaussian jitter sigma_t and no span limit."""
    return replace(MEASURED, jitter=JitterDistribution.gaussian(sigma_t), calibrated_span=None)


def test_dispersion_map_round_trip():
    # affine: the reference arrives at t = 0 and the slope is the dispersion (16 ps/GHz)
    m = quiet_spectrometer()
    detuning = np.linspace(-50.0, 50.0, 7) * GHZ
    t = frequency_to_arrival_time(m, REF + detuning)
    assert frequency_to_arrival_time(m, REF) == 0.0
    np.testing.assert_allclose(t, m.dispersion * detuning, rtol=1e-12, atol=1e-24)
    np.testing.assert_allclose(t[-1], 50.0 * 16e-12, rtol=1e-12)
    np.testing.assert_allclose(REF + t / m.dispersion, REF + detuning, rtol=1e-12)


def test_bin_frequency_step():
    # 33 ps per bin at 16 ps/GHz of dispersion
    m = quiet_spectrometer()
    assert math.isclose(m.bin_frequency_step, (33.0 / 16.0) * GHZ, rel_tol=1e-12)


def test_time_to_bin_centers_and_edges():
    m = quiet_spectrometer()
    b = m.tdc_bin
    t = np.array([0.0, 0.49 * b, 0.5 * b, 0.51 * b, -0.5 * b, -0.51 * b, 3.2 * b])
    k = time_to_bin(m, t)
    assert list(k) == [0, 0, 0, 1, 0, -1, 3]  # edge ties round toward t0


@given(st.floats(-200.0, 200.0))
def test_bin_quantization_error_bounded(detuning_ghz):
    m = quiet_spectrometer()
    omega = REF + detuning_ghz * GHZ
    k = int(time_to_bin(m, frequency_to_arrival_time(m, omega)))
    back = float(m.bin_center_frequency(k))
    assert abs(back - omega) <= 0.5 * m.bin_frequency_step * (1 + 1e-9)


def test_zero_jitter_outcome_is_deterministic():
    m = quiet_spectrometer()
    omega_i = REF + 17.3 * GHZ
    bins, p, freqs = conditional_outcome_distribution(m, omega_i)
    assert p.max() == 1.0
    k = bins[int(np.argmax(p))]
    assert abs(freqs[int(np.argmax(p))] - omega_i) <= 0.5 * m.bin_frequency_step
    assert k == int(time_to_bin(m, float(frequency_to_arrival_time(m, omega_i))))


def test_outcome_distribution_normalized_and_centered():
    m = quiet_spectrometer(sigma_t=300e-12)
    omega_i = REF - 42.0 * GHZ
    bins, p, freqs = conditional_outcome_distribution(m, omega_i)
    assert abs(p.sum() - 1.0) < 1e-12
    mean = float(p @ freqs)
    assert abs(mean - omega_i) <= 0.5 * m.bin_frequency_step


def test_outcome_distribution_width_tracks_jitter():
    omega_i = REF
    for sigma_t in (150e-12, 720e-12):
        m = quiet_spectrometer(sigma_t=sigma_t)
        _, p, freqs = conditional_outcome_distribution(m, omega_i)
        mean = float(p @ freqs)
        std = math.sqrt(float(p @ (freqs - mean) ** 2))
        expected = m.frequency_std()
        # quantization adds bin_step^2/12 of variance
        quant = m.bin_frequency_step**2 / 12.0
        assert abs(std - math.sqrt(expected**2 + quant)) < 0.02 * expected


def test_undersized_bin_set_rejected():
    m = quiet_spectrometer(sigma_t=300e-12)
    with pytest.raises(ValueError):
        conditional_outcome_distribution(m, REF, bins=np.array([0, 1]))


def test_sample_herald_event_reproducible():
    m = MEASURED
    omega = REF + np.linspace(-20, 20, 64) * GHZ
    bins_a, freq_a = sample_herald_event(m, omega, np.random.default_rng(3))
    bins_b, freq_b = sample_herald_event(m, omega, np.random.default_rng(3))
    assert bins_a.shape == freq_a.shape == omega.shape
    assert bins_a.tolist() == bins_b.tolist()
    assert freq_a.tolist() == freq_b.tolist()
    assert freq_a.tolist() == m.bin_center_frequency(bins_a).tolist()
    one_bin, one_freq = sample_herald_event(m, float(omega[0]), np.random.default_rng(3))
    assert int(one_bin) == bins_a[0]  # the first idler takes the first jitter draw
    assert float(one_freq) == float(m.bin_center_frequency(int(one_bin)))


def test_calibrated_span_guard():
    m = MEASURED
    assert m.calibrated_span == 600.0 * GHZ  # the sampled idler span
    frequency_to_arrival_time(m, REF + 0.49 * m.calibrated_span)
    with pytest.raises(FrequencyRangeError):
        frequency_to_arrival_time(m, REF + 0.51 * m.calibrated_span)


def test_gaussian_jitter_stats():
    j = JitterDistribution.gaussian(720e-12)
    assert j.time_std() == 720e-12
    assert abs(jitter_cdf(j.sigma_t, 0.0) - 0.5) < 1e-12
    one_sigma = jitter_cdf(j.sigma_t, 720e-12) - jitter_cdf(j.sigma_t, -720e-12)
    assert abs(one_sigma - 0.6826894921) < 1e-6


def test_factory_interpretations():
    # nominal reads the quoted resolution as a Gaussian FWHM
    fwhm_to_std = 2.0 * math.sqrt(2.0 * math.log(2.0))
    nominal = CFG.build_spectrometer("nominal")
    assert math.isclose(nominal.frequency_std() * fwhm_to_std, 10.0 * GHZ, rel_tol=1e-12)
    coarse = replace(CFG, params={**CFG.params, "spectrometer.nominal_resolution_ghz": 40.0})
    assert math.isclose(coarse.build_spectrometer("nominal").frequency_std(),
                        4.0 * nominal.frequency_std(), rel_tol=1e-12)
    assert abs(MEASURED.frequency_std() - MEASURED_JITTER_FREQ_STD) < 1e-3
    assert CFG.build_spectrometer("none").frequency_std() == 0.0
    assert CFG.build_spectrometer().jitter == MEASURED.jitter  # configured jitter_model
    bad = replace(CFG, params={**CFG.params, "spectrometer.jitter_model": "hwhm"})
    with pytest.raises(ConfigError, match="spectrometer.jitter_model"):
        bad.validate()


def test_herald_grid_centered_and_odd():
    # bins -64..64 center on the reference and step by one bin width
    m = quiet_spectrometer()
    centers = m.bin_center_frequency(np.arange(-64, 65))
    grid = FrequencyGrid(m.reference_frequency, 128 * m.bin_frequency_step, 129)
    assert centers[64] == m.reference_frequency
    np.testing.assert_allclose(centers, grid.values, rtol=1e-15)
