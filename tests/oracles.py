"""Reference implementations the package no longer carries, for tests only.

The spectrometer's conditional outcome law P(omega_H | omega_i): the package
only samples herald events (spectrometer.sample_herald_event); this is the
law those samples follow, integrated with the Gaussian CDF over each TDC bin.
Its tests in test_spectrometer.py pin it down, and the stream's routed
fraction in test_scenarios.py is checked against it.

The feed-forward stream sampled whole column by whole column
(whole_column_stream): the block sampler in scenarios must give the same
columns, histograms, edges and fractions from the same generator, bit for
bit, and its bin table the oracle's whole herald frequency, shift and
routed columns. Its correlations come from np.corrcoef over whole columns,
which the sampler's block sums match only to rounding.

A whole density matrix folded into the two parity blocks the package's
DiscretizedDensityMatrix holds (parity_fold): the package builds only the
blocks, so tests that hand-build a whole rho fold it here, by an orthogonal
change of basis rather than by slicing.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy import special

from fmux import defaults, serrodyne
from fmux.spectrometer import (
    JITTER_REACH_SIGMAS,
    SpectrometerModel,
    frequency_to_arrival_time,
    sample_herald_event,
    time_to_bin,
)


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
        reach = JITTER_REACH_SIGMAS * model.jitter_std + model.tdc_bin
        k_lo = time_to_bin(model, t_center - reach)
        k_hi = time_to_bin(model, t_center + reach)
        bins = np.arange(int(k_lo), int(k_hi) + 1)
    else:
        bins = np.asarray(bins, dtype=int)
    sigma_t = model.jitter_std
    lo = (bins - 0.5) * model.tdc_bin - t_center
    hi = (bins + 0.5) * model.tdc_bin - t_center
    p = jitter_cdf(sigma_t, hi) - jitter_cdf(sigma_t, lo)
    total = p.sum()
    if total < 1.0 - 1e-6:
        raise ValueError("bin set does not cover the outcome distribution")
    return bins, p / total, model.bin_center_frequency(bins)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def whole_column_stream(cfg) -> SimpleNamespace:
    """The feed-forward stream as one numpy expression per whole column.

    Every temporary spans all pulses; the histograms come from
    np.histogram2d and the correlations from np.corrcoef. It keeps a whole
    column per pulse of the int64 herald bins, the measured herald
    frequency, the applied shift and the routed flag. Every StreamResult
    field but r_unshifted and r_shifted is the sampler's bit for bit.
    """
    pulses = cfg.get("run.stream_pulses")
    pump = cfg.pump()
    window = cfg.signal_filter()
    spect = cfg.build_spectrometer(cfg.get("feedforward.stream_spectrometer"))
    lut = serrodyne.build_lut(spect, cfg.shifter(), span=cfg._ghz("feedforward.herald_span_ghz"))
    herald_ref = spect.reference_frequency
    half_span = cfg._ghz("feedforward.idler_sample_span_ghz") / 2.0
    eta_s = cfg.get("statistics.eta_signal")
    eta_h = cfg.get("statistics.eta_herald")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    idler = herald_ref + rng.uniform(-half_span, half_span, size=pulses)
    sum_detuning = rng.normal(0.0, pump.sigma / math.sqrt(2.0), size=pulses)
    signal = pump.center + sum_detuning - idler

    bins, herald_meas = sample_herald_event(spect, idler, rng)
    applied_hz, routed = lut.route(bins)

    shifted_signal = signal + defaults.TWO_PI * applied_hz
    in_filter = np.abs(shifted_signal - window.center) <= window.half_width
    passed = routed & in_filter

    herald_click = rng.random(pulses) < eta_h
    signal_click = (rng.random(pulses) < eta_s) & passed

    bins_n = cfg.get("run.histogram_bins")
    h_all = herald_meas - herald_ref
    s_all = signal - window.center
    edge = max(half_span, np.abs(h_all).max(), np.abs(s_all).max()) * 1.0001
    full_edges = np.linspace(-edge, edge, bins_n + 1)
    unshifted_hist = np.histogram2d(h_all, s_all, bins=(full_edges, full_edges))[0]
    herald_half = cfg._ghz("feedforward.herald_span_ghz") / 2.0
    shifted_edges = (
        np.linspace(-herald_half, herald_half, bins_n + 1),
        np.linspace(-window.half_width, window.half_width, bins_n + 1),
    )
    h_passed = h_all[passed]
    s_passed = (shifted_signal - window.center)[passed]
    shifted_hist = np.histogram2d(h_passed, s_passed, bins=shifted_edges)[0]

    n_routed = int(routed.sum())
    return SimpleNamespace(
        pulses=pulses,
        signal_frequency=signal,
        idler_frequency=idler,
        herald_bin=bins,
        herald_frequency=herald_meas,
        applied_shift_hz=applied_hz,
        routed=routed,
        passed=passed,
        herald_click=herald_click,
        signal_click=signal_click,
        unshifted_hist=unshifted_hist,
        unshifted_edges=(full_edges, full_edges),
        shifted_hist=shifted_hist,
        shifted_edges=shifted_edges,
        r_unshifted=_pearson(h_all, s_all),
        r_shifted=_pearson(h_passed, s_passed),
        in_range_fraction=n_routed / pulses,
        pass_fraction_in_range=float(passed.sum() / n_routed) if n_routed else float("nan"),
    )


def parity_fold(grid, rho) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd): the parity blocks of a real, symmetric and even rho on grid.

    The columns of the orthogonal Q are, over x >= 0 ascending, the center
    node d_0 (odd n only) and (d_x + d_-x) / sqrt(2) for x > 0, then (d_x -
    d_-x) / sqrt(2) for x > 0. B = Q^T sqrt(w) rho sqrt(w) Q is block
    diagonal for an even rho, and its two diagonal blocks are returned, each
    symmetrized as (B + B^T) / 2.
    """
    n = grid.points
    lo, r = n // 2, n % 2  # lo nodes have x < 0
    pos = np.arange(lo + r, n)  # x > 0, ascending
    neg = n - 1 - pos  # their mirrors -x
    pairs = np.arange(lo)
    s = 1.0 / math.sqrt(2.0)
    even, odd = np.zeros((n, lo + r)), np.zeros((n, lo))
    if r:
        even[lo, 0] = 1.0
    even[pos, r + pairs] = even[neg, r + pairs] = s
    odd[pos, pairs], odd[neg, pairs] = s, -s
    sw = np.sqrt(grid.trapezoid_weights())
    weighted = sw[:, None] * np.asarray(rho, dtype=np.float64) * sw[None, :]
    blocks = (q.T @ weighted @ q for q in (even, odd))
    return tuple(0.5 * (b + b.T) for b in blocks)
