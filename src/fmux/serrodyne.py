"""Electro-optic serrodyne frequency shift and the feed-forward lookup table.

The modulator driven at nu_rf with amplitude v0 imprints the temporal phase
theta * sin(2 pi nu_rf t) with theta = pi v0 / V_PI, the pulse centred on a
zero crossing at t = 0. Around it the phase is linear in time and translates
the spectrum by delta_nu = pi (v0 / V_PI) nu_rf. Drive amplitudes are in
units of the half-wave voltage, V_PI = 1 V. The lookup table holds one row
per herald time bin, as columns: the drive voltage and shift that land the
conditional signal center on the output filter, and whether the drive
reaches it. Bins needing more than the largest available shift are marked
out of range rather than rejected; FeedForwardLUT.route turns an array of
measured bins into the shifts applied, all at once.

Spectra here follow the exp(-i 2 pi nu t) analysis convention, so a positive
delta_nu moves a spectrum toward positive frequencies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .spectrometer import JITTER_REACH_SIGMAS, SpectrometerModel

__all__ = [
    "V_PI",
    "ShifterModel",
    "FeedForwardLUT",
    "OverdriveError",
    "QuadratureConvergenceError",
    "shift_magnitude",
    "voltage_for_shift",
    "max_shift",
    "lut_half_width",
    "build_lut",
    "apply_temporal_phase",
    "phase_jitter_purity",
    "write_lut_text",
]


class OverdriveError(ValueError):
    """Requested drive voltage exceeds the configured maximum."""


class QuadratureConvergenceError(RuntimeError):
    """Quadrature refinement moved the result more than the contract allows."""


# half-wave voltage, V: the unit of every drive amplitude
V_PI = 1.0

# Gauss-Hermite orders of the drive-timing-jitter quadrature; refinement adds
# 32 timing nodes and doubles the pulse-time nodes
PHASE_JITTER_NODES = 64
PHASE_TIME_NODES = 128


@dataclass(frozen=True)
class ShifterModel:
    """EOM drive parameters: RF rate, drive limit v0_max (V, in units of V_PI), timing jitter."""

    nu_rf: float
    v0_max: float
    sigma_jitter: float = 0.0

    def __post_init__(self):
        if not self.nu_rf > 0:
            raise ValueError("nu_rf must be positive")
        if self.v0_max < 0 or self.sigma_jitter < 0:
            raise ValueError("v0_max and sigma_jitter must be non-negative")


def shift_magnitude(v0: float, model: ShifterModel) -> float:
    """Signed serrodyne shift delta_nu = pi (v0 / V_PI) nu_rf, in Hz."""
    if abs(v0) > model.v0_max * (1.0 + 1e-12):
        raise OverdriveError(f"|v0|={abs(v0):.3g} V exceeds v0_max={model.v0_max:.3g} V")
    return math.pi * (v0 / V_PI) * model.nu_rf


def voltage_for_shift(delta_nu: float, model: ShifterModel) -> float:
    """Drive voltage producing a given shift; inverse of shift_magnitude."""
    return delta_nu * V_PI / (math.pi * model.nu_rf)


def max_shift(model: ShifterModel) -> float:
    """Largest available |delta_nu| in Hz."""
    return math.pi * (model.v0_max / V_PI) * model.nu_rf


@dataclass(frozen=True)
class FeedForwardLUT:
    """Drive settings for herald bins first_bin, first_bin + 1, ..., one array row per bin.

    herald_frequency is in rad/s, required_shift in Hz, v0 in volts clipped
    to the drive limit; in_range flags the rows the drive can correct.
    """

    first_bin: int
    herald_frequency: np.ndarray
    required_shift: np.ndarray
    v0: np.ndarray
    in_range: np.ndarray
    reference_frequency: float  # rad/s, also the filter center

    @property
    def bins(self) -> np.ndarray:
        """Herald bin of each row."""
        return self.first_bin + np.arange(self.in_range.size)

    @functools.cached_property
    def _padded_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(shift_hz, routed) per row, plus an unrouted zero row on each side; built once."""
        return np.pad(np.where(self.in_range, self.required_shift, 0.0), 1), np.pad(self.in_range, 1)

    def route(self, bins) -> tuple[np.ndarray, np.ndarray]:
        """(shift_hz, routed) for each measured herald bin.

        A bin outside the table or beyond the drive range is not routed and
        gets a shift of 0.
        """
        # a padded row on each side stands for every bin below or above the table
        row = np.clip(np.asarray(bins) - (self.first_bin - 1), 0, self.in_range.size + 1)
        shift, routed = self._padded_rows
        return shift[row], routed[row]


def lut_half_width(spectrometer: SpectrometerModel, span: float) -> float:
    """The span's half plus the jitter's reach, in TDC bins; build_lut tabulates its ceiling."""
    reach = span / 2.0 + JITTER_REACH_SIGMAS * spectrometer.jitter_std / spectrometer.dispersion
    return reach / spectrometer.bin_frequency_step + 0.5


def build_lut(spectrometer: SpectrometerModel, model: ShifterModel, span: float) -> FeedForwardLUT:
    """Table of drive settings for every herald bin reachable within the span.

    The filter sits at the reference, degeneracy, and the conditional signal
    center for a herald measured at omega_H at reference - (omega_H -
    reference), so the corrective shift is +(omega_H - reference). Rows whose shift exceeds the drive limit are
    stored clipped and flagged out of range; route leaves their events
    unshifted, and the output filter discards them downstream.
    """
    k_max = int(math.ceil(lut_half_width(spectrometer, span)))
    omega_h = spectrometer.bin_center_frequency(np.arange(-k_max, k_max + 1))
    shift_hz = (omega_h - spectrometer.reference_frequency) / defaults.TWO_PI
    in_range = np.abs(shift_hz) <= max_shift(model) * (1.0 + 1e-12)
    v0 = np.clip(voltage_for_shift(shift_hz, model), -model.v0_max, model.v0_max)
    return FeedForwardLUT(-k_max, omega_h, shift_hz, v0, in_range,
                          spectrometer.reference_frequency)


def write_lut_text(lut: FeedForwardLUT, path) -> None:
    """Columnar export: bin index, herald frequency (GHz), v0 (V), in-range flag."""
    with open(path, "w") as fh:
        fh.write("# feed-forward lookup table\n")
        ref = lut.reference_frequency  # the filter center too: the target of every shift
        fh.write(f"# target_center={ref!r} reference={ref!r}\n")
        fh.write("# columns: bin herald_freq_ghz v0_volts in_range\n")
        ghz = (lut.herald_frequency - ref) / (defaults.TWO_PI * 1e9)
        for k, g, v0, flag in zip(lut.bins.tolist(), ghz.tolist(), lut.v0.tolist(),
                                  lut.in_range.tolist()):
            fh.write(f"{k} {g:+.6f} {v0!r} {int(flag)}\n")


def apply_temporal_phase(
    times: np.ndarray, amplitude: np.ndarray, v0: float, model: ShifterModel
) -> np.ndarray:
    """Imprint the drive phase exp(i theta sin(2 pi nu_rf t)) on a time-domain wavepacket.

    The zero crossing at t = 0, where the phase is most nearly linear, locks
    to a pulse centred there. The factor is unit-modulus, so the L2 norm is
    untouched.
    """
    theta = shift_magnitude(v0, model) / model.nu_rf
    phase = theta * np.sin(2.0 * math.pi * model.nu_rf * np.asarray(times, dtype=float))
    return np.asarray(amplitude, dtype=complex) * np.exp(1j * phase)


@functools.lru_cache(maxsize=4)  # the base and refined orders of both variables
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights / sqrt(pi) of order n, built once, read-only."""
    xi, w = np.polynomial.hermite.hermgauss(n)
    w = w / math.sqrt(math.pi)
    xi.flags.writeable = False
    w.flags.writeable = False
    return xi, w


def _jitter_overlap_matrix(sigma: float, delta_nu: float, model: ShifterModel,
                           nx: int, nt: int) -> np.ndarray:
    # Gauss-Hermite in both the timing offset x and the pulse time t;
    # the pulse amplitude is exp(-t^2 sigma^2 / 2) for spectral width sigma.
    xi_x, wx = _hermite_rule(nx)
    x = math.sqrt(2.0) * model.sigma_jitter * xi_x  # arrival delays, s
    xi_t, wt = _hermite_rule(nt)
    t = xi_t / sigma  # |A0|^2 = sigma/sqrt(pi) exp(-sigma^2 t^2)
    theta = delta_nu / model.nu_rf
    omega_rf = 2.0 * math.pi * model.nu_rf
    # phase[t, x] of the drive sampled by a pulse arriving offset by x
    phase = theta * np.sin(omega_rf * (t[:, None] - x[None, :]))
    kernel = np.exp(1j * phase)
    overlap = (kernel.T * wt) @ kernel.conj()
    return wx, overlap


def phase_jitter_purity(sigma: float, delta_nu: float, model: ShifterModel) -> float:
    """Purity of the shifted photon under the model's Gaussian drive-timing jitter.

    The pulse (spectral amplitude std sigma, rad/s) samples the sinusoidal
    drive at a random offset x ~ N(0, model.sigma_jitter^2); purity is the
    double Gauss-Hermite quadrature of the squared overlap of the jittered
    wavepackets. Raises QuadratureConvergenceError if refinement moves the
    result by more than 1e-4.
    """
    if not sigma > 0:
        raise ValueError("photon bandwidth must be positive")

    def evaluate(nj, nt):
        wx, overlap = _jitter_overlap_matrix(sigma, delta_nu, model, nj, nt)
        return float(np.einsum("x,y,xy->", wx, wx, np.abs(overlap) ** 2).real)

    purity = evaluate(PHASE_JITTER_NODES, PHASE_TIME_NODES)
    refined = evaluate(PHASE_JITTER_NODES + 32, 2 * PHASE_TIME_NODES)
    if abs(refined - purity) > 1e-4:
        raise QuadratureConvergenceError(
            f"phase-jitter quadrature moved by {abs(refined - purity):.2e} on refinement"
        )
    return min(purity, 1.0)
