"""Frequency grids, joint spectral amplitudes, and Schmidt-mode purity.

The joint spectral amplitude (JSA) f(omega_s, omega_i) of a photon pair is
held on a uniform 2-D grid, with trapezoid quadrature weights folded into
the amplitude matrix M, so Schmidt quantities converge with grid refinement.
The purity is ||M M^H||_F^2 / ||M||_F^4, one Gram product; the Schmidt
spectrum itself is the singular-value decomposition of M. These routines are
the independent oracle for the heralded-state purity engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrequencyGrid",
    "scaled_points",
    "PumpEnvelope",
    "TopHatWindow",
    "GaussianWindow",
    "JointSpectralAmplitude",
    "GridTooNarrowError",
    "FilterOverlapError",
    "build_anticorrelated_jsa",
    "schmidt_purity",
    "schmidt_coefficients",
    "rotated_gaussian_purity",
    "apply_filter",
    "intensity_correlation",
    "JSA_DTYPE",
    "write_jsa_text",
]


class GridTooNarrowError(ValueError):
    """Amplitude has not decayed at the grid boundary; results would be biased."""


class FilterOverlapError(ValueError):
    """Filter window removes all amplitude on the grid."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency grid, symmetric about its center.

    Parameters
    ----------
    center : float
        Center frequency, rad/s.
    span : float
        Full width from first to last sample, rad/s.
    points : int
        Sample count, at least 2. Odd counts place a sample on the center.
    """

    center: float
    span: float
    points: int

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.span > 0:
            raise ValueError("grid span must be positive")

    @property
    def step(self) -> float:
        return self.span / (self.points - 1)

    @property
    def detunings(self) -> np.ndarray:
        return np.linspace(-0.5 * self.span, 0.5 * self.span, self.points)

    @property
    def values(self) -> np.ndarray:
        return self.center + self.detunings

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.points, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def scaled_points(n: int, scale: float) -> int:
    """Odd point count near (n - 1) * scale + 1, at least 5; n itself at scale 1."""
    if scale == 1.0:
        return n
    m = max(4, int(round((n - 1) * scale)))
    if m % 2:
        m += 1
    return m + 1


@dataclass(frozen=True)
class PumpEnvelope:
    """Gaussian pump spectral amplitude exp(-(w - center)^2 / (2 sigma^2)).

    center is the pump (sum) frequency in rad/s; sigma is the amplitude
    std-dev in rad/s.
    """

    sigma: float
    center: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("pump sigma must be positive")

    def amplitude(self, omega) -> np.ndarray:
        x = (np.asarray(omega, dtype=float) - self.center) / self.sigma
        return np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class TopHatWindow:
    """Flat passband of given full width.

    The amplitude response is 1 inside and 0 outside; a sample lying exactly
    on an edge gets sqrt(1/2) so its intensity carries half weight, matching
    the trapezoid rule on a grid that ends at the filter edges.
    """

    center: float
    full_width: float

    def __post_init__(self):
        if not self.full_width > 0:
            raise ValueError("window width must be positive")

    @property
    def half_width(self) -> float:
        return 0.5 * self.full_width

    def amplitude(self, omega) -> np.ndarray:
        x = np.abs(np.asarray(omega, dtype=float) - self.center)
        edge_tol = 1e-9 * self.full_width
        a = np.where(x < self.half_width - edge_tol, 1.0, 0.0)
        return np.where(np.abs(x - self.half_width) <= edge_tol, math.sqrt(0.5), a)


@dataclass(frozen=True)
class GaussianWindow:
    """Gaussian amplitude acceptance exp(-(w - center)^2 / (2 sigma^2))."""

    center: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("window sigma must be positive")

    def amplitude(self, omega) -> np.ndarray:
        x = (np.asarray(omega, dtype=float) - self.center) / self.sigma
        return np.exp(-0.5 * x * x)


def _grid_norm(signal_grid: FrequencyGrid, herald_grid: FrequencyGrid, amplitude) -> float:
    ws = signal_grid.trapezoid_weights()
    wh = herald_grid.trapezoid_weights()
    return float(np.sqrt(np.einsum("i,j,ij->", ws, wh, np.abs(amplitude) ** 2)))


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Complex pair amplitude on the (signal, herald) grid, unit L2 norm.

    amplitude[i, j] is f(signal_grid.values[i], herald_grid.values[j]); the
    norm is taken with trapezoid grid weights.
    """

    signal_grid: FrequencyGrid
    herald_grid: FrequencyGrid
    amplitude: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitude, dtype=complex)
        if a.shape != (self.signal_grid.points, self.herald_grid.points):
            raise ValueError("amplitude shape does not match grids")
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitude contains non-finite entries")
        object.__setattr__(self, "amplitude", a)
        norm = _grid_norm(self.signal_grid, self.herald_grid, a)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"amplitude not normalized (norm={norm:.3e})")

    def joint_intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2

    def weighted_matrix(self) -> np.ndarray:
        """Amplitude with sqrt quadrature weights folded in; SVD-ready."""
        ws = np.sqrt(self.signal_grid.trapezoid_weights())
        wh = np.sqrt(self.herald_grid.trapezoid_weights())
        return ws[:, None] * self.amplitude * wh[None, :]

    def signal_marginal(self) -> np.ndarray:
        """Intensity marginal over the herald axis (density in the signal variable)."""
        wh = self.herald_grid.trapezoid_weights()
        return self.joint_intensity() @ wh

    def herald_marginal(self) -> np.ndarray:
        ws = self.signal_grid.trapezoid_weights()
        return ws @ self.joint_intensity()


def _normalized(signal_grid, herald_grid, amplitude) -> JointSpectralAmplitude:
    norm = _grid_norm(signal_grid, herald_grid, amplitude)
    if norm <= 0 or not math.isfinite(norm):
        raise ValueError("cannot normalize zero or non-finite amplitude")
    return JointSpectralAmplitude(signal_grid, herald_grid, amplitude / norm)


def default_grid(center: float, sigma: float) -> FrequencyGrid:
    """513 points spanning +/-6 sigma, the package-wide default discretization."""
    return FrequencyGrid(center, 12.0 * sigma, 513)


def build_anticorrelated_jsa(
    pump: PumpEnvelope,
    signal_grid: FrequencyGrid,
    herald_grid: FrequencyGrid,
    phase_matching_sigma: float | None = None,
) -> JointSpectralAmplitude:
    """JSA governed by the pump envelope alone: f ~ exp(-(ws + wi - wp)^2 / 2 sigma^2).

    Phase matching is flat by default (broadband crystal); passing
    phase_matching_sigma applies an optional Gaussian factor in the difference
    frequency ws - wi. The result is real, non-negative, and unit norm.

    Raises GridTooNarrowError when the envelope has not decayed below 1e-6 of
    its on-grid peak at the extreme reachable sum (or difference) detunings,
    which signals truncation bias.
    """
    ws = signal_grid.values[:, None]
    wh = herald_grid.values[None, :]
    amp = pump.amplitude(ws + wh)
    if phase_matching_sigma is not None:
        if not phase_matching_sigma > 0:
            raise ValueError("phase matching sigma must be positive")
        d = (ws - wh) / phase_matching_sigma
        amp = amp * np.exp(-0.5 * d * d)
    peak = float(amp.max())
    sum_offset = signal_grid.center + herald_grid.center - pump.center
    reach = 0.5 * (signal_grid.span + herald_grid.span)
    # the envelope is 1-D in the sum detuning; test its own domain edges
    edge = max(
        pump.amplitude(pump.center + sum_offset + reach),
        pump.amplitude(pump.center + sum_offset - reach),
    )
    if phase_matching_sigma is not None:
        diff_offset = signal_grid.center - herald_grid.center
        lo = (diff_offset - reach) / phase_matching_sigma
        hi = (diff_offset + reach) / phase_matching_sigma
        edge = max(edge, math.exp(-0.5 * lo * lo), math.exp(-0.5 * hi * hi))
    if edge > 1e-6 * peak:
        raise GridTooNarrowError(f"envelope at grid edge is {edge / peak:.2e} of peak (limit 1e-6)")
    return _normalized(signal_grid, herald_grid, amp)


def schmidt_coefficients(jsa: JointSpectralAmplitude) -> np.ndarray:
    """Schmidt weights lambda_k (squared singular values, normalized to sum 1)."""
    s = np.linalg.svdvals(jsa.weighted_matrix())
    lam = s * s
    return lam / lam.sum()


def schmidt_purity(jsa: JointSpectralAmplitude) -> float:
    """Spectral purity Tr(rho^2) = sum_k lambda_k^2 of the reduced state.

    The reduced state is the Gram matrix G = M M^H of the weighted amplitude,
    up to its trace, so sum_k lambda_k^2 = ||G||_F^2 / Tr(G)^2 without the
    singular values themselves.
    """
    m = jsa.weighted_matrix()
    gram = m @ m.conj().T
    return float(np.vdot(gram, gram).real / np.trace(gram).real ** 2)


def schmidt_number(jsa: JointSpectralAmplitude) -> float:
    """Effective mode count K = 1 / sum lambda_k^2 (inverse of the purity)."""
    return 1.0 / schmidt_purity(jsa)


def rotated_gaussian_purity(sum_sigma: float, difference_sigma: float) -> float:
    """Closed-form Schmidt purity of a two-Gaussian correlated JSA.

    For f ~ exp(-(ws+wi-wp)^2/(2 a^2)) * exp(-(ws-wi-d0)^2/(2 b^2)) the
    principal axes lie along the +/-45 degree diagonals with amplitude
    std-devs a/sqrt(2) and b/sqrt(2), and the Schmidt spectrum is geometric
    with purity 2ab/(a^2 + b^2). Equal widths give a separable (purity 1)
    state; strong anticorrelation (a << b) gives ~2a/b.
    """
    if not (sum_sigma > 0 and difference_sigma > 0):
        raise ValueError("sigmas must be positive")
    return 2.0 * sum_sigma * difference_sigma / (sum_sigma**2 + difference_sigma**2)


def apply_filter(
    jsa: JointSpectralAmplitude, window, axis: str = "signal"
) -> tuple[JointSpectralAmplitude, float]:
    """Apply a spectral window along one axis and renormalize.

    Returns (filtered JSA, transmitted probability), the probability being
    the L2 norm squared of the windowed amplitude before renormalization.
    Raises FilterOverlapError when the window removes everything.
    """
    if axis == "signal":
        w = window.amplitude(jsa.signal_grid.values)[:, None]
    elif axis == "herald":
        w = window.amplitude(jsa.herald_grid.values)[None, :]
    else:
        raise ValueError("axis must be 'signal' or 'herald'")
    amp = jsa.amplitude * w
    norm = _grid_norm(jsa.signal_grid, jsa.herald_grid, amp)
    transmitted = norm * norm
    if transmitted <= 1e-300:
        raise FilterOverlapError("window does not overlap the amplitude")
    return JointSpectralAmplitude(jsa.signal_grid, jsa.herald_grid, amp / norm), transmitted


def intensity_correlation(jsa: JointSpectralAmplitude) -> float:
    """Pearson correlation of (omega_s, omega_i) under the joint intensity.

    NaN when either marginal has zero variance, e.g. all its weight on one
    grid point.
    """
    ws = jsa.signal_grid.trapezoid_weights()
    wh = jsa.herald_grid.trapezoid_weights()
    p = ws[:, None] * jsa.joint_intensity() * wh[None, :]
    p = p / p.sum()
    xs = jsa.signal_grid.detunings
    xh = jsa.herald_grid.detunings
    ps = p.sum(axis=1)
    ph = p.sum(axis=0)
    ms = float(xs @ ps)
    mh = float(xh @ ph)
    vs = float(((xs - ms) ** 2) @ ps)
    vh = float(((xh - mh) ** 2) @ ph)
    if vs == 0.0 or vh == 0.0:
        return float("nan")
    cov = float((xs - ms) @ p @ (xh - mh))
    return cov / math.sqrt(vs * vh)


# joint_spectrum*.npy: one element per grid point, indexed (signal, herald); the two
# angular frequencies (rad/s) and the amplitude's parts, all at full precision
JSA_DTYPE = np.dtype([
    ("omega_s", np.float64),
    ("omega_i", np.float64),
    ("re", np.float64),
    ("im", np.float64),
])


# the name is older than the .npy format; the benchmark's per-layer metrics are keyed on it
def write_jsa_text(jsa: JointSpectralAmplitude, path) -> None:
    """The JSA as the bytes np.save writes of a (signal, herald) array of JSA_DTYPE rows.

    The file is written to exactly path (np.save on a bare path would add
    ".npy"). Read it back with np.load(path, allow_pickle=False).
    """
    rows = np.empty(jsa.amplitude.shape, dtype=JSA_DTYPE)
    rows["omega_s"] = jsa.signal_grid.values[:, None]
    rows["omega_i"] = jsa.herald_grid.values[None, :]
    rows["re"] = jsa.amplitude.real
    rows["im"] = jsa.amplitude.imag
    with open(path, "wb") as fh:
        np.save(fh, rows, allow_pickle=False)
