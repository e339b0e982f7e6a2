"""Conditional signal wavepackets and the heralded-photon purity engine.

A herald measured at omega_H triggers a corrective shift that should land
the signal on the output filter center. The true idler frequency omega_i
differs from omega_H by the spectrometer error, so the shifted signal
wavepacket is displaced by e = omega_H - omega_i; the delay-line dispersion
adds a quadratic spectral phase accumulated before the shift, i.e. in
(x - h) where h is the applied shift. Mixing over the herald window and the
error distribution gives the heralded density matrix, whose purity Tr(rho^2)
this module evaluates two ways:

* purity_integral: the Gaussian envelope lets every pairwise overlap be
  written as a displacement factor times a window integral tabulated on
  midpoint and shift-difference grids, turning the quadruple quadrature into
  O(n^2) table lookups with no approximation beyond the shared
  discretization. It is the one fast enough for sweeps.
* assemble_density_matrix + purity_from_eigenvalues: materialize rho and sum
  its squared eigenvalues. The herald window is symmetric about its mean
  shift h0 with symmetric weights, so the herald mixture of delay-line chirps
  is the diagonal phase exp(i gamma (x - h0)^2) times a real symmetric
  Toeplitz matrix times its conjugate. In the frame that co-moves with that
  phase rho is real symmetric: one real GEMM and a cosine table build it.
  A DiscretizedDensityMatrix holds only that form, exactly symmetric and
  even, and is eigensolved once, during validation; every later
  eigenvalues() call returns that cached spectrum.

Both engines also use the state's parity. The signal grid is symmetric about
the filter center (x -> -x), the error nodes e and their Gaussian weights are
symmetric about 0, and the herald nodes and weights are symmetric about h0,
which enters only through shift differences or |h - h0|. So rho is even
under x -> -x: rho(-x, -y) = rho(x, y). _kernels builds these nodes and
weights exactly symmetric (bit for bit), and keeps or drops each +/-e pair
together, so the parity holds by construction. purity_integral tabulates its
window integrals only at midpoints m >= 0, on the signal grid folded into
its even and odd halves; assemble_density_matrix computes the x >= 0 rows
and mirrors the rest; eigenvalues() diagonalizes the even and odd blocks
separately.

The two agree to well inside the contract tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import defaults
from .serrodyne import QuadratureConvergenceError
from .spectral import FilterOverlapError, FrequencyGrid, PumpEnvelope, TopHatWindow, scaled_points
from .spectrometer import SpectrometerModel

__all__ = [
    "HeraldedStateModel",
    "DiscretizedDensityMatrix",
    "assemble_density_matrix",
    "purity_integral",
    "purity_from_eigenvalues",
    "gvd_parameter",
]

VACUOUS_NORM = 1e-12  # relative squared-norm below which an event is vacuous
JITTER_SPAN_SIGMAS = 4.0  # error nodes span +/- this many jitter frequency stds


def gvd_parameter(dispersion_ps_nm_km: float, length_m: float, wavelength_m: float) -> float:
    """Quadratic-phase coefficient gamma = beta2 * L / 2 in s^2.

    dispersion is the fiber D parameter in ps/(nm km); beta2 =
    -D lambda^2 / (2 pi c). The sign is kept (anomalous dispersion at
    telecom wavelengths gives negative gamma); purity depends only on |gamma|.
    """
    if not (length_m > 0 and wavelength_m > 0):
        raise ValueError("length and wavelength must be positive")
    d_si = dispersion_ps_nm_km * 1e-6  # s/m^2
    beta2 = -d_si * wavelength_m**2 / (2.0 * math.pi * defaults.C_LIGHT)
    return 0.5 * beta2 * length_m


@dataclass(frozen=True)
class HeraldedStateModel:
    """Everything the purity integral needs, immutable.

    pump.center is the sum (energy-conservation) frequency; filter is the
    signal output top-hat; herald_window is the span of heralds accepted by
    the feed-forward stage (its center defines zero shift), weighted flat.
    Grid counts default to 513 signal points across the
    filter support, 129-point quadratures for the herald and error
    variables, the latter spanning +/- JITTER_SPAN_SIGMAS of the
    spectrometer's frequency uncertainty. scaled() coarsens or refines all
    three together.
    """

    pump: PumpEnvelope
    filter: TopHatWindow
    gamma: float
    spectrometer: SpectrometerModel
    herald_window: TopHatWindow
    n_signal: int = 513
    n_herald: int = 129
    n_jitter: int = 129

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        for n in (self.n_signal, self.n_herald, self.n_jitter):
            if n < 3:
                raise ValueError("grids need at least 3 points")

    @property
    def signal_grid(self) -> FrequencyGrid:
        """Signal grid across the filter support, edges on-grid."""
        return FrequencyGrid(self.filter.center, self.filter.full_width, self.n_signal)

    def scaled(self, grid_scale: float) -> HeraldedStateModel:
        """The same model with every quadrature point count scaled by grid_scale."""
        return replace(
            self,
            n_signal=scaled_points(self.n_signal, grid_scale),
            n_herald=scaled_points(self.n_herald, grid_scale),
            n_jitter=scaled_points(self.n_jitter, grid_scale),
        )


def _odd(v: np.ndarray) -> np.ndarray:
    """A grid symmetric about 0 made exactly so: v[::-1] == -v bit for bit.

    np.linspace places its mirrored nodes up to an ulp apart; this moves
    each node by at most that much.
    """
    return 0.5 * (v - v[::-1])


def _error_kernel(model: HeraldedStateModel):
    """Measurement-error nodes e = omega_H - omega_i and normalized weights.

    Uniform grid, exactly symmetric about 0, as are the weights; the density
    is the spectrometer's Gaussian jitter pushed through the dispersion map.
    Zero jitter collapses to a single node at e = 0.
    """
    n = model.n_jitter
    s = model.spectrometer.frequency_std()
    if s == 0.0:
        return np.array([0.0]), np.array([1.0])
    e = _odd(np.linspace(-JITTER_SPAN_SIGMAS * s, JITTER_SPAN_SIGMAS * s, n))
    w = np.exp(-0.5 * (e / s) ** 2) * FrequencyGrid(0.0, e[-1] - e[0], n).trapezoid_weights()
    return e, w / w.sum()


def _herald_kernel(model: HeraldedStateModel):
    """Shift nodes h = omega_H - reference over the accepted window, weights normalized."""
    n = model.n_herald
    win = model.herald_window
    h = np.linspace(-win.half_width, win.half_width, n) + (
        win.center - model.spectrometer.reference_frequency
    )
    w = FrequencyGrid(0.0, win.full_width, n).trapezoid_weights()
    return h, w / w.sum()


def _norms_squared(model: HeraldedStateModel, e: np.ndarray):
    grid = model.signal_grid
    x = grid.detunings
    wx = grid.trapezoid_weights()
    g2 = np.exp(-((x[None, :] - e[:, None]) / model.pump.sigma) ** 2)
    return g2 @ wx, grid


def _drop_vacuous(e, we, norms_sq, free_norm_sq):
    keep = norms_sq > VACUOUS_NORM * free_norm_sq
    if not keep.any():
        raise FilterOverlapError("the filter passes under 1e-12 of every conditional wavepacket")
    if not np.all(keep):
        e, we, norms_sq = e[keep], we[keep], norms_sq[keep]
        we = we / we.sum()
    return e, we, norms_sq


def _fold(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the last axis of a, sampled on a grid symmetric about 0, onto x >= 0.

    Returns (a(x) + a(-x) on x >= 0, a(x) - a(-x) on x > 0); a node at
    x = 0, present for an odd count, is its own mirror and enters the even
    part once.
    """
    n = a.shape[-1]
    lo, r = n // 2, n % 2  # lo nodes have x < 0
    mirror = a[..., lo - 1 :: -1]  # x < 0 reflected onto x[lo + r:] > 0
    even = a[..., lo:].copy()
    even[..., r:] += mirror
    return even, a[..., lo + r :] - mirror


def _kernels(model: HeraldedStateModel):
    """(e, we / norms_sq, h, wh, grid, x): both kernels, the signal grid and its nodes.

    Vacuous error nodes are dropped. e and x are exactly odd and the
    weights exactly even under reversal. The norms are averaged with their
    mirror image, so they are exactly even too: each +/-e pair is kept or
    dropped together, and the kept e stay a symmetric contiguous stretch of
    the uniform grid.
    """
    e, we = _error_kernel(model)
    h, wh = _herald_kernel(model)
    norms_sq, grid = _norms_squared(model, e)
    norms_sq = 0.5 * (norms_sq + norms_sq[::-1])
    free = model.pump.sigma * math.sqrt(math.pi)
    e, we, norms_sq = _drop_vacuous(e, we, norms_sq, free)
    return e, we / norms_sq, h, wh, grid, _odd(grid.detunings)


def _purity_factored(model: HeraldedStateModel) -> float:
    e, q, h, wh, grid, x = _kernels(model)
    ne, n = e.size, x.size  # x[n // 2] == 0 when n is odd
    wx = grid.trapezoid_weights()
    sig = model.pump.sigma

    # window integrals S(m, dh) = sum_x wx exp(-(x-m)^2/sig^2) exp(-2i gamma dh x) at the
    # midpoints m = (e_i + e_j) / 2, i + j indexing linspace(e[0], e[-1], 2 ne - 1). x and
    # wx are symmetric, so S(-m, dh) = conj S(m, dh): only m >= 0 is tabulated. Folding x
    # onto x >= 0, cos pairs with the even part of the envelope and sin with its odd part.
    mids = np.linspace(0.0, e[-1], ne)  # m >= 0: indices ne - 1 ... 2 ne - 2
    env = np.exp(-((x[None, :] - mids[:, None]) / sig) ** 2) * wx  # (m, x)
    even, odd = _fold(env)
    dh = np.arange(h.size) * (h[1] - h[0])  # non-negative differences; |S| is even in dh
    phase = 2.0 * model.gamma * np.outer(x[n // 2 :], dh)  # (x >= 0, dh)
    s_abs_sq = (even @ np.cos(phase)) ** 2 + (odd @ np.sin(phase[n % 2 :])) ** 2  # |S(m, dh)|^2

    # herald-weight autocorrelation c(dh) for dh >= 0
    c = np.correlate(wh, wh, mode="full")[h.size - 1 :]
    scale = np.ones_like(c) * 2.0
    scale[0] = 1.0
    t_half = s_abs_sq @ (c * scale)  # T(m) = sum_dh c |S|^2 over signed dh, for m >= 0
    t_mid = np.concatenate([t_half[:0:-1], t_half])  # T(-m) = T(m)

    gauss = np.exp(-((e[:, None] - e[None, :]) ** 2) / (2.0 * sig * sig))
    kernel = np.outer(q, q) * gauss
    mid_index = np.add.outer(np.arange(ne), np.arange(ne))
    return float(np.sum(kernel * t_mid[mid_index]))


def purity_integral(model: HeraldedStateModel) -> float:
    """Heralded-photon purity Tr(rho^2) by quadrature of squared overlaps.

    The discretized overlap sum is reorganized through window-integral
    tables and runs in well under a second at default grids; use
    model.scaled() for quick scans on coarser grids. The symmetric signal
    grid and error kernel make |S(m)| even in the midpoint m, so the tables
    hold m >= 0 only and are built on the signal grid folded onto x >= 0:
    about a quarter of the GEMM and half the trig table. Every call repeats
    the evaluation with doubled grids and raises QuadratureConvergenceError
    if the value moves by more than 1e-3; the base-grid value is returned.
    """
    value = _purity_factored(model)
    refined = _purity_factored(model.scaled(2.0))  # n -> 2n - 1 on every grid
    if abs(refined - value) > 1e-3:
        raise QuadratureConvergenceError(
            f"purity moved by {abs(refined - value):.2e} on grid doubling"
        )
    return min(float(value), 1.0)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _parity_blocks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a real symmetric a with a[::-1, ::-1] == a.

    In the basis (d_x +/- d_-x) / sqrt(2) of node pairs mirrored about the
    center (plus the center node itself for odd n, in the even block) a is
    block diagonal: even = a(x, y) + a(x, -y) over x, y >= 0, of size
    ceil(n/2), and odd = a(x, y) - a(x, -y) over x, y > 0, of size
    floor(n/2), both exactly symmetric. The spectrum of a is their union.
    """
    n = a.shape[0]
    lo, r = n // 2, n % 2
    even, odd = _fold(a[lo:])  # rows x >= 0
    if r:  # the center couples to each pair as sqrt(2) a(x, 0)
        even[0, 1:] = math.sqrt(2.0) * a[lo, lo + 1 :]
        even[1:, 0] = math.sqrt(2.0) * a[lo + 1 :, lo]
    return even, odd[r:]


@dataclass(frozen=True)
class DiscretizedDensityMatrix:
    """Heralded signal state on the signal grid; validated on construction.

    assemble_density_matrix stores the state in the frame that co-moves with
    the deterministic delay-line phase exp(i gamma (x - h0)^2), h0 the mean
    herald shift, where it is real symmetric. That diagonal unitary leaves
    the diagonal, the spectrum, every |rho_ij| and so every output
    unchanged. The matrix has one form, real (float64), exactly symmetric and
    exactly even (m[::-1, ::-1] == m); a ValueError names what an input lacks.
    """

    grid: FrequencyGrid
    matrix: np.ndarray
    _eigenvalues: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if np.iscomplexobj(self.matrix):
            raise ValueError("density matrix is not real")
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if not m.any():
            raise ValueError("density matrix is zero")
        if not np.array_equal(m, m.T):
            raise ValueError("density matrix is not exactly symmetric")
        if not np.array_equal(m, m[::-1, ::-1]):
            raise ValueError("density matrix is not exactly even under x -> -x")
        trace = float(self.grid.trapezoid_weights() @ np.diag(m))
        if abs(trace - 1.0) > 1e-6:
            raise ValueError(f"trace {trace:.8f} != 1")
        if float(self.eigenvalues().min()) < -1e-8:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    def weighted(self) -> np.ndarray:
        """sqrt(w) rho sqrt(w): the matrix whose spectrum is the state's.

        The weights are symmetric, so it is exactly symmetric and even, as rho is.
        """
        sw = np.sqrt(self.grid.trapezoid_weights())
        return self.matrix * np.outer(sw, sw)

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of weighted(); solved on first call, then cached read-only.

        Its even and odd parity blocks are solved (about a quarter of the
        flops of one full solve) and the two spectra merged.
        """
        if self._eigenvalues is None:
            from scipy import linalg  # loaded on first use: config-only runs never need it

            blocks = _parity_blocks(self.weighted())
            lam = np.sort(np.concatenate([linalg.eigvalsh(b) for b in blocks]))
            lam.flags.writeable = False
            object.__setattr__(self, "_eigenvalues", lam)
        return self._eigenvalues


def assemble_density_matrix(model: HeraldedStateModel) -> DiscretizedDensityMatrix:
    """Mix the conditional wavepackets over the herald window and error kernel.

    rho factorizes into (error mixture of envelopes) x (herald mixture of
    chirp phases). The error factor is one real (x, e) @ (e, x) GEMM. The
    herald nodes h sit symmetrically about their mean h0 with symmetric
    weights, so in the frame of exp(i gamma (x - h0)^2) the herald factor is
    the real Toeplitz matrix r(|i - j|), r_k = sum_h w_h cos(2 gamma (h - h0)
    k dx) on the uniform signal grid. Vacuous events (filter kills the
    envelope) are dropped with their weight renormalized away.

    The envelope of node -e at -x equals that of e at x, the error weights
    are symmetric and the Toeplitz factor is even under (i, j) -> (n-1-i,
    n-1-j), so rho(-x, -y) = rho(x, y). Only the rows x >= 0 are computed
    (half the GEMM); the rows x < 0 are their mirror images, which makes the
    returned matrix exactly even as well as exactly symmetric, the form its
    constructor requires; validation eigensolves it once, block by block.
    """
    e, q, h, wh, grid, x = _kernels(model)
    n = x.size
    lo, r = n // 2, n % 2  # rows lo: have x >= 0
    sig = model.pump.sigma

    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / sig) ** 2)  # (e, x)
    h0 = model.herald_window.center - model.spectrometer.reference_frequency
    lags = np.arange(n)
    rc = np.cos(2.0 * model.gamma * grid.step * np.outer(lags, h - h0)) @ wh
    v = np.concatenate([rc[:0:-1], rc])  # v[n - 1 + k] = rc[|k|]
    toeplitz = np.lib.stride_tricks.sliding_window_view(v, n)[::-1]  # a view: row i is rc[|i - j|]
    half = ((env[:, lo:].T * q) @ env) * toeplitz[lo:]
    if r:  # the center row is its own mirror image
        half[0] = 0.5 * (half[0] + half[0, ::-1])
    rho = np.empty((n, n))
    rho[lo:] = half
    rho[:lo] = half[r:][::-1, ::-1]
    return DiscretizedDensityMatrix(grid, _hermitize(rho))


def purity_from_eigenvalues(dm: DiscretizedDensityMatrix) -> float:
    lam = dm.eigenvalues()
    return float(np.dot(lam, lam))

