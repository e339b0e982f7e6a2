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
  phase rho is real symmetric: one real GEMM and a cosine table build it,
  and the real eigensolver diagonalizes it. A DiscretizedDensityMatrix is
  eigensolved once, during validation; every later eigenvalues() call
  returns that cached spectrum.

The two agree to well inside the contract tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import defaults
from .serrodyne import QuadratureConvergenceError
from .spectral import FrequencyGrid, PumpEnvelope, TopHatWindow, scaled_points
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


def _error_kernel(model: HeraldedStateModel):
    """Measurement-error nodes e = omega_H - omega_i and normalized weights.

    Uniform grid; the density is the spectrometer's Gaussian jitter pushed
    through the dispersion map. Zero jitter collapses to a single node at
    e = 0.
    """
    n = model.n_jitter
    s = model.spectrometer.frequency_std()
    if s == 0.0:
        return np.array([0.0]), np.array([1.0])
    e = np.linspace(-JITTER_SPAN_SIGMAS * s, JITTER_SPAN_SIGMAS * s, n)
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
    if not np.all(keep):
        e, we, norms_sq = e[keep], we[keep], norms_sq[keep]
        we = we / we.sum()
    return e, we, norms_sq


def _kernels(model: HeraldedStateModel):
    """(e, we / norms_sq, h, wh, grid): both kernels and the signal grid, vacuous nodes dropped."""
    e, we = _error_kernel(model)
    h, wh = _herald_kernel(model)
    norms_sq, grid = _norms_squared(model, e)
    free = model.pump.sigma * math.sqrt(math.pi)
    e, we, norms_sq = _drop_vacuous(e, we, norms_sq, free)
    return e, we / norms_sq, h, wh, grid


def _purity_factored(model: HeraldedStateModel) -> float:
    e, q, h, wh, grid = _kernels(model)
    ne = e.size
    x = grid.detunings
    wx = grid.trapezoid_weights()
    sig = model.pump.sigma

    # window integrals S(m, dh) = sum_x wx exp(-(x-m)^2/sig^2) exp(-2i gamma dh x)
    if ne > 1:
        mids = np.linspace(e[0], e[-1], 2 * ne - 1)
    else:
        mids = e.copy()
    dh_step = h[1] - h[0] if h.size > 1 else 0.0
    dh = np.arange(h.size) * dh_step  # non-negative differences; |S| is even in dh
    env = np.exp(-((x[None, :] - mids[:, None]) / sig) ** 2) * wx  # (m, x)
    phase = 2.0 * model.gamma * np.outer(x, dh)  # (x, dh)
    s_abs_sq = (env @ np.cos(phase)) ** 2 + (env @ np.sin(phase)) ** 2  # |S(m, dh)|^2

    # herald-weight autocorrelation c(dh) for dh >= 0
    c = np.correlate(wh, wh, mode="full")[h.size - 1 :]
    scale = np.ones_like(c) * 2.0
    scale[0] = 1.0
    t_mid = s_abs_sq @ (c * scale)  # T(m) = sum_dh c |S|^2 over signed dh

    gauss = np.exp(-((e[:, None] - e[None, :]) ** 2) / (2.0 * sig * sig))
    kernel = np.outer(q, q) * gauss
    mid_index = np.add.outer(np.arange(ne), np.arange(ne))
    return float(np.sum(kernel * t_mid[mid_index]))


def purity_integral(model: HeraldedStateModel, check_refinement: bool = True) -> float:
    """Heralded-photon purity Tr(rho^2) by quadrature of squared overlaps.

    The discretized overlap sum is reorganized through window-integral
    tables and runs in well under a second at default grids; use
    model.scaled() for quick scans on coarser grids. The refinement check
    repeats the evaluation with doubled grids and raises
    QuadratureConvergenceError if the value moves by more than 1e-3.
    """
    value = _purity_factored(model)
    if check_refinement:
        refined = _purity_factored(model.scaled(2.0))  # n -> 2n - 1 on every grid
        if abs(refined - value) > 1e-3:
            raise QuadratureConvergenceError(
                f"purity moved by {abs(refined - value):.2e} on grid doubling"
            )
    return min(float(value), 1.0)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class DiscretizedDensityMatrix:
    """Heralded signal state on the signal grid; validated on construction.

    assemble_density_matrix stores the state in the frame that co-moves with
    the deterministic delay-line phase exp(i gamma (x - h0)^2), h0 the mean
    herald shift, where it is real symmetric. That diagonal unitary leaves
    the diagonal, the spectrum, every |rho_ij| and so every output
    unchanged. A real matrix stays real (float64) and is eigensolved by the
    real solver; a complex one is kept complex.
    """

    grid: FrequencyGrid
    matrix: np.ndarray
    _eigenvalues: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        object.__setattr__(self, "matrix", m)
        scale = float(np.abs(m).max())
        if scale == 0.0:
            raise ValueError("density matrix is zero")
        if float(np.abs(m - m.conj().T).max()) > 1e-9 * scale:
            raise ValueError("density matrix is not Hermitian")
        w = self.grid.trapezoid_weights()
        trace = float(np.real(w @ np.diag(m)))
        if abs(trace - 1.0) > 1e-6:
            raise ValueError(f"trace {trace:.8f} != 1")
        if float(self.eigenvalues().min()) < -1e-8:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    def weighted(self) -> np.ndarray:
        """sqrt(w) rho sqrt(w): the matrix whose spectrum is the state's."""
        sw = np.sqrt(self.grid.trapezoid_weights())
        return _hermitize(sw[:, None] * self.matrix * sw[None, :])

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of weighted(); solved on first call, then cached read-only."""
        if self._eigenvalues is None:
            from scipy import linalg  # loaded on first use: config-only runs never need it

            lam = linalg.eigvalsh(self.weighted())
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
    envelope) are dropped with their weight renormalized away. The returned
    matrix is real symmetric and is eigensolved once, by its constructor's
    validation.
    """
    e, q, h, wh, grid = _kernels(model)
    x = grid.detunings
    sig = model.pump.sigma

    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / sig) ** 2)  # (e, x)
    m_env = (env.T * q) @ env
    h0 = model.herald_window.center - model.spectrometer.reference_frequency
    lags = np.arange(grid.points)
    r = np.cos(2.0 * model.gamma * grid.step * np.outer(lags, h - h0)) @ wh
    m_chirp = r[np.abs(lags[:, None] - lags[None, :])]
    return DiscretizedDensityMatrix(grid, _hermitize(m_env * m_chirp))


def purity_from_eigenvalues(dm: DiscretizedDensityMatrix) -> float:
    lam = dm.eigenvalues()
    return float(np.dot(lam, lam))

