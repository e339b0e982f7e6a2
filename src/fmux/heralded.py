"""Conditional signal wavepackets and the heralded-photon purity engine.

A herald measured at omega_H triggers a corrective shift that should land
the signal on the output filter center. The true idler frequency omega_i
differs from omega_H by the spectrometer error, so the shifted signal
wavepacket is displaced by e = omega_H - omega_i; the delay-line dispersion
adds a quadratic spectral phase accumulated before the shift, i.e. in
(x - h) where h is the applied shift. Mixing over the herald window and the
error distribution gives the heralded density matrix, whose purity Tr(rho^2)
this module evaluates two ways:

* purity_integral: the discrete sum of squared overlaps, rearranged
  exactly. The Gaussian envelopes factor into a function of x - y and one
  of (x + y) / 2, tabulated once against the error-pair midpoints: O(n ne)
  exponentials. The herald mixture of chirps over 2L + 1 trapezoid nodes
  has the closed form sin(L phi) / (2L tan(phi / 2)): O(n) trig. The pairs
  are then summed along the diagonals of the signal grid in O(n). It is the
  one fast enough for sweeps.
* assemble_density_matrix + purity_from_eigenvalues: materialize rho and sum
  its squared eigenvalues. The herald window is symmetric about its mean
  shift h0 with symmetric weights, so the herald mixture of delay-line chirps
  is the diagonal phase exp(i gamma (x - h0)^2) times a real symmetric
  Toeplitz matrix times its conjugate. In the frame that co-moves with that
  phase rho is real symmetric: one real GEMM and the same closed-form herald
  factor build it. A DiscretizedDensityMatrix holds only that form, exactly
  symmetric and even, and is eigensolved once, during validation; every
  later eigenvalues() call returns that cached spectrum.

Both engines also use the state's parity. The signal grid is symmetric about
the filter center (x -> -x), the error nodes e and their Gaussian weights are
symmetric about 0, and the herald nodes and weights are symmetric about h0,
which enters only through shift differences or |h - h0|. So rho is even
under x -> -x: rho(-x, -y) = rho(x, y). _kernels builds these nodes and
weights exactly symmetric (bit for bit), and keeps or drops each +/-e pair
together, so the parity holds by construction. purity_integral tabulates its
Gaussian only at signal midpoints m >= 0; assemble_density_matrix computes
the x >= 0 rows and mirrors the rest; eigenvalues() diagonalizes the even
and odd blocks separately.

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


def _herald_mixture(phi: np.ndarray, n_herald: int) -> np.ndarray:
    """r(phi) = sum_k w_k cos(k phi): the trapezoid herald mixture, in closed form.

    The herald nodes sit at k = -L, ..., L spacings from their mean, 2L + 1 =
    n_herald of them (L is a half-integer for an even count), with normalized
    trapezoid weights: 1 / (2L) each, half that at either end. The sum is
    exactly sin(L phi) / (2L tan(phi / 2)), and 1 at phi = 0. It is evaluated
    at t = phi / 2 - k pi, k the nearest integer, where sin(2L phi / 2) =
    (-1)^(2L k) sin(2L t): near the peaks at phi = 2 pi k the ratio is then of
    two small numbers that keep their precision, not of two rounding errors.
    Reducing by the float pi moves t by about k ulps of pi, no more than the
    rounding phi itself carries.
    """
    two_l = n_herald - 1
    half = 0.5 * phi
    k = np.rint(half / np.pi)
    t = half - k * np.pi
    sign = 1.0 - 2.0 * ((k * two_l) % 2.0)
    r = np.divide(np.sin(two_l * t), two_l * np.tan(t), out=np.ones_like(t), where=t != 0.0)
    return sign * r


def _herald_factor(model: HeraldedStateModel, lags: np.ndarray) -> np.ndarray:
    """r(u) = sum_h w_h cos(2 gamma (h - h0) u) at the signal separations u = lags * dx.

    The mixture over the herald window of the delay-line chirps, seen in the
    frame of exp(i gamma (x - h0)^2): |r(x - y)|^2 is the herald factor of
    |rho(x, y)|^2, and r(|i - j|) that of rho itself.
    """
    dh = model.herald_window.full_width / (model.n_herald - 1)
    phi_step = 2.0 * model.gamma * dh * model.signal_grid.step
    return _herald_mixture(phi_step * lags, model.n_herald)


def _norms_squared(model: HeraldedStateModel, e: np.ndarray):
    grid = model.signal_grid
    g2 = np.subtract(grid.detunings[None, :], e[:, None])  # (e, x), one buffer
    g2 /= model.pump.sigma
    np.square(g2, out=g2)
    np.negative(g2, out=g2)
    np.exp(g2, out=g2)
    return g2 @ grid.trapezoid_weights(), grid


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
    """(e, we / norms_sq, grid, x): the error kernel, the signal grid and its nodes.

    Vacuous error nodes are dropped. e and x are exactly odd and the
    weights exactly even under reversal. The norms are averaged with their
    mirror image, so they are exactly even too: each +/-e pair is kept or
    dropped together, and the kept e stay a symmetric contiguous stretch of
    the uniform grid.
    """
    e, we = _error_kernel(model)
    norms_sq, grid = _norms_squared(model, e)
    norms_sq = 0.5 * (norms_sq + norms_sq[::-1])
    free = model.pump.sigma * math.sqrt(math.pi)
    e, we, norms_sq = _drop_vacuous(e, we, norms_sq, free)
    return e, we / norms_sq, grid, _odd(grid.detunings)


def _purity_factored(model: HeraldedStateModel) -> float:
    """sum_ab w_a w_b rho(x_a, x_b)^2 on the signal grid, by the Gaussian product identity.

    rho(x, y)^2 = r(x - y)^2 sum_ij q_i q_j g(x - e_i) g(y - e_i) g(x - e_j) g(y - e_j),
    g(v) = exp(-v^2 / 2 sig^2), and the four Gaussians are exp(-(x - y)^2 / 2 sig^2)
    exp(-(e_i - e_j)^2 / 2 sig^2) exp(-2 (m - mu_ij)^2 / sig^2), m = (x + y) / 2 and
    mu_ij = (e_i + e_j) / 2. So the sum is sum_ab w_a w_b F(x_a - x_b) G((x_a + x_b) / 2)
    with F(u) = r(u)^2 exp(-u^2 / 2 sig^2) and G(m) = sum_k W_k exp(-2 (m - mu_k)^2 / sig^2),
    W_k the pair weights with i + j = k. Every Gaussian argument is divided by sig
    before it is squared.
    """
    e, q, grid, x = _kernels(model)
    ne, n = e.size, x.size
    sig = model.pump.sigma

    # pair weights W_k, k = i + j indexing the error-pair midpoints linspace(e[0], e[-1], 2 ne - 1)
    es = e / sig
    pairs = np.outer(q, q) * np.exp(-0.5 * (es[:, None] - es[None, :]) ** 2)
    w_mid = np.bincount(np.add.outer(np.arange(ne), np.arange(ne)).ravel(), pairs.ravel())
    mids = np.linspace(0.0, es[-1], ne)
    mids = np.concatenate([-mids[:0:-1], mids])

    # G is even, so only m >= 0 is needed: m_j = j dx / 2, j = a + b - (n - 1) = 0 ... n - 1
    m = np.linspace(0.0, x[-1] / sig, n)
    table = np.subtract(m[:, None], mids[None, :])  # (m, mid), one buffer
    np.square(table, out=table)
    table *= -2.0
    g = np.exp(table, out=table) @ w_mid
    lags = np.arange(n)  # d = |a - b|
    f = _herald_factor(model, lags) ** 2 * np.exp(-0.5 * (lags * (grid.step / sig)) ** 2)

    # The diagonal a - b = d meets the midpoints j = -J, -J + 2, ..., J, J = n - 1 - d. G being
    # even, it sums to G_0 [J even] + 2 sum_{0 < j <= J, j = J mod 2} G_j: a cumulative sum
    # over each parity of j. Each end j = +/-J of a diagonal is a node on the grid edge, of
    # trapezoid weight 1/2, so G_J comes off once; the two corners of the main diagonal
    # (J = n - 1) weigh 1/4, and so does the one node of the diagonal J = 0.
    acc = g.copy()
    acc[0] = 0.0
    acc[0::2] = np.cumsum(acc[0::2])
    acc[1::2] = np.cumsum(acc[1::2])
    diag = 2.0 * acc - g  # J > 0: both ends at weight 1/2
    diag[0::2] += g[0]
    diag[0] += 0.25 * g[0]  # J = 0: nothing so far
    diag[-1] -= 0.5 * g[-1]
    total = 2.0 * (f @ diag[::-1]) - f[0] * diag[-1]  # d and -d, the main diagonal once
    return float(grid.step * grid.step * total)


def purity_integral(model: HeraldedStateModel) -> float:
    """Heralded-photon purity Tr(rho^2) by quadrature of squared overlaps.

    The discrete sum over signal-node pairs is rearranged exactly (see
    _purity_factored): one Gaussian table over the signal midpoints m >= 0
    and the error-pair midpoints, O(n ne) exponentials, and the herald
    factor in closed form, O(n) trig; the pairs are then summed along the
    diagonals of the signal grid in O(n). Use model.scaled() for quick scans
    on coarser grids. Every call repeats the evaluation with doubled grids
    and raises QuadratureConvergenceError if the value moves by more than
    1e-3; the base-grid value is returned.
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


def _parity_blocks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of a real symmetric a with a[::-1, ::-1] == a, from its rows x >= 0.

    rows is a[n // 2:]. In the basis (d_x +/- d_-x) / sqrt(2) of node pairs
    mirrored about the center (plus the center node itself for odd n, in the
    even block) a is block diagonal: even = a(x, y) + a(x, -y) over x, y >= 0,
    of size ceil(n/2), and odd = a(x, y) - a(x, -y) over x, y > 0, of size
    floor(n/2), both exactly symmetric. The spectrum of a is their union.
    """
    n = rows.shape[1]
    lo, r = n // 2, n % 2
    even, odd = _fold(rows)
    if r:  # the center couples to each pair as sqrt(2) a(x, 0)
        even[0, 1:] = math.sqrt(2.0) * rows[0, lo + 1 :]
        even[1:, 0] = math.sqrt(2.0) * rows[1:, lo]
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
        flops of one full solve) and the two spectra merged. The blocks read
        only the rows x >= 0, so only those are weighted.
        """
        if self._eigenvalues is None:
            from scipy import linalg  # loaded on first use: config-only runs never need it

            lo = self.matrix.shape[0] // 2
            sw = np.sqrt(self.grid.trapezoid_weights())
            blocks = _parity_blocks(self.matrix[lo:] * np.outer(sw[lo:], sw))
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
    k dx) on the uniform signal grid, taken in closed form (_herald_factor).
    Vacuous events (filter kills the envelope) are dropped with their weight
    renormalized away.

    The envelope of node -e at -x equals that of e at x, the error weights
    are symmetric and the Toeplitz factor is even under (i, j) -> (n-1-i,
    n-1-j), so rho(-x, -y) = rho(x, y). Only the rows x >= 0 are computed
    (half the GEMM); the rows x < 0 are their mirror images, which makes the
    returned matrix exactly even as well as exactly symmetric, the form its
    constructor requires; validation eigensolves it once, block by block.
    """
    e, q, grid, x = _kernels(model)
    n = x.size
    lo, r = n // 2, n % 2  # rows lo: have x >= 0
    sig = model.pump.sigma

    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / sig) ** 2)  # (e, x)
    rc = _herald_factor(model, np.arange(n))
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

