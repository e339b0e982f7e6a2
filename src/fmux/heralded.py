"""Conditional signal wavepackets and the heralded-photon purity engine.

A herald measured at omega_H triggers a corrective shift that should land
the signal on the output filter center. The true idler frequency omega_i
differs from omega_H by the spectrometer error, so the shifted signal
wavepacket is displaced by e = omega_H - omega_i; the delay-line dispersion
adds a quadratic spectral phase accumulated before the shift, i.e. in
(x - h) where h is the applied shift. Mixing over the herald window and the
error distribution gives the heralded density matrix. Frequencies are
detunings in rad/s from the filter center, which is degeneracy: zero shift.

The herald nodes h sit symmetrically about zero shift with symmetric
weights, so in the frame that co-moves with the delay-line phase
exp(i gamma x^2) the herald mixture of chirps is one real factor r(x - y),
r(u) = sum_h w_h cos(2 gamma h u); a window off the filter center would only
move that frame. Over 2L + 1 trapezoid nodes it has the closed form
sin(L phi) / (2L tan(phi / 2)): O(n) trig.
Every envelope has the pump width sig, g(v) = exp(-v^2 / 2 sig^2), and

    g(x - e) g(y - e) = exp(-(x - y)^2 / 4 sig^2) exp(-((x + y) / 2 - e)^2 / sig^2).

So the state is one separable product of two 1-D factors,

    rho(x, y) = R(x - y) h((x + y) / 2),
    R(u) = r(u) exp(-u^2 / 4 sig^2),  h(m) = sum_i q_i exp(-(m - e_i)^2 / sig^2),

q_i the error weights over the wavepackets' squared norms. On the signal
grid x - y is a multiple of dx and (x + y) / 2 of dx / 2, so n values of
each carry all of rho: R at the lags k dx and h at the half-step midpoints
m_j = j dx / 2 >= 0 (h is even). One exponential table over the error nodes
and those midpoints gives h and, every other column being a node x >= 0,
the squared norms as well (_kernels). Tr(rho^2) is evaluated two ways:

* purity_integral: sum_ab w_a w_b F(x_a - x_b) G((x_a + x_b) / 2) with
  F = R^2 and G = h^2, summed along the diagonals of the signal grid in
  O(n). It is the one fast enough for sweeps.
* assemble_density_matrix + purity_from_eigenvalues: build the state and sum
  its squared eigenvalues. rho is real symmetric and even, so
  sqrt(w) rho sqrt(w) is block diagonal in the basis (d_x +/- d_-x) / sqrt(2):
  an even block over x >= 0 and an odd block over x > 0. A
  DiscretizedDensityMatrix holds only those two blocks, each exactly
  symmetric; each is a Toeplitz-times-Hankel product of the two tables, so
  no n x n matrix and no matrix product is formed. They are eigensolved
  once, during validation; every later eigenvalues() call returns that
  cached spectrum. The state has a handful of modes, so each block is
  solved through a diagonal-pivoted Cholesky factor of a few columns,
  stopped once the largest residual diagonal is at most 1e-15 of the
  block's trace. When the residual's Frobenius norm is at most 1e-12 it
  bounds the error of every eigenvalue (Weyl), and the spectrum is that of
  the factor's small Gram matrix plus exact zeros; otherwise, for indefinite
  or malformed input only, a dense np.linalg.eigvalsh of the block decides.

Both use the state's parity. The signal grid is symmetric about the filter
center (x -> -x), the error nodes e and their Gaussian weights are
symmetric about 0, and the herald nodes enter only through |h|. The
error nodes are built exactly odd and their weights exactly even (bit for
bit), and each +/-e pair is kept or dropped together, so h is even and
rho(-x, -y) = rho(x, y) by construction.

The two agree to well inside the contract tolerances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import defaults
from .serrodyne import QuadratureConvergenceError
from .spectral import FilterOverlapError, FrequencyGrid, scaled_points

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
PIVOT_STOP = 1e-15  # the pivoted factor stops at this residual diagonal, relative to the trace
CERTIFIED_RESIDUAL = 1e-12  # ||b - F F^T||_F up to which the factor's spectrum stands for b's


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

    In rad/s from the filter center: sigma, the pump amplitude width;
    filter_width and herald_width, the full widths of the signal filter and
    of the flat window of heralds the feed-forward stage accepts, both
    centred on zero; error_std, the std of the Gaussian herald frequency
    error (0 for none). gamma is the delay-line GVD coefficient, s^2. Grid
    counts default to 513 signal points across the filter, 129-point
    quadratures for the herald and error variables, the latter spanning
    +/- JITTER_SPAN_SIGMAS error stds. scaled() refines all three together.
    """

    sigma: float
    filter_width: float
    herald_width: float
    error_std: float
    gamma: float
    n_signal: int = 513
    n_herald: int = 129
    n_jitter: int = 129

    def __post_init__(self):
        if not (self.sigma > 0 and self.filter_width > 0 and self.herald_width > 0):
            raise ValueError("pump sigma and window widths must be positive")
        if not self.error_std >= 0:
            raise ValueError("error_std must be non-negative")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        for n in (self.n_signal, self.n_herald, self.n_jitter):
            if n < 3:
                raise ValueError("grids need at least 3 points")

    @property
    def signal_grid(self) -> FrequencyGrid:
        """Signal grid across the filter support, edges on-grid."""
        return FrequencyGrid(0.0, self.filter_width, self.n_signal)

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
    is the Gaussian of std error_std. Zero error collapses to a single node
    at e = 0.
    """
    n = model.n_jitter
    s = model.error_std
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
    """r(u) = sum_h w_h cos(2 gamma h u) at the signal separations u = lags * dx.

    The mixture over the herald window of the delay-line chirps, seen in the
    frame of exp(i gamma x^2): |r(x - y)|^2 is the herald factor of
    |rho(x, y)|^2, and r(|i - j|) that of rho itself.
    """
    dh = model.herald_width / (model.n_herald - 1)
    phi_step = 2.0 * model.gamma * dh * model.signal_grid.step
    return _herald_mixture(phi_step * lags, model.n_herald)


def _error_table(model: HeraldedStateModel, e: np.ndarray):
    """(E, norms_sq): the error table on the half-step grid and each wavepacket's squared norm.

    E[i, j] = exp(-((m_j - e_i) / sig)^2) at the midpoints m_j = j dx / 2, j = 0 ... n - 1,
    built in one buffer. The signal nodes x >= 0 are every other column, j = n - 1 mod 2, and
    norms_sq[i] = sum_x w_x E(x - e_i). A node -x sees e_i as x sees -e_i, and e is exactly
    odd, so the sum over x < 0 is the sum over x > 0 mirrored in e: the norms are that half
    plus its mirror, with a center node, its own mirror, taken once. They are exactly even.
    """
    grid = model.signal_grid
    n = grid.points
    table = np.subtract(np.linspace(0.0, 0.5 * grid.span, n)[None, :], e[:, None])
    table /= model.sigma
    np.square(table, out=table)
    np.negative(table, out=table)
    np.exp(table, out=table)
    w = grid.trapezoid_weights()[n // 2 :]
    half = table[:, (n - 1) % 2 :: 2] @ w
    norms_sq = half + half[::-1]
    if n % 2:
        norms_sq -= w[0] * table[:, 0]
    return table, norms_sq


@functools.lru_cache(maxsize=1)
def _kernels(model: HeraldedStateModel) -> tuple[np.ndarray, np.ndarray]:
    """(R, h): the factors of rho(x, y) = R(x - y) h((x + y) / 2) on the signal grid, read-only.

    Every envelope has the pump width sig, so g(x - e) g(y - e) = exp(-(x - y)^2 / 4 sig^2)
    exp(-((x + y) / 2 - e)^2 / sig^2), g(v) = exp(-v^2 / 2 sig^2), and the error mixture of
    envelope pairs splits off one Gaussian in x - y. R(u) = r(u) exp(-u^2 / 4 sig^2) at the
    lags u = k dx, r the closed-form herald factor, and h(m) = sum_i q_i exp(-((m - e_i) /
    sig)^2) at the half-step midpoints m = k dx / 2, k = 0 ... n - 1 for both. h = q @ E,
    E the error table (_error_table) and q = we / norms_sq. Error nodes whose wavepacket the
    filter passes under VACUOUS_NORM of its free norm are dropped and the rest renormalized;
    the norms are exactly even, so each +/-e pair is kept or dropped together.

    The last model's factors are kept: a scenario calls purity_integral and then
    assemble_density_matrix on the same model, and the second call reuses the first's build.
    """
    e, we = _error_kernel(model)
    table, norms_sq = _error_table(model, e)
    keep = norms_sq > VACUOUS_NORM * model.sigma * math.sqrt(math.pi)
    if not keep.any():
        raise FilterOverlapError("the filter passes under 1e-12 of every conditional wavepacket")
    if not keep.all():
        we, norms_sq, table = we[keep] / we[keep].sum(), norms_sq[keep], table[keep]
    lags = np.arange(model.n_signal)
    half_lag = 0.5 * model.signal_grid.step / model.sigma
    factors = (_herald_factor(model, lags) * np.exp(-((lags * half_lag) ** 2)),
               (we / norms_sq) @ table)
    for f in factors:
        f.flags.writeable = False
    return factors


def _purity_factored(model: HeraldedStateModel) -> float:
    """sum_ab w_a w_b rho(x_a, x_b)^2 on the signal grid, from the two factors of rho.

    rho(x, y)^2 = F(x - y) G((x + y) / 2) with F = R^2 and G = h^2 (_kernels). G is the
    sum over error pairs i, j of q_i q_j exp(-(e_i - e_j)^2 / 2 sig^2) exp(-2 (m - mu_ij)^2 /
    sig^2), mu_ij = (e_i + e_j) / 2, taken as the square of one sum over the nodes. The sum
    runs over the lags d = |a - b| and, along each diagonal, the midpoints j dx / 2.
    """
    f, g = (a * a for a in _kernels(model))
    step = model.signal_grid.step

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
    return float(step * step * total)


def purity_integral(model: HeraldedStateModel) -> float:
    """Heralded-photon purity Tr(rho^2) by quadrature of squared overlaps.

    rho(x, y)^2 = R(x - y)^2 h((x + y) / 2)^2 (see _purity_factored): one exponential table
    over the error nodes and the signal midpoints m >= 0, O(n ne), and the herald factor in
    closed form, O(n) trig; the pairs are then summed along the diagonals of the signal grid
    in O(n). Use model.scaled() for quick scans on coarser grids. Every call repeats the
    evaluation with doubled grids and raises QuadratureConvergenceError if the value moves
    by more than 1e-3; the base-grid value is returned.
    """
    # the doubled grids first, so model's factors are the cached ones afterwards
    refined = _purity_factored(model.scaled(2.0))  # n -> 2n - 1 on every grid
    value = _purity_factored(model)
    if abs(refined - value) > 1e-3:
        raise QuadratureConvergenceError(
            f"purity moved by {abs(refined - value):.2e} on grid doubling"
        )
    return min(float(value), 1.0)


def _pivoted_cholesky(b: np.ndarray) -> np.ndarray:
    """Rows g, shape (k, m), with g.T @ g ~ b: a diagonal-pivoted outer-product Cholesky factor.

    Each step pivots on the largest residual diagonal of b - g.T @ g and
    stops once that is at or below PIVOT_STOP of the trace of b, is not
    positive or is NaN, so a positive semidefinite b of numerical rank k costs
    O(m k^2) here, not the O(m^3) of a dense solve.
    """
    m = b.shape[0]
    d = np.diag(b).copy()  # the residual diagonal
    stop = PIVOT_STOP * max(float(d.sum()), 0.0)  # a pivot is positive even if the trace is not
    g = np.empty((min(m, 8), m))  # rows for the factor, doubled as it grows
    k = 0
    while k < m:
        p = int(np.argmax(d))
        if not d[p] > stop:
            break
        if k == len(g):
            g = np.concatenate([g, np.empty((min(k, m - k), m))])
        row = b[p] - g[:k, p] @ g[:k]
        row /= math.sqrt(d[p])
        g[k] = row
        d -= row * row
        k += 1
    return g[:k]


def _block_spectrum(b: np.ndarray) -> np.ndarray:
    """Spectrum of one real symmetric parity block, from its pivoted factor where that certifies it.

    With g = _pivoted_cholesky(b), b = g.T @ g + R. g.T @ g has the k
    eigenvalues of the k x k Gram matrix g @ g.T and m - k zeros, and by
    Weyl's inequality each eigenvalue of b lies within ||R||_2 <= ||R||_F of
    the matching one. So if ||R||_F <= CERTIFIED_RESIDUAL those are returned
    (unsorted): each is within 1e-12 of b's, and no eigenvalue of b is below
    -1e-12. Otherwise, as for an indefinite or malformed b, the dense solve
    decides.
    """
    g = _pivoted_cholesky(b)
    residual = np.ascontiguousarray(g.T) @ g  # from a strided g.T it is several times slower
    residual -= b
    if np.linalg.norm(residual) <= CERTIFIED_RESIDUAL:
        return np.concatenate([np.zeros(b.shape[0] - g.shape[0]), np.linalg.eigvalsh(g @ g.T)])
    return np.linalg.eigvalsh(b)


@dataclass(frozen=True)
class DiscretizedDensityMatrix:
    """Heralded signal state on the signal grid, as two parity blocks; validated on construction.

    The state is taken in the frame that co-moves with the deterministic
    delay-line phase exp(i gamma x^2), where rho is real symmetric and even
    under x -> -x. That diagonal unitary
    leaves the diagonal, the spectrum, every |rho_ij| and so every output
    unchanged. What is stored is W = sqrt(w) rho sqrt(w), whose spectrum is
    the state's, in the basis (d_x +/- d_-x) / sqrt(2) of node pairs mirrored
    about the center (plus the center node itself for odd n, in the even
    block) where it is block diagonal: even = W(x, y) + W(x, -y), ceil(n/2)
    square over x, y >= 0, the center coupling to each pair as sqrt(2)
    W(x, 0), and odd = W(x, y) - W(x, -y), floor(n/2) square over x, y > 0,
    n = grid.points. Each block is float64, finite and exactly symmetric;
    together they are not zero, have unit trace within 1e-6 and no
    eigenvalue below -1e-8. A ValueError names what an input lacks.
    matrix() rebuilds the whole rho.
    """

    grid: FrequencyGrid
    even: np.ndarray
    odd: np.ndarray
    _eigenvalues: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = self.grid.points
        blocks = []
        for name, b, size in (("even", self.even, (n + 1) // 2), ("odd", self.odd, n // 2)):
            if np.iscomplexobj(b):
                raise ValueError("density matrix is not real")
            b = np.asarray(b, dtype=np.float64)
            if b.shape != (size, size):
                raise ValueError(f"{name} block has shape {b.shape}, not {(size, size)} "
                                 f"for {n} grid points")
            object.__setattr__(self, name, b)
            blocks.append(b)
        if not any(b.any() for b in blocks):
            raise ValueError("density matrix is zero")
        if not all(np.isfinite(b).all() for b in blocks):
            raise ValueError("density matrix is not finite")
        if not all(np.array_equal(b, b.T) for b in blocks):
            raise ValueError("density matrix is not exactly symmetric")
        trace = float(np.trace(self.even) + np.trace(self.odd))
        if abs(trace - 1.0) > 1e-6:
            raise ValueError(f"trace {trace:.8f} != 1")
        if float(self.eigenvalues().min()) < -1e-8:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    def matrix(self) -> np.ndarray:
        """rho on the grid, n x n, rebuilt from the blocks; no scenario needs it.

        Over x, y >= 0, W(x, y) = (even + odd) / 2 and W(x, -y) = (even -
        odd) / 2, W = sqrt(w) rho sqrt(w); the center couples as sqrt(2)
        W(x, 0). The rows x < 0 mirror the rows x > 0, so the result is
        exactly symmetric and even.
        """
        n = self.grid.points
        lo, r = n // 2, n % 2
        scale = np.ones(lo + r)
        scale[:r] = math.sqrt(2.0)
        # at a center node 2 W(0, 0) and 2 W(x, 0), which the halving below takes to W
        even = self.even * np.outer(scale, scale)
        odd = np.zeros_like(even)
        odd[r:, r:] = self.odd
        full = np.empty((n, n))
        full[lo:, lo:] = 0.5 * (even + odd)
        full[lo:, :lo] = 0.5 * (even - odd)[:, r:][:, ::-1]
        full[:lo] = full[lo + r :][::-1, ::-1]
        sw = np.sqrt(self.grid.trapezoid_weights())
        return full / np.outer(sw, sw)

    def intensity_width(self) -> float:
        """rms width about its mean of the heralded intensity p = w diag(rho), in rad/s.

        p is the diagonal of sqrt(w) rho sqrt(w): at x > 0 the mean of the two
        blocks' diagonals, at a center node the even block's corner, and at
        -x the same as at x.
        """
        r = self.grid.points % 2
        half = np.diagonal(self.even).copy()
        half[r:] += np.diagonal(self.odd)
        half[r:] *= 0.5
        p = np.concatenate([half[r:][::-1], half])
        x = self.grid.detunings
        mean = float(p @ x)
        return math.sqrt(float(p @ (x - mean) ** 2))

    def eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of the state; solved on first call, then cached read-only.

        The even and odd blocks are solved separately and the two spectra
        merged. Each block is factored by diagonal-pivoted Cholesky, stopped
        once the largest residual diagonal is at most PIVOT_STOP of the
        block's trace: a few columns for a heralded state's handful of
        modes. If the residual's Frobenius norm is at most CERTIFIED_RESIDUAL
        (1e-12, against the unit trace checked before this call), the block's
        spectrum is the factor's small Gram spectrum, each eigenvalue within
        that norm of the exact one, and exact zeros past the factor's rank.
        Otherwise, which only indefinite or malformed input reaches,
        np.linalg.eigvalsh solves the block densely (_block_spectrum).
        """
        if self._eigenvalues is None:
            lam = np.sort(np.concatenate([_block_spectrum(b) for b in (self.even, self.odd)]))
            lam.flags.writeable = False
            object.__setattr__(self, "_eigenvalues", lam)
        return self._eigenvalues


def assemble_density_matrix(model: HeraldedStateModel) -> DiscretizedDensityMatrix:
    """The heralded state as its two parity blocks, Toeplitz and Hankel products of rho's factors.

    rho(x, y) = R(x - y) h((x + y) / 2) (_kernels). Over the nodes x_i, x_k >= 0,
    i, k = 0 ... m - 1 with m = ceil(n / 2), rho(x_i, x_k) = R[|i - k|] h[i + k + 1 - n % 2],
    a Toeplitz times a Hankel table, and rho(x_i, -x_k) = R[i + k + 1 - n % 2] h[|i - k|],
    a Hankel times a Toeplitz one, each a sliding_window_view of its 1-D table. Times
    outer(sqrt(w), sqrt(w)) over x >= 0 they are P and M; even = P + M (the center couples
    as sqrt(2) P) and odd = P - M over x > 0, the blocks DiscretizedDensityMatrix holds.
    Every factor is exactly symmetric and each entry is the product of the same values in the
    same order, so both blocks are exactly symmetric. No n x n array or matrix product is formed.
    """
    lag, mid = _kernels(model)
    grid = model.signal_grid
    n = grid.points
    lo, r = n // 2, n % 2  # nodes lo: have x >= 0
    m = n - lo
    windows = np.lib.stride_tricks.sliding_window_view

    def toeplitz(t):  # row i: t[|i - k|]
        return windows(np.concatenate([t[m - 1 : 0 : -1], t[:m]]), m)[::-1]

    def hankel(t):  # row i: t[i + k + 1 - r]
        return windows(t[1 - r :], m)

    sw = np.sqrt(grid.trapezoid_weights()[lo:])
    p = np.outer(sw, sw)
    mix = p.copy()
    p *= toeplitz(lag)
    p *= hankel(mid)
    mix *= hankel(lag)
    mix *= toeplitz(mid)
    odd = p[r:, r:] - mix[r:, r:]
    even = mix
    even += p
    if r:  # the center couples to each pair as sqrt(2) P(x, 0), and to itself as P(0, 0)
        even[0, 1:] = math.sqrt(2.0) * p[0, 1:]
        even[1:, 0] = math.sqrt(2.0) * p[1:, 0]
        even[0, 0] = p[0, 0]
    del p  # only the blocks are needed from here
    return DiscretizedDensityMatrix(grid, even, odd)


def purity_from_eigenvalues(dm: DiscretizedDensityMatrix) -> float:
    lam = dm.eigenvalues()
    return float(np.dot(lam, lam))

