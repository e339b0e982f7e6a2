import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fmux import cli, defaults, heralded
from fmux.heralded import (
    JITTER_SPAN_SIGMAS,
    VACUOUS_NORM,
    DiscretizedDensityMatrix,
    HeraldedStateModel,
    _block_spectrum,
    _error_kernel,
    _error_table,
    _herald_factor,
    _herald_mixture,
    _kernels,
    _pivoted_cholesky,
    _purity_factored,
    assemble_density_matrix,
    gvd_parameter,
    purity_from_eigenvalues,
    purity_integral,
)
from fmux.scenarios import ConfigError, _converged_purity, load_config
from fmux.serrodyne import QuadratureConvergenceError
from fmux.spectral import GaussianWindow, apply_filter, build_anticorrelated_jsa
from fmux.spectral import FilterOverlapError, FrequencyGrid, schmidt_purity, scaled_points
from fmux.spectrometer import MEASURED_JITTER_FREQ_STD
from oracles import parity_fold

GHZ = defaults.TWO_PI * 1e9


def hermitize(m: np.ndarray) -> np.ndarray:
    """Oracle: the Hermitian part of a complex matrix."""
    return 0.5 * (m + m.conj().T)


CFG = load_config("purity-combined")
COMBINED_MODEL = CFG.heralded_model()
JITTER_ONLY_MODEL = CFG.heralded_model(gvd=False)
GVD_ONLY_MODEL = CFG.heralded_model(jitter=False)

# production operating points, pinned after grid-convergence scans
JITTER_ONLY = 0.9067385
GVD_ONLY = 0.9372628
COMBINED = 0.8530951


def small_model(**overrides):
    overrides.setdefault("n_signal", 201)
    overrides.setdefault("n_herald", 17)
    overrides.setdefault("n_jitter", 65)
    return replace(COMBINED_MODEL, **overrides)


def herald_kernel(model, h0=0.0):
    """Oracle: shift nodes h over the accepted window, weights normalized.

    The window is centred on the mean shift h0 from the filter center; the
    model's own window has h0 = 0.
    """
    n = model.n_herald
    half = 0.5 * model.herald_width
    h = np.linspace(-half, half, n) + h0
    w = FrequencyGrid(0.0, model.herald_width, n).trapezoid_weights()
    return h, w / w.sum()


def herald_cos_sum(phi, n_herald):
    """Oracle: the trapezoid mean of cos(k phi) over k = -L ... L, 2L + 1 = n_herald, as a sum."""
    k = np.arange(n_herald) - 0.5 * (n_herald - 1)
    w = FrequencyGrid(0.0, 1.0, n_herald).trapezoid_weights()
    return np.cos(np.multiply.outer(phi, k)) @ (w / w.sum())


def error_mixture(model):
    """Oracle: (e, q, grid, x), the error nodes and weights q = we / norms_sq on the signal grid.

    The engine's kernels as they once were: each wavepacket's squared norm summed over the
    whole signal grid, averaged with its mirror image so that it is exactly even, and the
    error nodes whose norm is at most VACUOUS_NORM of the free norm dropped, the rest
    renormalized. e and x are exactly odd and q exactly even.
    """
    e, we = _error_kernel(model)
    grid = model.signal_grid
    g2 = np.exp(-((grid.detunings[None, :] - e[:, None]) / model.sigma) ** 2)
    norms_sq = g2 @ grid.trapezoid_weights()
    norms_sq = 0.5 * (norms_sq + norms_sq[::-1])
    keep = norms_sq > VACUOUS_NORM * model.sigma * math.sqrt(math.pi)
    if not np.all(keep):
        e, we, norms_sq = e[keep], we[keep] / we[keep].sum(), norms_sq[keep]
    return e, we / norms_sq, grid, heralded._odd(grid.detunings)


def pair_weight_purity(model):
    """Oracle: the purity sum as the engine once took it, through error-pair weights.

    rho(x, y)^2 = r(x - y)^2 sum_ij q_i q_j g(x - e_i) g(y - e_i) g(x - e_j) g(y - e_j), and
    the four Gaussians are exp(-(x - y)^2 / 2 sig^2) exp(-(e_i - e_j)^2 / 2 sig^2)
    exp(-2 (m - mu_ij)^2 / sig^2), m = (x + y) / 2 and mu_ij = (e_i + e_j) / 2. So the sum is
    sum_ab w_a w_b F(x_a - x_b) G((x_a + x_b) / 2) with G(m) = sum_k W_k exp(-2 (m - mu_k)^2 /
    sig^2), W_k the pair weights with i + j = k: a bincount, and an n x (2 ne - 1) table.
    """
    e, q, grid, x = error_mixture(model)
    ne, n = e.size, x.size
    sig = model.sigma
    es = e / sig
    pairs = np.outer(q, q) * np.exp(-0.5 * (es[:, None] - es[None, :]) ** 2)
    w_mid = np.bincount(np.add.outer(np.arange(ne), np.arange(ne)).ravel(), pairs.ravel())
    mids = np.linspace(0.0, es[-1], ne)
    mids = np.concatenate([-mids[:0:-1], mids])
    m = np.linspace(0.0, x[-1] / sig, n)  # G is even: m_j = j dx / 2 >= 0
    g = np.exp(-2.0 * (m[:, None] - mids[None, :]) ** 2) @ w_mid
    lags = np.arange(n)
    f = _herald_factor(model, lags) ** 2 * np.exp(-0.5 * (lags * (grid.step / sig)) ** 2)
    # each diagonal a - b = d sums G over j = -J, -J + 2, ..., J, J = n - 1 - d, its two
    # ends at trapezoid weight 1/2 (the corners of the main diagonal at 1/4)
    acc = g.copy()
    acc[0] = 0.0
    acc[0::2] = np.cumsum(acc[0::2])
    acc[1::2] = np.cumsum(acc[1::2])
    diag = 2.0 * acc - g
    diag[0::2] += g[0]
    diag[0] += 0.25 * g[0]
    diag[-1] -= 0.5 * g[-1]
    total = 2.0 * (f @ diag[::-1]) - f[0] * diag[-1]
    return float(grid.step * grid.step * total)


def two_gemm_assembly(model) -> DiscretizedDensityMatrix:
    """Oracle: the parity blocks as the engine once built them, from two real GEMMs.

    a holds the envelopes times sqrt(w) at x >= 0, one row per error node, and a[::-1]
    those at -x (e exactly odd, q exactly even). P = (a^T q) a times the Toeplitz herald
    factor r(|i - j|) and M = (a^T q) a[::-1] times the Hankel r(i + j + 1 - n % 2);
    even = P + M (the center as sqrt(2) P) and odd = P - M over x > 0, each symmetrized.
    """
    e, q, grid, x = error_mixture(model)
    n = x.size
    lo, r = n // 2, n % 2
    m = n - lo
    a = np.exp(-0.5 * ((x[None, lo:] - e[:, None]) / model.sigma) ** 2)
    a *= np.sqrt(grid.trapezoid_weights()[lo:])
    qa = a.T * q
    p, mix = qa @ a, qa @ a[::-1]
    rc = _herald_factor(model, np.arange(n))
    i = np.arange(m)
    p *= rc[np.abs(i[:, None] - i[None, :])]
    mix *= rc[i[:, None] + i[None, :] + 1 - r]
    odd = p[r:, r:] - mix[r:, r:]
    even = mix + p
    if r:
        even[0, 1:] = math.sqrt(2.0) * p[0, 1:]
        even[1:, 0] = math.sqrt(2.0) * p[1:, 0]
        even[0, 0] = p[0, 0]
    return DiscretizedDensityMatrix(grid, 0.5 * (even + even.T), 0.5 * (odd + odd.T))


def window_table_purity(model):
    """Oracle: the same discrete sum through window-integral tables and one GEMM.

    Window integrals S(m, dh) = sum_x wx exp(-(x-m)^2/sig^2) exp(-2i gamma dh x) at the
    midpoints m = (e_i + e_j) / 2, i + j indexing linspace(e[0], e[-1], 2 ne - 1), against
    the herald-shift differences dh, weighted by the herald autocorrelation. x and wx are
    symmetric, so S(-m, dh) = conj S(m, dh): only m >= 0 is tabulated. x is exactly odd, so
    the reversed grid is x -> -x: cos pairs with the even part of the envelope and sin with
    its odd part.
    """
    e, q, grid, x = error_mixture(model)
    h, wh = herald_kernel(model)
    ne = e.size
    wx = grid.trapezoid_weights()
    sig = model.sigma

    mids = np.linspace(0.0, e[-1], ne)  # m >= 0: indices ne - 1 ... 2 ne - 2
    env = np.exp(-((x[None, :] - mids[:, None]) / sig) ** 2) * wx  # (m, x)
    even, odd = 0.5 * (env + env[:, ::-1]), 0.5 * (env - env[:, ::-1])
    dh = np.arange(h.size) * (h[1] - h[0])  # non-negative differences; |S| is even in dh
    phase = 2.0 * model.gamma * np.outer(x, dh)  # (x, dh)
    s_abs_sq = (even @ np.cos(phase)) ** 2 + (odd @ np.sin(phase)) ** 2  # |S(m, dh)|^2

    c = np.correlate(wh, wh, mode="full")[h.size - 1 :]  # herald autocorrelation, dh >= 0
    scale = np.ones_like(c) * 2.0
    scale[0] = 1.0
    t_half = s_abs_sq @ (c * scale)  # T(m) = sum_dh c |S|^2 over signed dh, for m >= 0
    t_mid = np.concatenate([t_half[:0:-1], t_half])  # T(-m) = T(m)

    gauss = np.exp(-((e[:, None] - e[None, :]) ** 2) / (2.0 * sig * sig))
    kernel = np.outer(q, q) * gauss
    mid_index = np.add.outer(np.arange(ne), np.arange(ne))
    return float(np.sum(kernel * t_mid[mid_index]))


def test_gvd_parameter_magnitude_and_sign():
    g = gvd_parameter(18.0, 300.0, 1535e-9)
    assert g < 0  # anomalous dispersion at 1535 nm
    assert 3.2e-24 <= abs(g) <= 3.5e-24
    assert math.isclose(abs(g), 3.377e-24, rel_tol=1e-3)
    assert math.isclose(gvd_parameter(18.0, 600.0, 1535e-9), 2.0 * g, rel_tol=1e-12)
    assert math.isclose(CFG.gamma(), g, rel_tol=1e-12)


def test_gvd_parameter_validates():
    with pytest.raises(ValueError):
        gvd_parameter(18.0, 0.0, 1535e-9)


@dataclass(frozen=True)
class ConditionalWavepacket:
    """Post-shift signal amplitude for one (herald outcome, true idler) event."""

    herald_detuning: float
    idler_detuning: float
    grid: FrequencyGrid
    amplitude: np.ndarray
    norm_sq: float  # filtered squared norm before normalization


def conditional_wavepacket(herald: float, idler: float,
                           model: HeraldedStateModel) -> ConditionalWavepacket:
    """Oracle: the shifted conditional signal wavepacket, built event by event.

    herald and idler are the measured and true idler detunings from
    degeneracy; the herald is also the applied shift h. The filtered Gaussian
    envelope displaced by e = herald - idler, with the pre-shift quadratic
    dispersion phase in (x - h), normalized on the signal grid.
    """
    grid = model.signal_grid
    x = grid.detunings
    amp = np.exp(-0.5 * ((x - (herald - idler)) / model.sigma) ** 2) * np.exp(
        1j * model.gamma * (x - herald) ** 2)
    norm_sq = float(grid.trapezoid_weights() @ (np.abs(amp) ** 2))
    return ConditionalWavepacket(float(herald), float(idler), grid, amp / math.sqrt(norm_sq),
                                 norm_sq)


def purity_from_trace(dm: DiscretizedDensityMatrix) -> float:
    """Oracle: Tr(rho^2) as the weighted Frobenius norm of the rebuilt rho, no diagonalization."""
    w = dm.grid.trapezoid_weights()
    return float(np.einsum("i,j,ij->", w, w, dm.matrix() ** 2))


def weighted(dm: DiscretizedDensityMatrix) -> np.ndarray:
    """sqrt(w) rho sqrt(w), n x n, unfolded from the blocks: its spectrum is the state's."""
    sw = np.sqrt(dm.grid.trapezoid_weights())
    return sw[:, None] * dm.matrix() * sw[None, :]


def test_conditional_wavepacket_is_normalized():
    m = small_model()
    wp = conditional_wavepacket(20.0 * GHZ, 12.0 * GHZ, m)
    w = m.signal_grid.trapezoid_weights()
    assert abs(w @ np.abs(wp.amplitude) ** 2 - 1.0) < 1e-9


def test_conditional_wavepacket_vacuous_event():
    # an idler so far off that the displaced envelope misses the filter: the
    # engine's norms put that error node, and its mirror, below the vacuous cut
    m = small_model()
    free = m.sigma * math.sqrt(math.pi)
    far = 1000.0 * GHZ
    events = [conditional_wavepacket(0.0, -e, m) for e in (-far, 0.0, far)]
    assert events[0].norm_sq <= VACUOUS_NORM * free and events[2].norm_sq <= VACUOUS_NORM * free
    _, norms_sq = _error_table(m, np.array([-far, 0.0, far]))
    assert (norms_sq > VACUOUS_NORM * free).tolist() == [False, True, False]
    assert abs(norms_sq[1] - events[1].norm_sq) <= 1e-14 * events[1].norm_sq


def test_perfect_detection_no_dispersion_is_pure():
    m = replace(GVD_ONLY_MODEL, gamma=0.0, n_signal=201, n_herald=17, n_jitter=65)
    assert abs(purity_integral(m) - 1.0) < 1e-12


def direct_purity(model, h0=0.0):
    """Oracle: the literal Gram-matrix sum over every pair of (herald, error) events.

    Same nodes, weights and vacuous-event rule as the engine, but no window
    tables: each normalized wavepacket is a row, and the purity is the
    mixture-weighted sum of squared overlaps between all rows. The herald
    window is centred on the mean shift h0 (herald_kernel).
    """
    e, q, grid, _ = error_mixture(model)
    h, wh = herald_kernel(model, h0)
    x = grid.detunings
    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / model.sigma) ** 2)  # (e, x)
    chirp = np.exp(1j * model.gamma * (x[None, :] - h[:, None]) ** 2)  # (h, x)
    rows = (chirp[:, None, :] * env[None, :, :]).reshape(-1, x.size)  # (h, e) flattened
    v = np.outer(wh, q).ravel()
    overlaps = (rows * grid.trapezoid_weights()) @ rows.conj().T
    return float(v @ np.abs(overlaps) ** 2 @ v)


def small(model, **overrides):
    return replace(model, **{"n_signal": 201, "n_herald": 17, "n_jitter": 65, **overrides})


# a herald window 30 GHz off the filter center has its mean shift h0 there; the engine has
# no such window, and the oracles that take h0 check that it would not change the state
OFF_CENTER_H0 = 30.0 * GHZ

# a 4x wider error std, as from a quarter of the spectrometer dispersion: the filter
# wipes out the outer error nodes and the vacuous cut drops them
VACUOUS_CUT_MODEL = small(COMBINED_MODEL, error_std=4.0 * COMBINED_MODEL.error_std)
PARITY_CASES = [small(COMBINED_MODEL, n_signal=200), small(GVD_ONLY_MODEL),
                small(JITTER_ONLY_MODEL), small(COMBINED_MODEL), VACUOUS_CUT_MODEL]
PARITY_IDS = ["even_n_signal", "gvd_only_single_node", "jitter_only_gamma_zero", "combined",
              "vacuous_cut"]
PARITY_MODELS = pytest.mark.parametrize("model", PARITY_CASES, ids=PARITY_IDS)

# 200 km of delay fiber instead of 300 m: across the filter the herald phase step
# phi = 2 gamma dh (x - y) passes 2 pi once, and with 32 herald nodes (about 4x the
# spacing) several times
DELAY_200KM_MODEL = replace(COMBINED_MODEL, gamma=COMBINED_MODEL.gamma * 200e3 / 300.0)
ORACLE_MODELS = pytest.mark.parametrize(
    "model",
    [*PARITY_CASES, small(COMBINED_MODEL, n_herald=16), small(COMBINED_MODEL, n_jitter=64),
     *(m.scaled(scale) for m in (JITTER_ONLY_MODEL, GVD_ONLY_MODEL, COMBINED_MODEL)
       for scale in (0.5, 1.0, 2.0)),
     replace(COMBINED_MODEL, error_std=4.0 * COMBINED_MODEL.error_std).scaled(2.0),
     DELAY_200KM_MODEL, replace(DELAY_200KM_MODEL, n_herald=32)],
    ids=[*PARITY_IDS, "even_n_herald", "even_n_jitter",
         *(f"{name}_x{scale}" for name in ("jitter_only", "gvd_only", "combined")
           for scale in (0.5, 1, 2)),
         "dispersion_4_ps_per_ghz_x2", "delay_200km", "delay_200km_32_heralds"])


@PARITY_MODELS
def test_factored_matches_direct(model):
    assert abs(_purity_factored(model) - direct_purity(model)) < 1e-12


def test_factored_matches_direct_off_center():
    # a herald window centred h0 off the filter center mixes the same state, seen in another
    # co-moving frame: the engine, which has no window center, gives its purity
    model = small(COMBINED_MODEL)
    assert abs(_purity_factored(model) - direct_purity(model, OFF_CENTER_H0)) < 1e-12


@ORACLE_MODELS
def test_engine_matches_window_table_oracle(model):
    oracle = window_table_purity(model)
    assert abs(_purity_factored(model) - oracle) <= 1e-13 * oracle


def herald_phase_span(model):
    """The largest |phi| the herald factor sees: its phase step times the filter width."""
    dh = model.herald_width / (model.n_herald - 1)
    return abs(2.0 * model.gamma * dh * model.filter_width)


def test_delay_200km_models_pass_multiples_of_two_pi():
    assert 2.0 * math.pi < herald_phase_span(DELAY_200KM_MODEL) < 4.0 * math.pi
    assert herald_phase_span(replace(DELAY_200KM_MODEL, n_herald=32)) > 6.0 * math.pi


HERALD_COUNTS = pytest.mark.parametrize("n_herald", [3, 4, 17, 32, 129, 130])


@HERALD_COUNTS
def test_herald_mixture_matches_cos_sum(n_herald):
    phi = np.concatenate([np.linspace(-8.0 * math.pi, 8.0 * math.pi, 4001),
                          [1e3, -12345.678, 1e5, -3.3e5, 1e6]])
    err = np.abs(_herald_mixture(phi, n_herald) - herald_cos_sum(phi, n_herald))
    # the cos sum rounds each k phi and each of its n_herald additions, so its own error
    # is about n_herald + L |phi| ulps
    half_count = 0.5 * (n_herald - 1)
    assert np.all(err <= 4.0 * np.spacing(1.0) * (n_herald + half_count * np.abs(phi)))


@HERALD_COUNTS
def test_herald_mixture_is_exactly_one_at_vanishing_phase(n_herald):
    phi = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-310, 5e-324])
    assert np.all(_herald_mixture(phi, n_herald) == 1.0)
    assert np.abs(herald_cos_sum(phi, n_herald) - 1.0).max() <= n_herald * np.spacing(1.0)


@HERALD_COUNTS
def test_herald_mixture_peaks_at_multiples_of_two_pi(n_herald):
    # at phi = 2 pi k every cos(k' phi) is 1 on integer nodes k' (odd count) and (-1)^k on
    # the half-integer nodes of an even count; an ulp off the peak moves r by far less
    # than an ulp. The bare ratio sin(L phi) / (2L tan(phi / 2)) is two rounding errors there
    for k in (1, 2, 3, 7, 50, 1000):
        peak = 2.0 * k * math.pi
        phi = np.array([peak, np.nextafter(peak, 0.0), np.nextafter(peak, np.inf), -peak])
        expected = (-1.0) ** ((n_herald - 1) * k)
        assert np.abs(_herald_mixture(phi, n_herald) - expected).max() <= np.spacing(1.0)


@HERALD_COUNTS
def test_herald_factor_without_dispersion_is_exactly_one(n_herald):
    m = replace(small(JITTER_ONLY_MODEL), n_herald=n_herald)
    assert m.gamma == 0.0
    assert np.all(_herald_factor(m, np.arange(m.n_signal)) == 1.0)


@pytest.mark.parametrize("model, h0", [(small(COMBINED_MODEL), 0.0),
                                       (small(COMBINED_MODEL, n_herald=16), 0.0),
                                       (small(COMBINED_MODEL), OFF_CENTER_H0),
                                       (DELAY_200KM_MODEL, 0.0)],
                         ids=["combined", "even_n_herald", "off_center", "delay_200km"])
def test_herald_factor_matches_cosine_table_on_the_herald_nodes(model, h0):
    h, wh = herald_kernel(model, h0)
    lags = np.arange(model.n_signal)
    table = np.cos(2.0 * model.gamma * model.signal_grid.step * np.outer(lags, h - h0)) @ wh
    assert np.abs(_herald_factor(model, lags) - table).max() <= 1e-13


@PARITY_MODELS
def test_norms_squared_in_one_buffer_is_bit_identical(model):
    # the error table, built in one buffer, is the plain expression bit for bit; the
    # norms read off its columns x >= 0 by parity are those summed over the whole grid
    e, _ = _error_kernel(model)
    grid = model.signal_grid
    n = grid.points
    table, norms_sq = _error_table(model, e)
    m = np.linspace(0.0, 0.5 * grid.span, n)
    assert np.array_equal(table, np.exp(-((m[None, :] - e[:, None]) / model.sigma) ** 2))
    # every other midpoint is a node x >= 0, to the rounding of the two linspaces
    nodes = heralded._odd(grid.detunings)[n // 2 :]
    assert np.abs(m[(n - 1) % 2 :: 2] - nodes).max() <= 4.0 * np.spacing(nodes[-1])
    g2 = np.exp(-((grid.detunings[None, :] - e[:, None]) / model.sigma) ** 2)
    direct = g2 @ grid.trapezoid_weights()
    assert np.abs(norms_sq - direct).max() <= 1e-14 * direct.max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jitter_just_inside_the_squarable_reach_never_overflows(tmp_path):
    # heralded_model bounds (JITTER_SPAN_SIGMAS s + filter half-width) / pump sigma below
    # half the root of the largest float; the reach scales as one over the dispersion
    bound = 0.5 * math.sqrt(sys.float_info.max)
    default = load_config("purity-jitter", grid_scale=0.5).heralded_model()
    sig = default.sigma
    span = JITTER_SPAN_SIGMAS * default.error_std / sig
    inside = 16.0 * span / (0.999 * bound - 0.5 * default.filter_width / sig)
    for dispersion, admitted in [(inside, True), (0.5 * inside, False)]:
        path = tmp_path / "wide.cfg"
        path.write_text(f"[spectrometer]\ndispersion_ps_per_ghz = {dispersion!r}\n")
        cfg = load_config("purity-jitter", config_path=path, grid_scale=0.5)
        if not admitted:
            with pytest.raises(ConfigError) as err:
                cfg.heralded_model()
            assert err.value.field == "spectrometer.dispersion_ps_per_ghz"
            continue
        model = cfg.heralded_model()
        reach = (JITTER_SPAN_SIGMAS * model.error_std + 0.5 * model.filter_width) / model.sigma
        assert 0.99 * bound < reach < bound
        try:
            value = _converged_purity(model)
        except ConfigError as err:
            assert err.field in cfg.params
        else:
            assert 0.0 < value <= 1.0


@PARITY_MODELS
def test_kernels_are_exactly_symmetric(model):
    e, we = _error_kernel(model)
    _, norms_sq = _error_table(model, e)
    assert np.array_equal(e, -e[::-1]) and np.array_equal(we, we[::-1])
    assert np.array_equal(norms_sq, norms_sq[::-1])  # so the cut keeps +/-e pairs
    lag, mid = _kernels(model)
    assert lag.size == mid.size == model.n_signal
    # h(m) over every midpoint j dx / 2, j = -(n - 1) ... n - 1, from the oracle's
    # symmetric nodes: even, and its half m >= 0 is the engine's table
    e, q, grid, x = error_mixture(model)
    assert np.array_equal(x, -x[::-1]) and x.size == model.n_signal
    m = np.linspace(-x[-1], x[-1], 2 * x.size - 1)
    h = q @ np.exp(-((m[None, :] - e[:, None]) / model.sigma) ** 2)
    assert np.abs(h - h[::-1]).max() <= 1e-14 * h.max()
    assert np.abs(mid - h[x.size - 1 :]).max() <= 1e-13 * h.max()


def test_filter_that_passes_nothing_is_an_error():
    # 1e-13 of the pump width passes about 6e-14 of even the undisplaced wavepacket
    m = small_model(filter_width=1e-13 * COMBINED_MODEL.sigma)
    with pytest.raises(FilterOverlapError, match="every conditional wavepacket"):
        _kernels(m)


def test_vacuous_cut_drops_nodes_in_pairs():
    e, q, _, _ = error_mixture(VACUOUS_CUT_MODEL)
    full, we = _error_kernel(VACUOUS_CUT_MODEL)
    assert 1 < e.size < full.size and (full.size - e.size) % 2 == 0
    assert np.array_equal(e, full[(full.size - e.size) // 2 : (full.size + e.size) // 2])
    # the engine's h is the kept nodes' mixture, far from the mixture of them all
    _, mid = _kernels(VACUOUS_CUT_MODEL)
    kept = q @ _error_table(VACUOUS_CUT_MODEL, e)[0]
    table, norms_sq = _error_table(VACUOUS_CUT_MODEL, full)
    every = (we / norms_sq) @ table
    assert np.abs(mid - kept).max() <= 1e-13 * kept.max()
    assert np.abs(mid - every).max() > 1e-3 * kept.max()


BLOCK_MODELS = pytest.mark.parametrize(
    "model", [small_model(n_signal=201), small_model(n_signal=200)], ids=["odd", "even"])


def record_blocks(monkeypatch) -> list:
    """Spy on the block solver: the list of blocks it is given, in order."""
    blocks = []
    solve = heralded._block_spectrum

    def recording(b):
        blocks.append(b)
        return solve(b)

    monkeypatch.setattr(heralded, "_block_spectrum", recording)
    return blocks


@BLOCK_MODELS
def test_parity_blocked_spectrum_matches_full_solve(model, monkeypatch):
    from scipy import linalg

    blocks = record_blocks(monkeypatch)
    n_signal = model.n_signal
    dm = assemble_density_matrix(model)
    # the stored even block, then the odd, each exactly symmetric
    assert blocks[0] is dm.even and blocks[1] is dm.odd and len(blocks) == 2
    assert [len(b) for b in blocks] == [(n_signal + 1) // 2, n_signal // 2]
    assert all(np.array_equal(b, b.T) for b in blocks)
    rho = dm.matrix()
    assert np.array_equal(rho, rho[::-1, ::-1])  # unfolded exactly centrosymmetric
    assert np.array_equal(rho, rho.T)
    full = linalg.eigvalsh(weighted(dm))
    assert np.abs(dm.eigenvalues() - full).max() <= 1e-12


@pytest.mark.parametrize("n_signal", [201, 200], ids=["odd", "even"])
def test_blocks_round_trip_through_the_whole_matrix(n_signal):
    dm = assemble_density_matrix(small_model(n_signal=n_signal))
    # blocks handed to the constructor are kept as they are, bit for bit
    again = DiscretizedDensityMatrix(dm.grid, dm.even, dm.odd)
    assert again.even is dm.even and again.odd is dm.odd
    assert np.array_equal(again.eigenvalues(), dm.eigenvalues())
    # through the whole rho: unfolding divides by sqrt(w) and the odd block is a
    # difference, so the oracle fold of the rebuilt rho gives the blocks back to
    # within a few ulps of the largest entry, not bit for bit
    rho = dm.matrix()
    assert rho.shape == (n_signal, n_signal) and rho.dtype == np.float64
    folded = DiscretizedDensityMatrix(dm.grid, *parity_fold(dm.grid, rho))
    top = max(np.abs(dm.even).max(), np.abs(dm.odd).max())
    for got, want in [(folded.even, dm.even), (folded.odd, dm.odd)]:
        assert np.abs(got - want).max() <= 4.0 * np.spacing(top)
    assert np.abs(folded.eigenvalues() - dm.eigenvalues()).max() <= 1e-15


def brute_force_purity(model):
    """Mixture purity by explicit accumulation over the same quadrature nodes.

    Independent of the engine algebra: builds each normalized wavepacket via
    the public constructor, accumulates the density matrix as an outer-product
    sum with trapezoid-rule mixture weights, and contracts the purity directly.
    """
    s = model.error_std
    grid = model.signal_grid
    w = grid.trapezoid_weights()
    if s > 0:
        e_nodes = np.linspace(-JITTER_SPAN_SIGMAS * s, JITTER_SPAN_SIGMAS * s, model.n_jitter)
        e_w = np.exp(-0.5 * (e_nodes / s) ** 2)
        e_w[0] *= 0.5
        e_w[-1] *= 0.5
    else:
        e_nodes, e_w = np.array([0.0]), np.array([1.0])
    half = 0.5 * model.herald_width
    h_nodes = np.linspace(-half, half, model.n_herald)
    h_w = np.full(model.n_herald, 1.0)
    h_w[0] *= 0.5
    h_w[-1] *= 0.5

    rho = np.zeros((grid.points, grid.points), dtype=complex)
    total = 0.0
    for h, wh in zip(h_nodes, h_w):
        for e, we in zip(e_nodes, e_w):
            psi = conditional_wavepacket(h, h - e, model).amplitude
            rho += wh * we * np.outer(psi, psi.conj())
            total += wh * we
    rho /= total
    return float(np.real(np.einsum("i,j,ij,ji->", w, w, rho, rho)))


def test_brute_force_oracle_combined():
    m = small_model()
    assert abs(brute_force_purity(m) - _purity_factored(m)) < 1e-12


def test_brute_force_oracle_jitter_only():
    m = small_model(gamma=0.0)
    assert abs(brute_force_purity(m) - _purity_factored(m)) < 1e-12


def test_jitter_only_operating_point():
    assert abs(purity_integral(JITTER_ONLY_MODEL) - JITTER_ONLY) < 1e-4


def test_gvd_only_operating_point():
    assert abs(purity_integral(GVD_ONLY_MODEL) - GVD_ONLY) < 1e-4


def test_combined_operating_point():
    assert abs(purity_integral(COMBINED_MODEL) - COMBINED) < 1e-4


def test_combined_is_near_product_of_mechanisms():
    # the two depolarization channels act on nearly orthogonal structure
    product = JITTER_ONLY * GVD_ONLY
    assert abs(COMBINED - product) < 0.005


def test_density_matrix_paths_agree_with_quadrature():
    m = small_model(n_herald=33)
    dm = assemble_density_matrix(m)
    p_eig = purity_from_eigenvalues(dm)
    p_tr = purity_from_trace(dm)
    p_quad = _purity_factored(m)
    assert abs(p_eig - p_tr) < 1e-10
    assert abs(p_tr - p_quad) < 1e-10


def test_density_matrix_is_a_state():
    dm = assemble_density_matrix(small_model())
    w = dm.grid.trapezoid_weights()
    rho = dm.matrix()
    assert abs(float(w @ np.diag(rho)) - 1.0) < 1e-6
    assert abs(float(np.trace(dm.even) + np.trace(dm.odd)) - 1.0) < 1e-6
    assert np.allclose(rho, rho.T, atol=1e-9 * np.abs(rho).max())
    lam = dm.eigenvalues()
    assert lam.min() > -1e-8
    assert abs(lam.sum() - 1.0) < 1e-6


def einsum_density_matrix(model, h0=0.0):
    """Oracle: the mixture products as 3-operand einsums over the kernel nodes.

    The lab-frame matrix for a herald window centred on the mean shift h0.
    """
    e, q, grid, _ = error_mixture(model)
    h, wh = herald_kernel(model, h0)
    x = grid.detunings
    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / model.sigma) ** 2)
    m_env = np.einsum("k,kx,ky->xy", q, env, env)
    chirp = np.exp(1j * model.gamma * (x[None, :] - h[:, None]) ** 2)
    m_chirp = np.einsum("k,kx,ky->xy", wh, chirp, chirp.conj())
    return hermitize(m_env * m_chirp)


def co_moving(model, matrix, h0=0.0):
    """The lab-frame matrix seen in the frame of the delay-line phase exp(i gamma (x - h0)^2).

    h0 is the mean herald shift. In this frame the matrix is real symmetric
    and the same for every h0; assemble_density_matrix stores it.
    """
    x = model.signal_grid.detunings
    phase = np.exp(1j * model.gamma * (x - h0) ** 2)
    return phase.conj()[:, None] * matrix * phase[None, :]


FRAME_CASES = [(JITTER_ONLY_MODEL, 0.0), (GVD_ONLY_MODEL, 0.0), (COMBINED_MODEL, 0.0),
               (COMBINED_MODEL, OFF_CENTER_H0)]
FRAME_IDS = ["jitter_only_model", "gvd_only_model", "default_model", "off_center_model"]
FRAME_MODELS = pytest.mark.parametrize("model, h0", FRAME_CASES, ids=FRAME_IDS)


@FRAME_MODELS
def test_gemm_assembly_matches_einsum_oracle(model, h0):
    m = model.scaled(0.5)
    rho = assemble_density_matrix(m).matrix()
    oracle = einsum_density_matrix(m, h0)
    assert rho.dtype == np.float64
    assert np.abs(rho - co_moving(m, oracle, h0)).max() <= 1e-12 * np.abs(oracle).max()


def whole_matrix_assembly(model) -> np.ndarray:
    """Oracle: rho assembled as one n x n array, as the package once did.

    The rows x >= 0 by one GEMM against every x, times the Toeplitz herald
    factor; the center row symmetrized; the rows mirrored; and the whole
    matrix symmetrized as (rho + rho^T) / 2.
    """
    e, q, _, x = error_mixture(model)
    n = x.size
    lo, r = n // 2, n % 2
    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / model.sigma) ** 2)
    rc = heralded._herald_factor(model, np.arange(n))
    toeplitz = rc[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]
    half = ((env[:, lo:].T * q) @ env) * toeplitz[lo:]
    if r:
        half[0] = 0.5 * (half[0] + half[0, ::-1])
    rho = np.empty((n, n))
    rho[lo:] = half
    rho[:lo] = half[r:][::-1, ::-1]
    return 0.5 * (rho + rho.T)


@pytest.mark.parametrize("model", [JITTER_ONLY_MODEL, GVD_ONLY_MODEL, COMBINED_MODEL],
                         ids=FRAME_IDS[:3])
def test_blocks_match_the_whole_matrix_oracle(model):
    for scale in (0.5, 1.0):
        base = model.scaled(scale)
        # a center node and none: the lag from x to -y is i + j + 1 - n % 2
        for m in (base, replace(base, n_signal=base.n_signal - 1)):
            dm = assemble_density_matrix(m)
            rho = whole_matrix_assembly(m)
            w = m.signal_grid.trapezoid_weights()
            blocks = parity_fold(m.signal_grid, rho)
            top = max(np.abs(b).max() for b in blocks)
            assert np.abs(dm.even - blocks[0]).max() <= 1e-13 * top
            assert np.abs(dm.odd - blocks[1]).max() <= 1e-13 * top
            spectrum = np.sort(np.concatenate([_block_spectrum(b) for b in blocks]))
            assert np.abs(dm.eigenvalues() - spectrum).max() <= 1e-13 * spectrum[-1]
            assert abs(np.trace(dm.even) + np.trace(dm.odd) - w @ np.diag(rho)) <= 1e-13
            p = w * np.diag(rho)
            assert np.abs(w * np.diag(dm.matrix()) - p).max() <= 1e-13 * p.max()
            x = m.signal_grid.detunings
            width = math.sqrt(float(p @ (x - float(p @ x)) ** 2))
            assert abs(dm.intensity_width() - width) <= 1e-13 * width


# small models: odd and even signal counts, the error std and the delay-line gamma scaled.
# At 4x the error std every drawn model drops vacuous error nodes
SMALL_MODELS = dict(
    n_signal=st.integers(3, 41), n_herald=st.integers(3, 17), n_jitter=st.integers(3, 17),
    error=st.sampled_from([4.0, 1.0, 0.25]), gamma=st.sampled_from([0.0, 1.0, 30.0]))


def drawn_model(n_signal, n_herald, n_jitter, error, gamma):
    m = COMBINED_MODEL
    return replace(m, error_std=error * m.error_std, gamma=gamma * m.gamma,
                   n_signal=n_signal, n_herald=n_herald, n_jitter=n_jitter)


@settings(max_examples=40)
@given(**SMALL_MODELS)
def test_block_spectrum_matches_the_unfolded_dense_spectrum(**draw):
    dm = assemble_density_matrix(drawn_model(**draw))
    assert np.abs(dm.eigenvalues() - np.linalg.eigvalsh(weighted(dm))).max() <= 1e-12


@settings(max_examples=40)
@given(**SMALL_MODELS)
@example(n_signal=201, n_herald=17, n_jitter=65, error=4.0,
         gamma=1.0)  # the vacuous-cut model, VACUOUS_CUT_MODEL
def test_separable_factors_match_the_pair_weight_and_two_gemm_engines(**draw):
    model = drawn_model(**draw)
    oracle = pair_weight_purity(model)
    assert abs(_purity_factored(model) - oracle) <= 1e-13 * oracle
    dm, old = assemble_density_matrix(model), two_gemm_assembly(model)
    top = max(np.abs(old.even).max(), np.abs(old.odd).max())
    assert np.abs(dm.even - old.even).max() <= 1e-13 * top
    assert np.abs(dm.odd - old.odd).max() <= 1e-13 * top
    width = old.intensity_width()
    assert abs(dm.intensity_width() - width) <= 1e-13 * width


def test_doubling_check_fires_on_a_wide_jitter(tmp_path, capsys):
    # at 4 ps/GHz the jitter is 180 GHz wide, and at grid scale 1 the doubled grids move
    # the purity by more than 1e-3; the scenario names the key that refines them
    path = tmp_path / "dispersion.cfg"
    path.write_text("[spectrometer]\ndispersion_ps_per_ghz = 4\n")
    model = load_config("purity-jitter", config_path=path).heralded_model(gvd=False)
    with pytest.raises(QuadratureConvergenceError, match="on grid doubling"):
        purity_integral(model)
    code = cli.main(["purity-jitter", "--config", str(path), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "run.grid_scale" in err and "on grid doubling" in err


def test_default_assembly_allocates_no_whole_matrix():
    import tracemalloc

    n = COMBINED_MODEL.n_signal
    _kernels(COMBINED_MODEL)  # the kernels are cached; this measures the assembly
    tracemalloc.start()
    try:
        dm = assemble_density_matrix(COMBINED_MODEL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dm.even.shape == ((n + 1) // 2,) * 2 and dm.odd.shape == (n // 2,) * 2
    # validation and the eigensolve included, the call never holds as much as one n x n array
    assert peak < n * n * np.dtype(np.float64).itemsize


@FRAME_MODELS
def test_real_spectrum_matches_complex_oracle_spectrum(model, h0):
    from scipy import linalg

    m = model.scaled(0.5)
    dm = assemble_density_matrix(m)
    sw = np.sqrt(dm.grid.trapezoid_weights())
    weighted = hermitize(sw[:, None] * einsum_density_matrix(m, h0) * sw[None, :])
    assert weighted.dtype == np.complex128
    assert np.abs(dm.eigenvalues() - linalg.eigvalsh(weighted)).max() <= 1e-12


@pytest.mark.parametrize("n", [7, 8], ids=["real-odd", "real-even"])
def test_centrosymmetric_state_built_directly_is_solved_by_blocks(n, monkeypatch):
    from scipy import linalg

    rng = np.random.default_rng(5)
    v = rng.normal(size=(3, n))
    b = v.T @ v
    grid = FrequencyGrid(0.0, 1.0, n)
    rho = b + b[::-1, ::-1]  # symmetric and exactly even under x -> -x
    rho = rho / (grid.trapezoid_weights() @ np.diag(rho))
    blocks = record_blocks(monkeypatch)
    dm = DiscretizedDensityMatrix(grid, *parity_fold(grid, rho))
    assert [len(b) for b in blocks] == [(n + 1) // 2, n // 2]
    assert all(np.array_equal(b, b.T) for b in blocks)  # each block exactly symmetric
    assert np.abs(dm.eigenvalues() - linalg.eigvalsh(weighted(dm))).max() <= 1e-12


def record_dense_solves(monkeypatch) -> list:
    """Spy on np.linalg.eigvalsh: the list of matrices it is given, in order."""
    solved = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or solve(a))
    return solved


@pytest.mark.parametrize("scenario, kw, overlay, grid_scale", [
    ("purity-jitter", dict(gvd=False), None, None),
    ("purity-gvd", dict(jitter=False), None, None),
    ("purity-combined", {}, None, None),
    ("hom-dip", {}, None, None),
    ("purity-jitter", dict(gvd=False), 4.0, 2.0),
], ids=["jitter", "gvd", "combined", "hom-dip", "4ps_per_ghz-grid2"])
def test_default_states_are_certified_by_the_factor(scenario, kw, overlay, grid_scale,
                                                    tmp_path, monkeypatch):
    from scipy import linalg

    path = None
    if overlay is not None:
        path = tmp_path / "dispersion.cfg"
        path.write_text(f"[spectrometer]\ndispersion_ps_per_ghz = {overlay!r}\n")
    model = load_config(scenario, config_path=path, grid_scale=grid_scale).heralded_model(**kw)
    blocks = record_blocks(monkeypatch)
    solved = record_dense_solves(monkeypatch)
    dm = assemble_density_matrix(model)
    # each block is solved through its factor's Gram matrix alone, never densely
    ranks = [len(_pivoted_cholesky(b)) for b in blocks]
    assert [len(a) for a in solved] == ranks
    assert all(0 < k < len(b) for k, b in zip(ranks, blocks))
    assert np.abs(dm.eigenvalues() - linalg.eigvalsh(weighted(dm))).max() <= 1e-12


def test_full_rank_block_runs_the_factor_to_its_size(monkeypatch):
    m = 9
    b = np.eye(m) / m  # a normalized identity: every column is a pivot
    assert _pivoted_cholesky(b).shape == (m, m)
    solved = record_dense_solves(monkeypatch)
    lam = _block_spectrum(b)
    assert len(solved) == 1 and solved[0] is not b  # the Gram matrix, not the block
    assert np.abs(np.sort(lam) - np.full(m, 1.0 / m)).max() <= 1e-12


@pytest.mark.parametrize("corner", [2.0, 1.000004], ids=["validation_input", "slightly_negative"])
def test_indefinite_block_reaches_the_dense_solve(corner, monkeypatch):
    g = FrequencyGrid(0.0, 1.0, 3)
    bad = np.array([[1.0, 0.0, corner], [0.0, 1.0, 0.0], [corner, 0.0, 1.0]])
    blocks = record_blocks(monkeypatch)
    solved = record_dense_solves(monkeypatch)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DiscretizedDensityMatrix(g, *parity_fold(g, bad))
    # the even block is diag(1/2, (1 + corner) / 4) and certified; the odd block
    # is (1 - corner) / 4, -1/4 or -1e-6, and no factor can certify it, so the
    # dense solve decides
    even, odd = blocks
    assert len(_pivoted_cholesky(odd)) == 0
    assert [a is odd for a in solved] == [False, True]


@settings(max_examples=60)
@given(n=st.integers(3, 40), rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_low_rank_even_states_match_the_dense_spectrum(n, rank, seed):
    from scipy import linalg

    v = np.random.default_rng(seed).normal(size=(rank, n))
    b = v.T @ v
    b = b + b.T  # exactly symmetric
    rho = b + b[::-1, ::-1]  # and exactly even, of rank at most 2 * rank
    grid = FrequencyGrid(0.0, 1.0, n)
    rho = rho / (grid.trapezoid_weights() @ np.diag(rho))
    dm = DiscretizedDensityMatrix(grid, *parity_fold(grid, rho))
    full = weighted(dm)
    assert np.abs(dm.eigenvalues() - linalg.eigvalsh(full)).max() <= 1e-12
    assert abs(purity_from_eigenvalues(dm) - np.sum(full * full)) <= 1e-12


def test_eigenvalues_are_cached_read_only():
    dm = assemble_density_matrix(small_model())
    lam = dm.eigenvalues()
    assert dm.eigenvalues() is lam
    assert not lam.flags.writeable
    assert np.allclose(lam, np.linalg.eigvalsh(weighted(dm)), rtol=0, atol=1e-12)


def test_parity_blocks_validation_rejects_bad_input():
    g = FrequencyGrid(0.0, 1.0, 5)  # blocks of 3 and 2 points
    even = np.diag([0.5, 0.25, 0.0])
    odd = np.diag([0.25, 0.0])
    DiscretizedDensityMatrix(g, even, odd)  # a state: unit trace, no negative eigenvalue
    asymmetric = even.copy()
    asymmetric[0, 1] = 1e-3
    skew = np.array([[0.25, 0.0], [0.0, 0.0]])
    skew[1, 0] = np.nextafter(0.0, 1.0)  # one ulp off exact symmetry
    negative = np.array([[0.5, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, -0.1]])
    # the zero state aside, each pair fails only the check named
    for bad_even, bad_odd, message in [
        (asymmetric, odd, "not exactly symmetric"),
        (even, skew, "not exactly symmetric"),
        (2.0 * even, odd, "trace"),
        (negative, odd + np.diag([0.1, 0.0]), "negative eigenvalue"),
        (even.astype(complex), odd, "not real"),
        (even, 1j * odd, "not real"),
        (np.zeros((3, 3)), np.zeros((2, 2)), "zero"),
        (np.where(even == 0.5, np.inf, even), odd, "not finite"),
        (even, np.where(odd == 0.25, np.nan, odd), "not finite"),
        # an infinite pair rho(x, -x), folded: +inf in the even block and -inf in the odd
        # one. It once passed: its spectrum reads [-inf, nan, ...], and NaN is not below the
        # negative-eigenvalue threshold
        (even + np.diag([0.0, np.inf, 0.0]), odd - np.diag([np.inf, 0.0]), "not finite"),
        (even + np.diag([0.0, np.nan, 0.0]), odd + np.diag([np.nan, 0.0]), "not finite"),
        (odd, even, "shape"),
        (even, odd.ravel(), "shape"),
    ]:
        with pytest.raises(ValueError, match=message):
            DiscretizedDensityMatrix(g, bad_even, bad_odd)


def test_density_matrix_symmetric_only_to_round_off_is_rejected():
    dm = assemble_density_matrix(small_model())
    for name in ("even", "odd"):
        blocks = {"even": dm.even.copy(), "odd": dm.odd.copy()}
        blocks[name][0, 1] = np.nextafter(blocks[name][0, 1], np.inf)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            DiscretizedDensityMatrix(dm.grid, **blocks)


def test_real_density_matrix_stays_real():
    grid = FrequencyGrid(0.0, 1.0, 3)  # the blocks of the identity on it, in float32
    even, odd = np.diag([0.5, 0.25]).astype(np.float32), np.full((1, 1), 0.25, np.float32)
    dm = DiscretizedDensityMatrix(grid, even, odd)
    assert dm.even.dtype == dm.odd.dtype == np.float64
    assert dm.matrix().dtype == np.float64
    assert dm.eigenvalues().dtype == np.float64


def test_schmidt_cross_oracle():
    """Filtered-JSA Schmidt purity against the mixture quadrature.

    A Gaussian herald acceptance of amplitude width sqrt(2) s gives an
    intensity posterior of width s, so tracing the herald reproduces the
    measurement-error mixture in the regime where the filter transmission
    is flat over the error spread.
    """
    m = JITTER_ONLY_MODEL
    herald_center = CFG.anchor()
    window = CFG.signal_filter()
    sg = FrequencyGrid(window.center, 60.0 * GHZ, 601)
    hg = FrequencyGrid(herald_center, 500.0 * GHZ, 1001)
    for s_ghz in (10.0, 5.0):
        s = s_ghz * GHZ
        engine = purity_integral(replace(m, error_std=s))
        jsa = build_anticorrelated_jsa(CFG.pump(), sg, hg)
        jsa, _ = apply_filter(jsa, GaussianWindow(herald_center, math.sqrt(2.0) * s),
                              axis="herald")
        jsa, _ = apply_filter(jsa, window, axis="signal")
        assert abs(schmidt_purity(jsa) - engine) < 1e-2


def test_purity_monotone_in_jitter():
    values = []
    for s_ghz in (10.0, 25.0, 45.0, 70.0):
        m = replace(JITTER_ONLY_MODEL, error_std=s_ghz * GHZ)
        values.append(_purity_factored(m.scaled(0.5)))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_purity_monotone_in_gvd():
    values = [_purity_factored(replace(GVD_ONLY_MODEL, gamma=g).scaled(0.5))
              for g in (0.0, -1e-24, -3.377e-24, -6e-24)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_purity_even_in_gamma_sign():
    m_neg = small_model()
    m_pos = replace(m_neg, gamma=-m_neg.gamma)
    a = _purity_factored(m_neg)
    b = _purity_factored(m_pos)
    assert abs(a - b) < 1e-12


def test_grid_refinement_converged_at_defaults():
    # doubling every quadrature moves the combined value by less than 1e-3
    m = COMBINED_MODEL
    coarse = _purity_factored(m)
    fine = _purity_factored(replace(m, n_signal=1025, n_herald=257, n_jitter=257))
    assert abs(fine - coarse) < 1e-3
    purity_integral(m)  # the built-in refinement guard agrees


def test_scaled_points():
    assert scaled_points(513, 1.0) == 513
    assert scaled_points(513, 0.5) % 2 == 1
    assert scaled_points(129, 2.0) == 257
    assert scaled_points(5, 0.01) >= 4
    m = COMBINED_MODEL
    assert m.scaled(1.0) == m
    half = m.scaled(0.5)
    assert (half.n_signal, half.n_herald, half.n_jitter) == (257, 65, 65)
    assert replace(half, n_signal=513, n_herald=129, n_jitter=129) == m


def test_grid_scale_changes_resolution_not_answer():
    half = _purity_factored(JITTER_ONLY_MODEL.scaled(0.5))
    assert abs(half - JITTER_ONLY) < 5e-3


def test_model_validation():
    nan = float("nan")
    for bad, message in [
        (dict(sigma=0.0), "pump sigma"), (dict(sigma=nan), "pump sigma"),
        (dict(filter_width=0.0), "width"), (dict(filter_width=-1.0), "width"),
        (dict(herald_width=0.0), "width"), (dict(herald_width=nan), "width"),
        (dict(error_std=-1.0), "error_std"), (dict(error_std=nan), "error_std"),
        (dict(gamma=nan), "gamma"), (dict(gamma=float("inf")), "gamma"),
        (dict(n_signal=2), "3 points"), (dict(n_herald=2), "3 points"),
        (dict(n_jitter=2), "3 points"),
    ]:
        with pytest.raises(ValueError, match=message):
            replace(COMBINED_MODEL, **bad)
    assert replace(COMBINED_MODEL, error_std=0.0).error_std == 0.0  # a zero error std is valid


def test_default_model_wiring():
    m = COMBINED_MODEL
    # the model is its eight numbers, in rad/s and s^2 from the filter center: no frame
    assert [f.name for f in fields(HeraldedStateModel)] == [
        "sigma", "filter_width", "herald_width", "error_std", "gamma",
        "n_signal", "n_herald", "n_jitter"]
    assert all(type(getattr(m, f.name)) in (float, int) for f in fields(m))
    assert m.gamma < 0 and m.gamma == CFG.gamma()
    assert JITTER_ONLY_MODEL.gamma == 0.0
    assert GVD_ONLY_MODEL.error_std == 0.0
    assert m.error_std == MEASURED_JITTER_FREQ_STD  # configured "measured"
    assert m.error_std == CFG.build_spectrometer().frequency_std()
    assert m.sigma == CFG.pump().sigma
    assert m.filter_width == CFG.signal_filter().full_width
    assert m.herald_width == 170.0 * GHZ
    assert m.signal_grid == FrequencyGrid(0.0, m.filter_width, m.n_signal)

