import math
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest

from fmux import defaults
from fmux.heralded import (
    JITTER_SPAN_SIGMAS,
    VACUOUS_NORM,
    DiscretizedDensityMatrix,
    HeraldedStateModel,
    _drop_vacuous,
    _error_kernel,
    _fold,
    _herald_factor,
    _herald_mixture,
    _hermitize,
    _kernels,
    _norms_squared,
    _parity_blocks,
    _purity_factored,
    assemble_density_matrix,
    gvd_parameter,
    purity_from_eigenvalues,
    purity_integral,
)
from fmux.scenarios import ConfigError, _converged_purity, load_config
from fmux.spectral import GaussianWindow, apply_filter, build_anticorrelated_jsa
from fmux.spectral import FilterOverlapError, FrequencyGrid, schmidt_purity, scaled_points
from fmux.spectrometer import MEASURED_JITTER_FREQ_STD, JitterDistribution

GHZ = defaults.TWO_PI * 1e9

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


def with_jitter_std(model, std):
    spect = replace(model.spectrometer,
                    jitter=JitterDistribution.gaussian(std * model.spectrometer.dispersion))
    return replace(model, spectrometer=spect)


def herald_kernel(model):
    """Oracle: shift nodes h = omega_H - reference over the accepted window, weights normalized."""
    n = model.n_herald
    win = model.herald_window
    h = np.linspace(-win.half_width, win.half_width, n) + (
        win.center - model.spectrometer.reference_frequency
    )
    w = FrequencyGrid(0.0, win.full_width, n).trapezoid_weights()
    return h, w / w.sum()


def herald_cos_sum(phi, n_herald):
    """Oracle: the trapezoid mean of cos(k phi) over k = -L ... L, 2L + 1 = n_herald, as a sum."""
    k = np.arange(n_herald) - 0.5 * (n_herald - 1)
    w = FrequencyGrid(0.0, 1.0, n_herald).trapezoid_weights()
    return np.cos(np.multiply.outer(phi, k)) @ (w / w.sum())


def window_table_purity(model):
    """Oracle: the same discrete sum through window-integral tables and one GEMM.

    Window integrals S(m, dh) = sum_x wx exp(-(x-m)^2/sig^2) exp(-2i gamma dh x) at the
    midpoints m = (e_i + e_j) / 2, i + j indexing linspace(e[0], e[-1], 2 ne - 1), against
    the herald-shift differences dh, weighted by the herald autocorrelation. x and wx are
    symmetric, so S(-m, dh) = conj S(m, dh): only m >= 0 is tabulated. Folding x onto
    x >= 0, cos pairs with the even part of the envelope and sin with its odd part.
    """
    e, q, grid, x = _kernels(model)
    h, wh = herald_kernel(model)
    ne, n = e.size, x.size  # x[n // 2] == 0 when n is odd
    wx = grid.trapezoid_weights()
    sig = model.pump.sigma

    mids = np.linspace(0.0, e[-1], ne)  # m >= 0: indices ne - 1 ... 2 ne - 2
    env = np.exp(-((x[None, :] - mids[:, None]) / sig) ** 2) * wx  # (m, x)
    even, odd = _fold(env)
    dh = np.arange(h.size) * (h[1] - h[0])  # non-negative differences; |S| is even in dh
    phase = 2.0 * model.gamma * np.outer(x[n // 2 :], dh)  # (x >= 0, dh)
    s_abs_sq = (even @ np.cos(phase)) ** 2 + (odd @ np.sin(phase[n % 2 :])) ** 2  # |S(m, dh)|^2

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

    herald_frequency: float
    idler_frequency: float
    grid: FrequencyGrid
    amplitude: np.ndarray
    norm_sq: float  # filtered squared norm before normalization


def conditional_wavepacket(omega_h: float, omega_i: float,
                           model: HeraldedStateModel) -> ConditionalWavepacket:
    """Oracle: the shifted conditional signal wavepacket, built event by event.

    The filtered Gaussian envelope displaced by e = omega_h - omega_i, with
    the pre-shift quadratic dispersion phase in (x - h), normalized on the
    signal grid.
    """
    grid = model.signal_grid
    x = grid.detunings
    error = omega_h - omega_i
    shift = omega_h - model.spectrometer.reference_frequency
    amp = np.exp(-0.5 * ((x - error) / model.pump.sigma) ** 2) * np.exp(
        1j * model.gamma * (x - shift) ** 2)
    norm_sq = float(grid.trapezoid_weights() @ (np.abs(amp) ** 2))
    return ConditionalWavepacket(float(omega_h), float(omega_i), grid, amp / math.sqrt(norm_sq),
                                 norm_sq)


def purity_from_trace(dm: DiscretizedDensityMatrix) -> float:
    """Oracle: Tr(rho^2) as the weighted Frobenius norm, no diagonalization."""
    w = dm.grid.trapezoid_weights()
    return float(np.einsum("i,j,ij->", w, w, np.abs(dm.matrix) ** 2).real)


def test_conditional_wavepacket_is_normalized():
    m = small_model()
    ref = m.spectrometer.reference_frequency
    wp = conditional_wavepacket(ref + 20.0 * GHZ, ref + 12.0 * GHZ, m)
    w = m.signal_grid.trapezoid_weights()
    assert abs(w @ np.abs(wp.amplitude) ** 2 - 1.0) < 1e-9


def test_conditional_wavepacket_vacuous_event():
    # an idler so far off that the displaced envelope misses the filter: the
    # engine drops that error node and renormalizes the rest
    m = small_model()
    ref = m.spectrometer.reference_frequency
    free = m.pump.sigma * math.sqrt(math.pi)
    far = 1000.0 * GHZ
    assert conditional_wavepacket(ref, ref - far, m).norm_sq <= VACUOUS_NORM * free
    e = np.array([0.0, far])
    norms_sq, _ = _norms_squared(m, e)
    kept, we, _ = _drop_vacuous(e, np.array([0.25, 0.75]), norms_sq, free)
    assert kept.tolist() == [0.0] and we.tolist() == [1.0]


def test_perfect_detection_no_dispersion_is_pure():
    m = replace(GVD_ONLY_MODEL, gamma=0.0, n_signal=201, n_herald=17, n_jitter=65)
    assert abs(purity_integral(m) - 1.0) < 1e-12


def direct_purity(model):
    """Oracle: the literal Gram-matrix sum over every pair of (herald, error) events.

    Same nodes, weights and vacuous-event rule as the engine, but no window
    tables: each normalized wavepacket is a row, and the purity is the
    mixture-weighted sum of squared overlaps between all rows.
    """
    e, we = _error_kernel(model)
    h, wh = herald_kernel(model)
    norms_sq, grid = _norms_squared(model, e)
    free = model.pump.sigma * math.sqrt(math.pi)
    e, we, norms_sq = _drop_vacuous(e, we, norms_sq, free)
    x = grid.detunings
    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / model.pump.sigma) ** 2)  # (e, x)
    chirp = np.exp(1j * model.gamma * (x[None, :] - h[:, None]) ** 2)  # (h, x)
    rows = (chirp[:, None, :] * env[None, :, :]).reshape(-1, x.size)  # (h, e) flattened
    v = np.outer(wh, we / norms_sq).ravel()
    overlaps = (rows * grid.trapezoid_weights()) @ rows.conj().T
    return float(v @ np.abs(overlaps) ** 2 @ v)


def with_dispersion_scale(model, factor):
    spect = model.spectrometer
    return replace(model, spectrometer=replace(spect, dispersion=factor * spect.dispersion))


def small(model, **overrides):
    return replace(model, **{"n_signal": 201, "n_herald": 17, "n_jitter": 65, **overrides})


# a herald window 30 GHz off the spectrometer reference: its mean shift h0 is not 0
OFF_CENTER_MODEL = replace(
    COMBINED_MODEL,
    herald_window=replace(COMBINED_MODEL.herald_window,
                          center=COMBINED_MODEL.herald_window.center + 30.0 * GHZ),
)


# a quarter of the delay-line dispersion makes the jitter 4x wider in frequency:
# the filter wipes out the outer error nodes and the vacuous cut drops them
VACUOUS_CUT_MODEL = with_dispersion_scale(small(COMBINED_MODEL), 0.25)
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
     with_dispersion_scale(COMBINED_MODEL, 0.25).scaled(2.0),
     DELAY_200KM_MODEL, replace(DELAY_200KM_MODEL, n_herald=32)],
    ids=[*PARITY_IDS, "even_n_herald", "even_n_jitter",
         *(f"{name}_x{scale}" for name in ("jitter_only", "gvd_only", "combined")
           for scale in (0.5, 1, 2)),
         "dispersion_4_ps_per_ghz_x2", "delay_200km", "delay_200km_32_heralds"])


@PARITY_MODELS
def test_factored_matches_direct(model):
    assert abs(_purity_factored(model) - direct_purity(model)) < 1e-12


@ORACLE_MODELS
def test_engine_matches_window_table_oracle(model):
    oracle = window_table_purity(model)
    assert abs(_purity_factored(model) - oracle) <= 1e-13 * oracle


def herald_phase_span(model):
    """The largest |phi| the herald factor sees: its phase step times the filter width."""
    dh = model.herald_window.full_width / (model.n_herald - 1)
    return abs(2.0 * model.gamma * dh * model.filter.full_width)


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


@pytest.mark.parametrize("model", [small(COMBINED_MODEL), small(COMBINED_MODEL, n_herald=16),
                                   small(OFF_CENTER_MODEL), DELAY_200KM_MODEL],
                         ids=["combined", "even_n_herald", "off_center", "delay_200km"])
def test_herald_factor_matches_cosine_table_on_the_herald_nodes(model):
    h, wh = herald_kernel(model)
    h0 = model.herald_window.center - model.spectrometer.reference_frequency
    lags = np.arange(model.n_signal)
    table = np.cos(2.0 * model.gamma * model.signal_grid.step * np.outer(lags, h - h0)) @ wh
    assert np.abs(_herald_factor(model, lags) - table).max() <= 1e-13


@PARITY_MODELS
def test_norms_squared_in_one_buffer_is_bit_identical(model):
    e, _ = _error_kernel(model)
    grid = model.signal_grid
    g2 = np.exp(-((grid.detunings[None, :] - e[:, None]) / model.pump.sigma) ** 2)
    assert np.array_equal(_norms_squared(model, e)[0], g2 @ grid.trapezoid_weights())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_jitter_just_inside_the_squarable_reach_never_overflows(tmp_path):
    # heralded_model bounds (JITTER_SPAN_SIGMAS s + filter half-width) / pump sigma below
    # half the root of the largest float; the reach scales as one over the dispersion
    bound = 0.5 * math.sqrt(sys.float_info.max)
    default = load_config("purity-jitter", grid_scale=0.5).heralded_model()
    sig = default.pump.sigma
    span = JITTER_SPAN_SIGMAS * default.spectrometer.frequency_std() / sig
    inside = 16.0 * span / (0.999 * bound - default.filter.half_width / sig)
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
        reach = (JITTER_SPAN_SIGMAS * model.spectrometer.frequency_std()
                 + model.filter.half_width) / model.pump.sigma
        assert 0.99 * bound < reach < bound
        try:
            value = _converged_purity(model)
        except ConfigError as err:
            assert err.field in cfg.params
        else:
            assert 0.0 < value <= 1.0


@PARITY_MODELS
def test_kernels_are_exactly_symmetric(model):
    e, q, grid, x = _kernels(model)
    assert np.array_equal(e, -e[::-1]) and np.array_equal(q, q[::-1])
    assert np.array_equal(x, -x[::-1]) and x.size == model.n_signal


def test_filter_that_passes_nothing_is_an_error():
    # 1e-13 of the pump width passes about 6e-14 of even the undisplaced wavepacket
    m = small_model(filter=replace(COMBINED_MODEL.filter,
                                   full_width=1e-13 * COMBINED_MODEL.pump.sigma))
    with pytest.raises(FilterOverlapError, match="every conditional wavepacket"):
        _kernels(m)


def test_vacuous_cut_drops_nodes_in_pairs():
    e, *_ = _kernels(VACUOUS_CUT_MODEL)
    full, _ = _error_kernel(VACUOUS_CUT_MODEL)
    assert 1 < e.size < full.size and (full.size - e.size) % 2 == 0
    assert np.array_equal(e, full[(full.size - e.size) // 2 : (full.size + e.size) // 2])


BLOCK_MODELS = pytest.mark.parametrize(
    "model", [small_model(n_signal=201), small_model(n_signal=200), small(OFF_CENTER_MODEL)],
    ids=["odd", "even", "off_center"])


@BLOCK_MODELS
def test_parity_blocked_spectrum_matches_full_solve(model, monkeypatch):
    from scipy import linalg

    blocks = []
    solve = linalg.eigvalsh

    def recording(a, *args, **kwargs):
        blocks.append(a)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigvalsh", recording)
    n_signal = model.n_signal
    dm = assemble_density_matrix(model)
    assert np.array_equal(dm.matrix, dm.matrix[::-1, ::-1])  # exactly centrosymmetric
    assert np.array_equal(dm.matrix, dm.matrix.T)
    # the even block, then the odd, each exactly symmetric
    assert [len(b) for b in blocks] == [(n_signal + 1) // 2, n_signal // 2]
    assert all(np.array_equal(b, b.T) for b in blocks)
    full = solve(dm.weighted())
    assert np.abs(dm.eigenvalues() - full).max() <= 1e-12


@BLOCK_MODELS
def test_eigenvalues_weight_only_the_rows_they_read(model):
    from scipy import linalg

    dm = assemble_density_matrix(model)
    full = dm.weighted()
    blocks = _parity_blocks(full[full.shape[0] // 2 :])
    expected = np.sort(np.concatenate([linalg.eigvalsh(b) for b in blocks]))
    assert np.array_equal(dm.eigenvalues(), expected)


def brute_force_purity(model):
    """Mixture purity by explicit accumulation over the same quadrature nodes.

    Independent of the engine algebra: builds each normalized wavepacket via
    the public constructor, accumulates the density matrix as an outer-product
    sum with trapezoid-rule mixture weights, and contracts the purity directly.
    """
    s = model.spectrometer.frequency_std()
    grid = model.signal_grid
    w = grid.trapezoid_weights()
    ref = model.spectrometer.reference_frequency
    if s > 0:
        e_nodes = np.linspace(-JITTER_SPAN_SIGMAS * s, JITTER_SPAN_SIGMAS * s, model.n_jitter)
        e_w = np.exp(-0.5 * (e_nodes / s) ** 2)
        e_w[0] *= 0.5
        e_w[-1] *= 0.5
    else:
        e_nodes, e_w = np.array([0.0]), np.array([1.0])
    half = model.herald_window.half_width
    h_nodes = np.linspace(-half, half, model.n_herald)
    h_w = np.full(model.n_herald, 1.0)
    h_w[0] *= 0.5
    h_w[-1] *= 0.5

    rho = np.zeros((grid.points, grid.points), dtype=complex)
    total = 0.0
    for h, wh in zip(h_nodes, h_w):
        omega_h = ref + h
        for e, we in zip(e_nodes, e_w):
            psi = conditional_wavepacket(omega_h, omega_h - e, model).amplitude
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
    assert abs(float(w @ np.real(np.diag(dm.matrix))) - 1.0) < 1e-6
    assert np.allclose(dm.matrix, dm.matrix.conj().T, atol=1e-9 * np.abs(dm.matrix).max())
    lam = dm.eigenvalues()
    assert lam.min() > -1e-8
    assert abs(lam.sum() - 1.0) < 1e-6


def einsum_density_matrix(model):
    """Oracle: the mixture products as 3-operand einsums over the kernel nodes."""
    e, we = _error_kernel(model)
    h, wh = herald_kernel(model)
    norms_sq, grid = _norms_squared(model, e)
    free = model.pump.sigma * math.sqrt(math.pi)
    e, we, norms_sq = _drop_vacuous(e, we, norms_sq, free)
    x = grid.detunings
    env = np.exp(-0.5 * ((x[None, :] - e[:, None]) / model.pump.sigma) ** 2)
    m_env = np.einsum("k,kx,ky->xy", we / norms_sq, env, env)
    chirp = np.exp(1j * model.gamma * (x[None, :] - h[:, None]) ** 2)
    m_chirp = np.einsum("k,kx,ky->xy", wh, chirp, chirp.conj())
    return _hermitize(m_env * m_chirp)


def co_moving(model, matrix):
    """The lab-frame matrix seen in the frame of the delay-line phase exp(i gamma (x - h0)^2).

    h0 is the mean herald shift; assemble_density_matrix stores its matrix in
    this frame, where it is real symmetric.
    """
    h, _ = herald_kernel(model)
    x = model.signal_grid.detunings
    phase = np.exp(1j * model.gamma * (x - h.mean()) ** 2)
    return phase.conj()[:, None] * matrix * phase[None, :]


FRAME_MODELS = pytest.mark.parametrize(
    "model", [JITTER_ONLY_MODEL, GVD_ONLY_MODEL, COMBINED_MODEL, OFF_CENTER_MODEL],
    ids=["jitter_only_model", "gvd_only_model", "default_model", "off_center_model"])


@FRAME_MODELS
def test_gemm_assembly_matches_einsum_oracle(model):
    m = model.scaled(0.5)
    rho = assemble_density_matrix(m).matrix
    oracle = einsum_density_matrix(m)
    assert rho.dtype == np.float64
    assert np.abs(rho - co_moving(m, oracle)).max() <= 1e-12 * np.abs(oracle).max()


@FRAME_MODELS
def test_real_spectrum_matches_complex_oracle_spectrum(model):
    from scipy import linalg

    m = model.scaled(0.5)
    dm = assemble_density_matrix(m)
    sw = np.sqrt(dm.grid.trapezoid_weights())
    weighted = _hermitize(sw[:, None] * einsum_density_matrix(m) * sw[None, :])
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
    blocks = []
    solve = linalg.eigvalsh
    monkeypatch.setattr(linalg, "eigvalsh",
                        lambda a, *args, **kw: blocks.append(a) or solve(a, *args, **kw))
    dm = DiscretizedDensityMatrix(grid, rho)
    assert [len(b) for b in blocks] == [(n + 1) // 2, n // 2]
    assert all(np.array_equal(b, b.T) for b in blocks)  # each block exactly symmetric
    assert np.abs(dm.eigenvalues() - solve(dm.weighted())).max() <= 1e-12


def test_eigenvalues_are_cached_read_only():
    dm = assemble_density_matrix(small_model())
    lam = dm.eigenvalues()
    assert dm.eigenvalues() is lam
    assert not lam.flags.writeable
    assert np.allclose(lam, np.linalg.eigvalsh(dm.weighted()), rtol=0, atol=1e-12)


def test_density_matrix_validation_rejects_bad_input():
    g = FrequencyGrid(0.0, 1.0, 3)  # trapezoid weights 1/4, 1/2, 1/4
    # apart from the zero matrix, each input fails only the check named
    for bad, message in [
        (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 1.0]]), "not exactly symmetric"),
        (np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]), "not exactly even"),
        (2.0 * np.eye(3), "trace"),
        (np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]]), "negative eigenvalue"),
        (np.eye(3, dtype=complex), "not real"),
        (np.zeros((3, 3)), "zero"),
    ]:
        with pytest.raises(ValueError, match=message):
            DiscretizedDensityMatrix(g, bad)


def test_density_matrix_symmetric_only_to_round_off_is_rejected():
    rho = assemble_density_matrix(small_model()).matrix.copy()
    n = rho.shape[0]
    for i, j in [(0, 1), (n - 1, n - 2)]:  # a mirrored pair, so rho stays exactly even
        rho[i, j] = np.nextafter(rho[i, j], np.inf)  # one ulp up
    assert np.array_equal(rho, rho[::-1, ::-1]) and not np.array_equal(rho, rho.T)
    assert np.abs(rho - rho.T).max() <= 1e-15 * np.abs(rho).max()
    with pytest.raises(ValueError, match="not exactly symmetric"):
        DiscretizedDensityMatrix(small_model().signal_grid, rho)


def test_real_density_matrix_stays_real():
    dm = DiscretizedDensityMatrix(FrequencyGrid(0.0, 1.0, 3), np.eye(3, dtype=np.float32))
    assert dm.matrix.dtype == np.float64
    assert dm.eigenvalues().dtype == np.float64


def test_schmidt_cross_oracle():
    """Filtered-JSA Schmidt purity against the mixture quadrature.

    A Gaussian herald acceptance of amplitude width sqrt(2) s gives an
    intensity posterior of width s, so tracing the herald reproduces the
    measurement-error mixture in the regime where the filter transmission
    is flat over the error spread.
    """
    m = JITTER_ONLY_MODEL
    herald_center = m.spectrometer.reference_frequency
    sg = FrequencyGrid(m.filter.center, 60.0 * GHZ, 601)
    hg = FrequencyGrid(herald_center, 500.0 * GHZ, 1001)
    for s_ghz in (10.0, 5.0):
        s = s_ghz * GHZ
        engine = purity_integral(with_jitter_std(m, s))
        jsa = build_anticorrelated_jsa(m.pump, sg, hg)
        jsa, _ = apply_filter(jsa, GaussianWindow(herald_center, math.sqrt(2.0) * s),
                              axis="herald")
        jsa, _ = apply_filter(jsa, m.filter, axis="signal")
        assert abs(schmidt_purity(jsa) - engine) < 1e-2


def test_purity_monotone_in_jitter():
    values = []
    for s_ghz in (10.0, 25.0, 45.0, 70.0):
        m = with_jitter_std(JITTER_ONLY_MODEL, s_ghz * GHZ)
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
    with pytest.raises(ValueError):
        replace(COMBINED_MODEL, gamma=float("nan"))
    with pytest.raises(ValueError):
        replace(COMBINED_MODEL, n_signal=2)


def test_default_model_wiring():
    m = COMBINED_MODEL
    assert m.gamma < 0
    assert JITTER_ONLY_MODEL.gamma == 0.0
    assert GVD_ONLY_MODEL.spectrometer.frequency_std() == 0.0
    assert m.spectrometer.frequency_std() == MEASURED_JITTER_FREQ_STD  # configured "measured"
    assert m.herald_window.full_width == 170.0 * GHZ
    assert m.herald_window.center == m.spectrometer.reference_frequency
    assert m.pump.center == m.filter.center + m.spectrometer.reference_frequency
    assert m.signal_grid.points == m.n_signal
    assert math.isclose(m.signal_grid.span, m.filter.full_width)

