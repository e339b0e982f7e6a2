import math
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
    _herald_kernel,
    _hermitize,
    _kernels,
    _norms_squared,
    _purity_factored,
    assemble_density_matrix,
    gvd_parameter,
    purity_from_eigenvalues,
    purity_integral,
)
from fmux.scenarios import load_config
from fmux.spectral import GaussianWindow, apply_filter, build_anticorrelated_jsa
from fmux.spectral import FrequencyGrid, schmidt_purity, scaled_points
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
    h, wh = _herald_kernel(model)
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


# a quarter of the delay-line dispersion makes the jitter 4x wider in frequency:
# the filter wipes out the outer error nodes and the vacuous cut drops them
VACUOUS_CUT_MODEL = with_dispersion_scale(small(COMBINED_MODEL), 0.25)
PARITY_MODELS = pytest.mark.parametrize(
    "model",
    [small(COMBINED_MODEL, n_signal=200), small(GVD_ONLY_MODEL), small(JITTER_ONLY_MODEL),
     small(COMBINED_MODEL), VACUOUS_CUT_MODEL],
    ids=["even_n_signal", "gvd_only_single_node", "jitter_only_gamma_zero", "combined",
         "vacuous_cut"])


@PARITY_MODELS
def test_factored_matches_direct(model):
    assert abs(_purity_factored(model) - direct_purity(model)) < 1e-12


@PARITY_MODELS
def test_kernels_are_exactly_symmetric(model):
    e, q, h, wh, grid, x = _kernels(model)
    assert np.array_equal(e, -e[::-1]) and np.array_equal(q, q[::-1])
    assert np.array_equal(x, -x[::-1]) and x.size == model.n_signal
    assert np.array_equal(wh, wh[::-1])


def test_vacuous_cut_drops_nodes_in_pairs():
    e, _, _, _, _, _ = _kernels(VACUOUS_CUT_MODEL)
    full, _ = _error_kernel(VACUOUS_CUT_MODEL)
    assert 1 < e.size < full.size and (full.size - e.size) % 2 == 0
    assert np.array_equal(e, full[(full.size - e.size) // 2 : (full.size + e.size) // 2])


@pytest.mark.parametrize("n_signal", [201, 200], ids=["odd", "even"])
def test_parity_blocked_spectrum_matches_full_solve(n_signal, monkeypatch):
    from scipy import linalg

    blocks = []
    solve = linalg.eigvalsh

    def recording(a, *args, **kwargs):
        blocks.append(a)
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "eigvalsh", recording)
    dm = assemble_density_matrix(small_model(n_signal=n_signal))
    assert np.array_equal(dm.matrix, dm.matrix[::-1, ::-1])  # exactly centrosymmetric
    assert np.array_equal(dm.matrix, dm.matrix.T)
    # the even block, then the odd, each exactly symmetric
    assert [len(b) for b in blocks] == [(n_signal + 1) // 2, n_signal // 2]
    assert all(np.array_equal(b, b.T) for b in blocks)
    full = solve(dm.weighted())
    assert np.abs(dm.eigenvalues() - full).max() <= 1e-12


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
    assert abs(brute_force_purity(m) - purity_integral(m, check_refinement=False)) < 1e-12


def test_brute_force_oracle_jitter_only():
    m = small_model(gamma=0.0)
    assert abs(brute_force_purity(m) - purity_integral(m, check_refinement=False)) < 1e-12


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
    p_quad = purity_integral(m, check_refinement=False)
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
    h, wh = _herald_kernel(model)
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
    h, _ = _herald_kernel(model)
    x = model.signal_grid.detunings
    phase = np.exp(1j * model.gamma * (x - h.mean()) ** 2)
    return phase.conj()[:, None] * matrix * phase[None, :]


# a herald window 30 GHz off the spectrometer reference: its mean shift h0 is not 0
OFF_CENTER_MODEL = replace(
    COMBINED_MODEL,
    herald_window=replace(COMBINED_MODEL.herald_window,
                          center=COMBINED_MODEL.herald_window.center + 30.0 * GHZ),
)
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


@pytest.mark.parametrize("n", [7, 8], ids=["odd", "even"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_centrosymmetric_state_built_directly_is_solved_by_blocks(n, dtype, monkeypatch):
    from scipy import linalg

    rng = np.random.default_rng(5)
    v = rng.normal(size=(3, n)).astype(dtype)
    if dtype is np.complex128:
        v = v + 1j * rng.normal(size=(3, n))
    b = v.T @ v.conj()
    grid = FrequencyGrid(0.0, 1.0, n)
    rho = b + b[::-1, ::-1]  # Hermitian and exactly even under x -> -x
    rho = rho / (grid.trapezoid_weights() @ np.real(np.diag(rho)))
    blocks = []
    solve = linalg.eigvalsh
    monkeypatch.setattr(linalg, "eigvalsh",
                        lambda a, *args, **kw: blocks.append(a) or solve(a, *args, **kw))
    dm = DiscretizedDensityMatrix(grid, rho)
    assert [len(b) for b in blocks] == [(n + 1) // 2, n // 2]
    assert all(np.array_equal(b, b.conj().T) for b in blocks)  # each block exactly Hermitian
    assert np.abs(dm.eigenvalues() - solve(dm.weighted())).max() <= 1e-12


def test_eigenvalues_are_cached_read_only():
    dm = assemble_density_matrix(small_model())
    lam = dm.eigenvalues()
    assert dm.eigenvalues() is lam
    assert not lam.flags.writeable
    assert np.allclose(lam, np.linalg.eigvalsh(dm.weighted()), rtol=0, atol=1e-12)


def test_density_matrix_validation_rejects_bad_input():
    g = FrequencyGrid(0.0, 1.0, 3)  # trapezoid weights 1/4, 1/2, 1/4
    bad = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        DiscretizedDensityMatrix(g, bad)
    # the same checks hold for a real matrix, which stays real
    for real_bad, message in [
        (bad.real, "Hermitian"),
        (2.0 * np.eye(3), "trace"),
        (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "negative eigenvalue"),
    ]:
        with pytest.raises(ValueError, match=message):
            DiscretizedDensityMatrix(g, real_bad)


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
        values.append(purity_integral(m.scaled(0.5), check_refinement=False))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_purity_monotone_in_gvd():
    values = [purity_integral(replace(GVD_ONLY_MODEL, gamma=g).scaled(0.5), check_refinement=False)
              for g in (0.0, -1e-24, -3.377e-24, -6e-24)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_purity_even_in_gamma_sign():
    m_neg = small_model()
    m_pos = replace(m_neg, gamma=-m_neg.gamma)
    a = purity_integral(m_neg, check_refinement=False)
    b = purity_integral(m_pos, check_refinement=False)
    assert abs(a - b) < 1e-12


def test_grid_refinement_converged_at_defaults():
    # doubling every quadrature moves the combined value by less than 1e-3
    m = COMBINED_MODEL
    coarse = purity_integral(m, check_refinement=False)
    fine = purity_integral(replace(m, n_signal=1025, n_herald=257, n_jitter=257),
                           check_refinement=False)
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
    half = purity_integral(JITTER_ONLY_MODEL.scaled(0.5), check_refinement=False)
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

