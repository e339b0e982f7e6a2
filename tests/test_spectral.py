import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmux import defaults
from fmux.scenarios import load_config
from fmux.spectral import (
    FilterOverlapError,
    FrequencyGrid,
    GaussianWindow,
    GridTooNarrowError,
    JointSpectralAmplitude,
    PumpEnvelope,
    TopHatWindow,
    _grid_norm,
    _normalized,
    apply_filter,
    build_anticorrelated_jsa,
    default_grid,
    intensity_correlation,
    rotated_gaussian_purity,
    schmidt_coefficients,
    schmidt_number,
    schmidt_purity,
    write_jsa_text,
)

GHZ = defaults.TWO_PI * 1e9

CFG = load_config("joint-spectrum")
PUMP = CFG.pump()
FILTER = CFG.signal_filter()
HERALD_REF = CFG.anchor()


def build_factorable_jsa(signal_sigma, herald_sigma, signal_grid, herald_grid):
    """Oracle: separable Gaussian-product JSA, centered on both grids; Schmidt purity 1."""
    a = np.exp(-0.5 * (signal_grid.detunings / signal_sigma) ** 2)
    b = np.exp(-0.5 * (herald_grid.detunings / herald_sigma) ** 2)
    for vec in (a, b):
        assert max(vec[0], vec[-1]) <= 1e-6 * vec.max(), "grid truncates the Gaussian"
    return _normalized(signal_grid, herald_grid, np.outer(a, b))


def reference_pair(n_signal=257, n_herald=257, span_sigmas=12.0):
    pump = PUMP
    sg = FrequencyGrid(FILTER.center, span_sigmas * pump.sigma, n_signal)
    hg = FrequencyGrid(HERALD_REF, span_sigmas * pump.sigma, n_herald)
    return pump, sg, hg


@given(points=st.integers(2, 400), span=st.floats(1e-3, 1e14))
def test_trapezoid_weights_sum_to_span(points, span):
    g = FrequencyGrid(0.0, span, points)
    assert math.isclose(g.trapezoid_weights().sum(), span, rel_tol=1e-12)


def test_grid_detunings_symmetric():
    g = FrequencyGrid(5.0, 2.0, 11)
    assert g.detunings[0] == -1.0
    assert g.detunings[-1] == 1.0
    assert g.values[5] == 5.0
    assert math.isclose(g.step, 0.2)


def test_grid_refined_keeps_endpoints():
    # a refinement keeps the span and adds (points - 1) * (factor - 1) samples
    g = FrequencyGrid(1.0, 4.0, 9)
    r = FrequencyGrid(g.center, g.span, (g.points - 1) * 3 + 1)
    assert r.points == 25
    assert r.values[0] == g.values[0]
    assert r.values[-1] == g.values[-1]
    np.testing.assert_allclose(r.values[::3], g.values, rtol=1e-15)


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(0.0, 0.0, 5)


def test_anticorrelated_jsa_unit_norm():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg)
    w = jsa.weighted_matrix()
    assert abs(np.sum(np.abs(w) ** 2) - 1.0) < 1e-9


def test_anticorrelated_marginals_are_densities():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg)
    assert abs(jsa.signal_marginal() @ sg.trapezoid_weights() - 1.0) < 1e-9
    assert abs(hg.trapezoid_weights() @ jsa.herald_marginal() - 1.0) < 1e-9


def test_truncation_guard_fires_on_narrow_grid():
    pump = PUMP
    sg = FrequencyGrid(FILTER.center, 2.0 * pump.sigma, 65)
    hg = FrequencyGrid(HERALD_REF, 2.0 * pump.sigma, 65)
    with pytest.raises(GridTooNarrowError):
        build_anticorrelated_jsa(pump, sg, hg)


def test_anticorrelated_is_anticorrelated():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg)
    assert intensity_correlation(jsa) < -0.95


def test_intensity_correlation_undefined_for_one_point_marginal():
    # a filter narrower than the grid step leaves the signal on one sample
    g = FrequencyGrid(0.0, 4.0, 5)
    w = g.trapezoid_weights()
    a = np.zeros((5, 5))
    a[2] = np.exp(-0.5 * g.detunings**2)
    a /= math.sqrt(w[2] * (w @ a[2] ** 2))
    assert math.isnan(intensity_correlation(JointSpectralAmplitude(g, g, a)))


def test_factorable_jsa_is_pure_and_uncorrelated():
    _, sg, hg = reference_pair()
    jsa = build_factorable_jsa(PUMP.sigma, PUMP.sigma, sg, hg)
    assert abs(schmidt_purity(jsa) - 1.0) < 1e-9
    assert abs(intensity_correlation(jsa)) < 1e-9


def test_schmidt_coefficients_normalized_and_sorted_weighting():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg, phase_matching_sigma=2.0 * pump.sigma)
    lam = schmidt_coefficients(jsa)
    assert abs(lam.sum() - 1.0) < 1e-12
    assert np.all(lam >= -1e-15)


def test_schmidt_coefficients_match_scipy_svd():
    from scipy import linalg

    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg, phase_matching_sigma=2.0 * pump.sigma)
    s = linalg.svdvals(jsa.weighted_matrix())
    assert np.abs(schmidt_coefficients(jsa) - s * s / (s @ s)).max() <= 1e-12


def test_schmidt_number_is_inverse_purity():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg, phase_matching_sigma=2.0 * pump.sigma)
    assert math.isclose(schmidt_number(jsa), 1.0 / schmidt_purity(jsa), rel_tol=1e-12)


def test_two_gaussian_purity_closed_form():
    """SVD of the discretized JSA against the analytic geometric spectrum."""
    a = PUMP.sigma
    for ratio in (1.0, 2.0, 5.0):
        b = ratio * a
        pump = PumpEnvelope(sigma=a, center=PUMP.center)
        span = 14.0 * max(a, b)
        sg = FrequencyGrid(FILTER.center, span, 401)
        hg = FrequencyGrid(HERALD_REF, span, 401)
        jsa = build_anticorrelated_jsa(pump, sg, hg, phase_matching_sigma=b)
        assert abs(schmidt_purity(jsa) - rotated_gaussian_purity(a, b)) < 1e-6


@given(scale=st.floats(0.01, 100.0))
def test_rotated_gaussian_purity_scale_invariant(scale):
    p = rotated_gaussian_purity(1.0, 3.0)
    assert math.isclose(rotated_gaussian_purity(scale, 3.0 * scale), p, rel_tol=1e-12)
    assert math.isclose(rotated_gaussian_purity(3.0, 1.0), p, rel_tol=1e-12)


def test_rotated_gaussian_purity_bounds():
    assert rotated_gaussian_purity(2.0, 2.0) == 1.0
    assert 0.0 < rotated_gaussian_purity(1.0, 50.0) < 0.05


def test_apply_filter_transmission_matches_marginal_mass():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg)
    window = FILTER
    filtered, transmitted = apply_filter(jsa, window, axis="signal")
    w2 = window.amplitude(sg.values) ** 2
    expected = float(np.sum(sg.trapezoid_weights() * w2 * jsa.signal_marginal()))
    assert abs(transmitted - expected) < 1e-12
    assert abs(np.sum(np.abs(filtered.weighted_matrix()) ** 2) - 1.0) < 1e-9


def test_apply_filter_rejects_disjoint_window():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg)
    far = TopHatWindow(FILTER.center + 100.0 * pump.sigma, GHZ)
    with pytest.raises(FilterOverlapError):
        apply_filter(jsa, far, axis="signal")


def test_gaussian_herald_filter_reduces_entanglement():
    pump, sg, hg = reference_pair()
    jsa = build_anticorrelated_jsa(pump, sg, hg)
    p0 = schmidt_purity(jsa)
    narrowed, _ = apply_filter(jsa, GaussianWindow(HERALD_REF, 0.2 * pump.sigma),
                               axis="herald")
    assert schmidt_purity(narrowed) > p0


def test_top_hat_edge_sample_convention():
    w = TopHatWindow(0.0, 2.0)
    amp = w.amplitude(np.array([-1.5, -1.0, 0.0, 1.0, 1.5]))
    assert amp[0] == 0.0 and amp[4] == 0.0
    assert amp[2] == 1.0
    assert abs(amp[1] - math.sqrt(0.5)) < 1e-12
    assert abs(amp[3] - math.sqrt(0.5)) < 1e-12


def test_jsa_constructor_rejects_unnormalized():
    _, sg, hg = reference_pair(33, 33)
    with pytest.raises(ValueError):
        JointSpectralAmplitude(sg, hg, np.ones((33, 33)))


def test_default_grid_shape():
    g = default_grid(FILTER.center, PUMP.sigma)
    assert g.points == 513
    assert math.isclose(g.span, 12.0 * PUMP.sigma)


def jsa_record_fields(jsa: JointSpectralAmplitude) -> list:
    """The (name, dtype, shape) of each field of the JSA's .npy record."""
    ns, nh = jsa.amplitude.shape
    return [("omega_s", np.dtype(np.float64), (ns,)), ("omega_i", np.dtype(np.float64), (nh,)),
            ("amplitude", jsa.amplitude.dtype, (ns, nh))]


def scenario_states() -> dict:
    """The joint-spectrum scenario's JSAs at the default config, plus a chirped copy.

    The filtered JSA has exact zeros; the JSAs are real, and the chirped copy has
    imaginary parts of both signs.
    """
    sg = FrequencyGrid(FILTER.center, 12.0 * PUMP.sigma, 257)
    hg = FrequencyGrid(PUMP.center - FILTER.center, 12.0 * PUMP.sigma, 257)
    jsa = build_anticorrelated_jsa(PUMP, sg, hg)
    filtered, _ = apply_filter(jsa, FILTER, axis="signal")
    assert np.any(filtered.amplitude == 0.0) and np.any(filtered.amplitude != 0.0)
    chirped = JointSpectralAmplitude(
        sg, hg, filtered.amplitude * np.exp(1j * np.linspace(-3.0, 3.0, 257))[None, :])
    assert np.any(chirped.amplitude.imag < 0.0) and np.any(chirped.amplitude.imag > 0.0)
    return {"full": jsa, "filtered": filtered, "chirped": chirped}


def test_schmidt_purity_matches_singular_values():
    pump, sg, hg = reference_pair()
    states = scenario_states()
    states["phase_matched"] = build_anticorrelated_jsa(
        pump, sg, hg, phase_matching_sigma=2.0 * pump.sigma)
    for name, state in states.items():
        lam = schmidt_coefficients(state)
        assert math.isclose(schmidt_purity(state), float((lam**2).sum()), rel_tol=1e-12), name


def test_real_jsa_matches_its_complex_copy():
    # the real state runs in real arithmetic; its complex128 copy takes the complex path
    states = scenario_states()
    for name in ("full", "filtered"):
        state = states[name]
        copy = JointSpectralAmplitude(state.signal_grid, state.herald_grid,
                                      state.amplitude.astype(np.complex128))
        assert copy.amplitude.dtype == np.complex128
        for f in (lambda j: _grid_norm(j.signal_grid, j.herald_grid, j.amplitude),
                  intensity_correlation, schmidt_purity):
            assert math.isclose(f(state), f(copy), rel_tol=1e-13), name
        for f in (JointSpectralAmplitude.signal_marginal, JointSpectralAmplitude.herald_marginal):
            np.testing.assert_allclose(f(state), f(copy), rtol=1e-13, atol=0, err_msg=name)


def test_real_jsa_stays_float64_and_chirped_stays_complex():
    states = scenario_states()
    for name in ("full", "filtered"):
        assert states[name].amplitude.dtype == np.float64, name
        assert states[name].weighted_matrix().dtype == np.float64, name
    assert states["chirped"].amplitude.dtype == np.complex128
    assert states["chirped"].weighted_matrix().dtype == np.complex128
    pump, sg, hg = reference_pair(33, 33)
    narrowed, _ = apply_filter(build_anticorrelated_jsa(pump, sg, hg),
                               GaussianWindow(HERALD_REF, pump.sigma), axis="herald")
    assert narrowed.amplitude.dtype == np.float64


class _MatmulSpy(np.ndarray):
    """An ndarray that records the operand dtypes of every matmul it takes part in."""

    operands: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(x) for x in inputs]
        if ufunc is np.matmul:
            _MatmulSpy.operands.append(tuple(x.dtype for x in plain))
        return getattr(ufunc, method)(*plain, **kwargs)


def test_schmidt_purity_of_a_real_jsa_builds_no_complex_array(monkeypatch):
    weighted = JointSpectralAmplitude.weighted_matrix
    monkeypatch.setattr(JointSpectralAmplitude, "weighted_matrix",
                        lambda jsa: weighted(jsa).view(_MatmulSpy))
    monkeypatch.setattr(_MatmulSpy, "operands", [])
    states = scenario_states()
    schmidt_purity(states["full"])
    schmidt_purity(states["filtered"])
    assert _MatmulSpy.operands == [(np.dtype(np.float64),) * 2] * 2
    _MatmulSpy.operands.clear()
    schmidt_purity(states["chirped"])
    assert _MatmulSpy.operands == [(np.dtype(np.complex128),) * 2]


def test_jsa_npy_round_trip(tmp_path):
    pump, sg, hg = reference_pair(65, 33)
    jsa = build_anticorrelated_jsa(pump, sg, hg, phase_matching_sigma=2.0 * pump.sigma)
    chirp = np.exp(1j * sg.detunings / pump.sigma)[:, None]
    chirped = JointSpectralAmplitude(sg, hg, jsa.amplitude * chirp)
    for name, state in (("jsa", jsa), ("chirped", chirped)):
        path = tmp_path / name  # no suffix, so an appended ".npy" would show
        write_jsa_text(state, path)
        record = np.load(path, allow_pickle=False)
        assert record.shape == ()
        assert [(f, record.dtype[f].base, record.dtype[f].shape)
                for f in record.dtype.names] == jsa_record_fields(state)
        np.testing.assert_array_equal(record["omega_s"], sg.values)
        np.testing.assert_array_equal(record["omega_i"], hg.values)
        assert record["amplitude"].shape == (65, 33)  # signal index first
        np.testing.assert_array_equal(record["amplitude"], state.amplitude)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chirped", "jsa"]
    assert np.load(tmp_path / "chirped", allow_pickle=False)["amplitude"].dtype == np.complex128


def oracle_jsa_npy(jsa: JointSpectralAmplitude) -> bytes:
    """Oracle: the JSA export as np.save writes a record built from Python numbers."""
    vs, vh = jsa.signal_grid.values, jsa.herald_grid.values
    amplitude = [[jsa.amplitude[i, j].item() for j in range(jsa.herald_grid.points)]
                 for i in range(jsa.signal_grid.points)]
    record = np.array((vs.tolist(), vh.tolist(), amplitude), dtype=jsa_record_fields(jsa))
    whole = io.BytesIO()
    np.save(whole, record, allow_pickle=False)
    return whole.getvalue()


def test_jsa_npy_matches_per_element_oracle(tmp_path):
    for name, state in scenario_states().items():
        path = tmp_path / name
        write_jsa_text(state, path)
        assert path.read_bytes() == oracle_jsa_npy(state), name


@pytest.mark.parametrize("envelope", [PUMP, GaussianWindow(HERALD_REF, 0.2 * PUMP.sigma)],
                         ids=["pump", "gaussian_window"])
def test_gaussian_amplitude_is_the_expression_and_leaves_its_input(envelope):
    # evaluated in place on arrays of its own, in the order of exp(-0.5 * x * x)
    omega = envelope.center + np.linspace(-7.0, 7.0, 257) * 0.3e12
    grid = omega[:, None] + np.linspace(-1.0, 1.0, 5)[None, :] * 1e11  # a 2-D argument
    for value in (omega, grid):
        before = value.copy()
        got = envelope.amplitude(value)
        assert value.tobytes() == before.tobytes()
        x = (value - envelope.center) / envelope.sigma
        want = np.exp(-0.5 * x * x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    scalar = envelope.amplitude(envelope.center + 1.3e11)
    x = (envelope.center + 1.3e11 - envelope.center) / envelope.sigma
    assert isinstance(scalar, np.float64) and scalar == np.exp(-0.5 * x * x)
    assert envelope.amplitude(float(envelope.center)) == 1.0


def jsa_operations() -> dict:
    """Every operation that reads a JSA's amplitude, each called for its effect on it."""
    return {
        "build_anticorrelated_jsa": lambda j: build_anticorrelated_jsa(
            PUMP, j.signal_grid, j.herald_grid),
        "build_phase_matched": lambda j: build_anticorrelated_jsa(
            PUMP, j.signal_grid, j.herald_grid, phase_matching_sigma=2.0 * PUMP.sigma),
        "apply_filter_signal": lambda j: apply_filter(j, FILTER, axis="signal"),
        "apply_filter_herald": lambda j: apply_filter(
            j, GaussianWindow(HERALD_REF, PUMP.sigma), axis="herald"),
        "intensity_correlation": intensity_correlation,
        "schmidt_purity": schmidt_purity,
        "schmidt_coefficients": schmidt_coefficients,
        "signal_marginal": JointSpectralAmplitude.signal_marginal,
        "herald_marginal": JointSpectralAmplitude.herald_marginal,
        "joint_intensity": JointSpectralAmplitude.joint_intensity,
        "weighted_matrix": JointSpectralAmplitude.weighted_matrix,
        "grid_norm": lambda j: _grid_norm(j.signal_grid, j.herald_grid, j.amplitude),
    }


@pytest.mark.parametrize("operation", list(jsa_operations()))
def test_jsa_operations_leave_every_input_amplitude_unchanged(operation):
    # the arithmetic is in place on arrays each operation makes; a JSA holds the array it
    # was given, so its caller's array must not change either
    states = scenario_states()
    given = states["filtered"].amplitude.copy()
    states["given"] = JointSpectralAmplitude(
        states["filtered"].signal_grid, states["filtered"].herald_grid, given)
    assert states["given"].amplitude is given
    run = jsa_operations()[operation]
    for name, state in states.items():
        before = state.amplitude.copy()
        run(state)
        assert state.amplitude.tobytes() == before.tobytes(), name
