import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fmux import defaults
from fmux.serrodyne import (
    PHASE_JITTER_NODES,
    PHASE_TIME_NODES,
    OverdriveError,
    ShifterModel,
    apply_temporal_phase,
    build_lut,
    max_shift,
    phase_jitter_purity,
    shift_magnitude,
    voltage_for_shift,
    write_lut_text,
    _hermite_rule,
    _jitter_overlap_matrix,
)
from fmux.scenarios import load_config

CFG = load_config("lut-dump")
SHIFTER = CFG.shifter()
# a drive that reaches every tabulated bin: no row is out of range
WIDE_SHIFTER = replace(SHIFTER, v0_max=100.0 * SHIFTER.v0_max)
SPECT = CFG.build_spectrometer("measured")
SPAN = CFG._ghz("feedforward.herald_span_ghz")
SIGMA = CFG.pump().sigma


def lut_of(model=SHIFTER):
    return build_lut(SPECT, model, SPAN)


def test_default_shifter_reaches_design_limit():
    assert math.isclose(max_shift(SHIFTER), CFG.get("shifter.max_shift_ghz") * 1e9,
                        rel_tol=1e-12)
    assert SHIFTER.sigma_jitter == CFG.get("shifter.phase_jitter_ps") * 1e-12


@given(v0=st.floats(-1.0, 1.0), scale=st.floats(-1.0, 1.0))
def test_shift_is_linear_in_drive(v0, scale):
    m = ShifterModel(nu_rf=8e9, v0_max=2.0)
    lhs = shift_magnitude(scale * v0, m)
    rhs = scale * shift_magnitude(v0, m)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-3)


@given(delta=st.floats(-85e9, 85e9))
def test_voltage_for_shift_inverts(delta):
    m = SHIFTER
    assert math.isclose(shift_magnitude(voltage_for_shift(delta, m), m), delta,
                        rel_tol=1e-12, abs_tol=1e-3)


def test_overdrive_guard():
    m = SHIFTER
    shift_magnitude(m.v0_max, m)  # boundary allowed
    with pytest.raises(OverdriveError):
        shift_magnitude(1.01 * m.v0_max, m)


def row_of(lut, k):
    """Index of herald bin k in the table's columns."""
    return k - lut.first_bin


def test_lut_shift_equals_herald_offset():
    lut = lut_of()
    for k in (-10, 0, 7):
        i = row_of(lut, k)
        assert lut.bins[i] == k
        offset_hz = (lut.herald_frequency[i] - SPECT.reference_frequency) / defaults.TWO_PI
        assert math.isclose(lut.required_shift[i], offset_hz, rel_tol=1e-12, abs_tol=1e-6)
    assert lut.required_shift[row_of(lut, 0)] == 0.0
    # every row: the shift is the herald's offset from the reference
    np.testing.assert_allclose(
        lut.required_shift,
        (lut.herald_frequency - SPECT.reference_frequency) / defaults.TWO_PI,
        rtol=1e-12, atol=1e-6,
    )


def test_lut_range_flags_match_drive_limit():
    model = SHIFTER
    lut = lut_of(model)
    limit = max_shift(model)
    for shift, v0, in_range in zip(lut.required_shift, lut.v0, lut.in_range):
        assert in_range == (abs(shift) <= limit * (1 + 1e-12))
        assert abs(v0) <= model.v0_max * (1 + 1e-12)
    # the accepted window is wider than the drive span, so both states occur
    assert set(lut.in_range.tolist()) == {True, False}


@pytest.mark.parametrize("model", [SHIFTER, WIDE_SHIFTER], ids=["default", "wide"])
def test_lut_columns_match_per_bin_oracle(model):
    """Oracle: every row computed on its own, one bin at a time, in Python floats."""
    lut = lut_of(model)
    limit = max_shift(model)
    for i, k in enumerate(lut.bins.tolist()):
        omega_h = float(SPECT.bin_center_frequency(k))
        shift_hz = (omega_h - SPECT.reference_frequency) / defaults.TWO_PI
        v0 = min(max(voltage_for_shift(shift_hz, model), -model.v0_max), model.v0_max)
        assert lut.herald_frequency[i] == omega_h
        assert lut.required_shift[i] == shift_hz
        assert lut.v0[i] == v0
        assert lut.in_range[i] == (abs(shift_hz) <= limit * (1.0 + 1e-12))


def test_lut_lookup_outside_table():
    for model in (SHIFTER, WIDE_SHIFTER):
        lut = lut_of(model)
        shift, routed = lut.route(np.array([10**6, -(10**6)]))
        assert not routed.any()
        assert shift.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("model", [SHIFTER, WIDE_SHIFTER], ids=["default", "wide"])
def test_lut_route_agrees_with_rows(model):
    lut = lut_of(model)
    assert lut.in_range.all() == (model is WIDE_SHIFTER)
    first, last = int(lut.bins[0]), int(lut.bins[-1])
    below = np.arange(first - 5, first)
    above = np.arange(last + 1, last + 6)
    inside = lut.bins
    shift, routed = lut.route(np.concatenate([below, inside, above]))
    n = below.size
    # bins below and above the table: not routed, no shift
    assert not routed[:n].any() and not routed[-n:].any()
    assert not shift[:n].any() and not shift[-n:].any()
    # inside: the tabulated row's flag, and its shift where the drive reaches it
    assert routed[n:-n].tolist() == lut.in_range.tolist()
    expected = [s if flag else 0.0 for s, flag in zip(lut.required_shift, lut.in_range)]
    assert shift[n:-n].tolist() == expected
    # one scalar bin at a time
    for k in (first - 1, first, 0, 3, last, last + 1):
        one_shift, one_routed = lut.route(k)
        flag = first <= k <= last and lut.in_range[row_of(lut, k)]
        assert bool(one_routed) == flag
        assert float(one_shift) == (lut.required_shift[row_of(lut, k)] if flag else 0.0)


def padding_route(lut, bins):
    """Oracle: route as it once was, padding both columns on every call."""
    row = np.clip(np.asarray(bins) - (lut.first_bin - 1), 0, lut.in_range.size + 1)
    shift = np.pad(np.where(lut.in_range, lut.required_shift, 0.0), 1)
    return shift[row], np.pad(lut.in_range, 1)[row]


@pytest.mark.parametrize("model", [SHIFTER, WIDE_SHIFTER], ids=["default", "wide"])
def test_lut_route_matches_padding_oracle(model):
    lut = lut_of(model)
    first, last = int(lut.bins[0]), int(lut.bins[-1])
    below = np.arange(first - 30, first - 1)
    above = np.arange(last + 2, last + 31)
    # first - 1 and last + 1 land on the two pad rows themselves
    every = np.concatenate([[-(10**6)], below, [first - 1], lut.bins, [last + 1], above, [10**6]])
    for bins in (every, every[::-1].copy(), first - 1, first, 0, last, last + 1):
        got, want = lut.route(bins), padding_route(lut, bins)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert lut._padded_rows is lut._padded_rows  # built once per table


def test_write_lut_text(tmp_path):
    lut = lut_of()
    path = tmp_path / "lut.txt"
    write_lut_text(lut, path)
    rows = [l.split() for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == lut.bins.size
    assert [int(r[0]) for r in rows] == lut.bins.tolist()
    for r, ghz, v0, flag in zip(rows, lut.herald_frequency, lut.v0, lut.in_range):
        offset = (ghz - lut.reference_frequency) / (defaults.TWO_PI * 1e9)
        assert r[1] == f"{offset:+.6f}"
        assert float(r[2]) == v0
        assert r[3] == str(int(flag))


@given(v0=st.floats(-0.3, 0.3))
def test_temporal_phase_preserves_norm(v0):
    m = SHIFTER
    t = np.linspace(-200e-12, 200e-12, 257)
    amp = np.exp(-0.5 * (t / 60e-12) ** 2) * np.exp(1j * 0.3 * np.sin(t / 50e-12))
    out = apply_temporal_phase(t, amp, v0, m)
    np.testing.assert_allclose(np.abs(out), np.abs(amp), rtol=1e-12)


def test_temporal_phase_modes_agree_near_zero_crossing():
    # near the zero crossing the sinusoidal drive phase is the linear ramp of its shift
    m = SHIFTER
    t = np.linspace(-1e-12, 1e-12, 11)  # well inside an 8 GHz half-period
    amp = np.ones_like(t, dtype=complex)
    a = apply_temporal_phase(t, amp, 0.2, m)
    ramp = 2.0 * math.pi * shift_magnitude(0.2, m) * t
    np.testing.assert_allclose(np.angle(a), ramp, atol=1e-4)


def test_phase_jitter_purity_limits():
    jittered = replace(SHIFTER, sigma_jitter=5.3e-12)
    assert phase_jitter_purity(SIGMA, 85e9, replace(SHIFTER, sigma_jitter=0.0)) == 1.0
    assert phase_jitter_purity(SIGMA, 0.0, jittered) == pytest.approx(1.0, abs=1e-12)


def test_phase_jitter_purity_reference_point():
    p = phase_jitter_purity(SIGMA, max_shift(SHIFTER), SHIFTER)
    # sub-percent depolarization: timing jitter is not the purity bottleneck
    assert 0.99 < p < 1.0


def test_phase_jitter_purity_monotone_in_jitter():
    values = [phase_jitter_purity(SIGMA, 85e9, replace(SHIFTER, sigma_jitter=sj))
              for sj in (0.0, 5.3e-12, 12e-12, 20e-12)]
    assert all(b < a for a, b in zip(values, values[1:]))


def einsum_overlap_matrix(sigma, delta_nu, model, nx, nt):
    """Oracle: the jittered-wavepacket overlaps as a 3-operand einsum over fresh rules."""
    xi_x, wx = np.polynomial.hermite.hermgauss(nx)
    x = math.sqrt(2.0) * model.sigma_jitter * xi_x
    xi_t, wt = np.polynomial.hermite.hermgauss(nt)
    t = xi_t / sigma
    omega_rf = 2.0 * math.pi * model.nu_rf
    kernel = np.exp(1j * (delta_nu / model.nu_rf) * np.sin(omega_rf * (t[:, None] - x[None, :])))
    overlap = np.einsum("t,tx,ty->xy", wt / math.sqrt(math.pi), kernel, kernel.conj())
    return wx / math.sqrt(math.pi), overlap


@pytest.mark.parametrize("nx, nt", [(PHASE_JITTER_NODES, PHASE_TIME_NODES),
                                    (PHASE_JITTER_NODES + 32, 2 * PHASE_TIME_NODES)])
@pytest.mark.parametrize("sigma_jitter", [5.3e-12, 20e-12])
def test_jitter_overlap_gemm_matches_einsum_oracle(nx, nt, sigma_jitter):
    model = ShifterModel(SHIFTER.nu_rf, SHIFTER.v0_max, sigma_jitter)
    wx, overlap = _jitter_overlap_matrix(SIGMA, max_shift(SHIFTER), model, nx, nt)
    wx_ref, oracle = einsum_overlap_matrix(SIGMA, max_shift(SHIFTER), model, nx, nt)
    assert np.abs(wx - wx_ref).max() <= 1e-12 * wx_ref.max()
    assert np.abs(overlap - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_hermite_rules_are_shared_read_only():
    xi, w = _hermite_rule(PHASE_TIME_NODES)
    assert _hermite_rule(PHASE_TIME_NODES)[0] is xi
    assert not xi.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_phase_jitter_purity_validates_inputs():
    with pytest.raises(ValueError):  # the model refuses a negative jitter
        phase_jitter_purity(SIGMA, 85e9, replace(SHIFTER, sigma_jitter=-1e-12))
    with pytest.raises(ValueError):
        phase_jitter_purity(0.0, 85e9, SHIFTER)
