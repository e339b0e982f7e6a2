import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmux import statistics
from fmux.statistics import (
    EXPANSION_LIMIT,
    MC_CHUNK,
    CountingResult,
    ExpansionDomainError,
    MultiplexedStatisticsModel,
    analytic_counting,
    counting_csv_header,
    counting_csv_row,
    effective_mode_count,
    hom_dip_curve,
    hom_visibility,
    klyshko_efficiencies,
    monte_carlo_counting,
    write_counting_csv,
    _counting_result,
    _occupied_pairs,
    _simulate_chunk,
)

REF = dict(mu=0.01, eta_s=0.14, eta_h=0.13)
N_REF = 170.0 / 60.0


def model(n_modes=N_REF, multiplexed=True, **overrides):
    params = dict(REF)
    params.update(overrides)
    return MultiplexedStatisticsModel(n_modes=n_modes, multiplexing_enabled=multiplexed,
                                      **params)


def test_effective_mode_count():
    assert math.isclose(effective_mode_count(170e9, 60e9), N_REF, rel_tol=1e-12)
    with pytest.raises(ValueError):
        effective_mode_count(170e9, 0.0)


def test_mode_rates_fractional_ladder():
    rates = model(n_modes=2.5).mode_rates()
    assert rates == [0.01, 0.01, 0.005]
    assert model(n_modes=3.0).mode_rates() == [0.01, 0.01, 0.01]
    assert model(multiplexed=False, n_modes=4.0).mode_rates() == [0.01]


@given(n=st.floats(1.0, 9.0), mu=st.floats(1e-4, 0.01))
def test_mode_rates_conserve_total(n, mu):
    rates = MultiplexedStatisticsModel(n, mu, 0.5, 0.5).mode_rates()
    assert math.isclose(sum(rates), n * mu, rel_tol=1e-9)


def test_analytic_small_mu_g2_law():
    """g2 -> 2 mu (2 - eta_h) as mu -> 0, independent of the signal arm."""
    mu = 1e-4
    for eta_h in (0.05, 0.5, 1.0):
        g2 = analytic_counting(model(n_modes=1.0, multiplexed=False, mu=mu,
                                     eta_s=0.3, eta_h=eta_h)).g2_h
        law = 2.0 * mu * (2.0 - eta_h)
        assert abs(g2 - law) / law < 1e-3


def test_analytic_g2_is_4mu_for_lossy_herald():
    g2 = analytic_counting(model(n_modes=1.0, multiplexed=False, mu=1e-4, eta_h=1e-3)).g2_h
    assert abs(g2 / 1e-4 - 4.0) < 0.05


def test_g2_independent_of_signal_loss():
    a = analytic_counting(model()).g2_h
    b = analytic_counting(model(eta_s=REF["eta_s"] / 2.0)).g2_h
    assert abs(a - b) / a < 1e-3


def test_mu_zero_gives_silence():
    r = analytic_counting(model(mu=0.0))
    assert r.p_h == 0.0 and r.p_sh == 0.0
    assert math.isnan(r.g2_h)


def test_expansion_domain_guard():
    bad = model(n_modes=11.0, mu=0.01)
    assert bad.n_modes * bad.mu >= EXPANSION_LIMIT
    with pytest.raises(ExpansionDomainError):
        analytic_counting(bad)


def test_multiplexed_signal_requires_herald():
    r = analytic_counting(model())
    assert r.p_s == r.p_sh  # unheralded pulses deliver no signal


def test_single_mode_signal_is_unconditional():
    r = analytic_counting(model(multiplexed=False, n_modes=1.0))
    assert r.p_s > r.p_sh


def test_enhancement_reference_value():
    mux = analytic_counting(model())
    single = analytic_counting(model(multiplexed=False))
    assert abs(mux.p_sh / single.p_sh - 2.8279) < 1e-3


def test_saturation_with_mode_count():
    ps = [analytic_counting(model(n_modes=n)).p_sh for n in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    # each extra mode helps less
    gains = [b / a for a, b in zip(ps, ps[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gains, gains[1:]))


def test_heralded_delivery_ceiling():
    for n in (1.0, 2.0, 4.0, 8.0):
        r = analytic_counting(model(n_modes=n))
        assert r.p_sh / r.p_h <= REF["eta_s"] * (1.0 + 3.0 * REF["mu"])


def test_mc_matches_analytic():
    cells = [(0.002, 1.0), (0.002, N_REF), (0.01, 1.0), (0.01, N_REF), (0.03, N_REF)]
    for mu, n in cells:
        m = model(n_modes=n, mu=mu)
        a = analytic_counting(m)
        r = monte_carlo_counting(m, 400_000, rng=5)
        assert abs(r.p_sh - a.p_sh) < 3.0 * r.se_p_sh, (mu, n)


def assert_identical(a, b):
    # field-by-field equality with NaN == NaN (sparse configs have no triples)
    import dataclasses

    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), f.name
        else:
            assert x == y, f.name


def test_mc_seed_reproducible():
    m = model()
    a = monte_carlo_counting(m, 100_000, rng=7)
    b = monte_carlo_counting(m, 100_000, rng=7)
    assert_identical(a, b)
    c = monte_carlo_counting(m, 100_000, rng=8)
    assert c.p_sh != a.p_sh or c.p_h != a.p_h


def test_mc_generator_seed_is_recorded():
    m = model()
    r = monte_carlo_counting(m, 50_000, rng=np.random.default_rng(123))
    assert r.seed is not None
    again = monte_carlo_counting(m, 50_000, rng=r.seed)
    assert_identical(again, r)


def dense_chunk(rng, mus, eta_s, eta_h, multiplexed, n):
    """Oracle: _simulate_chunk with every binomial drawn over the full pulse arrays."""
    pairs = np.empty((len(mus), n), dtype=np.int64)
    for i, mu in enumerate(mus):
        pairs[i] = rng.geometric(1.0 / (1.0 + mu), size=n) - 1
    herald_hits = rng.binomial(pairs, eta_h)
    clicks = herald_hits >= 1
    if multiplexed:
        heralded = clicks.any(axis=0)
        winner = clicks.argmax(axis=0)
        routed = np.where(heralded, pairs[winner, np.arange(n)], 0)
    else:
        heralded = clicks[0]
        routed = pairs[0]
    detected = rng.binomial(routed, eta_s)
    s1 = rng.binomial(detected, 0.5)
    c_s1, c_s2, c_s = s1 >= 1, detected - s1 >= 1, detected >= 1
    return np.array([heralded.sum(), c_s.sum(), (c_s & heralded).sum(),
                     (c_s1 & heralded).sum(), (c_s2 & heralded).sum(),
                     (c_s1 & c_s2 & heralded).sum()], dtype=np.int64)


# one pulse, a few, sizes where a piecewise read of 8192 words would split a mode's
# words (on and either side of one piece, and odd sizes past it), whole chunks and beyond
@pytest.mark.parametrize("size", [1, 1000, 8191, 8192, 8193, 24581, 32771, MC_CHUNK,
                                  MC_CHUNK + 3])
@pytest.mark.parametrize("multiplexed", [True, False])
def test_sparse_chunk_matches_dense_oracle(size, multiplexed):
    # mu = 0.3 makes multi-pair pulses and every click pattern common
    for seed, m in ((1, model(mu=0.03)), (2, model(mu=0.03)), (3, model(mu=0.3, n_modes=2.5))):
        m = replace(m, multiplexing_enabled=multiplexed)
        args = (m.mode_rates(), m.eta_s, m.eta_h, multiplexed, size)
        sparse_rng, dense_rng = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        counts = _simulate_chunk(sparse_rng, *args)
        assert np.array_equal(counts, dense_chunk(dense_rng, *args)), seed
        # the stream is left where the dense draws leave it
        assert sparse_rng.random() == dense_rng.random()


# p == 1.0 exactly at 1e-300 and 1.1e-16 (the first threshold clamps to 2^64 - 1),
# p = 1 - 2^-52 at 3e-16, the stats-sweep regime, many pairs, and p == 1/3 at 2.0,
# the last mu numpy samples by search
@pytest.mark.parametrize("mu", [1e-300, 1.1e-16, 3e-16, 1e-9, 0.01, 0.3, 2.0])
# sizes as above, and a whole chunk, which is one read per mode
@pytest.mark.parametrize("size", [1, 1000, 8191, 8192, 8193, 24581, 32771, MC_CHUNK - 1,
                                  MC_CHUNK])
def test_word_sampler_matches_geometric(mu, size):
    for seed in (5, 6):
        sparse_rng, dense_rng = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        pairs = _occupied_pairs(sparse_rng, [mu], size)
        dense = dense_rng.geometric(1.0 / (1.0 + mu), size) - 1
        assert np.array_equal(pairs[0], dense[dense > 0]), seed
        assert sparse_rng.random() == dense_rng.random()


@pytest.mark.parametrize("mu", [np.nextafter(2.0, 3.0), 3.0])
def test_mc_rejects_mu_above_search_domain(mu):
    monte_carlo_counting(model(mu=2.0), 100, rng=1)  # the domain's edge
    with pytest.raises(ValueError, match="mu"):
        monte_carlo_counting(model(mu=mu), 100, rng=1)


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("pulses", [1, MC_CHUNK, 3 * MC_CHUNK + 5])
@pytest.mark.parametrize("multiplexed", [True, False])
def test_mc_threads_match_serial_oracle(monkeypatch, cpus, pulses, multiplexed):
    # mu = 0.3 so that even one pulse can click and every count is nonzero at 3 chunks
    m = model(mu=0.3, n_modes=2.5, multiplexed=multiplexed)
    seed = 17
    children = np.random.SeedSequence(seed).spawn(-(-pulses // MC_CHUNK))
    parts = []
    for k, child in enumerate(children):
        size = min(MC_CHUNK, pulses - k * MC_CHUNK)
        parts.append(_simulate_chunk(np.random.Generator(np.random.Philox(child)),
                                     m.mode_rates(), m.eta_s, m.eta_h, multiplexed, size))
    expected = _counting_result(np.sum(parts, axis=0), pulses, seed)
    monkeypatch.setattr(statistics, "_available_cpus", lambda: cpus)
    assert_identical(monte_carlo_counting(m, pulses, rng=seed), expected)


def test_mc_respects_partial_mode():
    # fractional ladder shows up as extra heralds over the integer floor
    full = monte_carlo_counting(model(n_modes=2.0), 400_000, rng=9)
    frac = monte_carlo_counting(model(n_modes=2.9), 400_000, rng=9)
    assert frac.p_h > full.p_h


def test_klyshko_closed_loop():
    m = model(multiplexed=False, n_modes=1.0)
    r = monte_carlo_counting(m, 2_000_000, rng=11)
    eta_s_hat, eta_h_hat = klyshko_efficiencies(r)
    n = r.pulses
    se_s = math.sqrt(eta_s_hat * (1 - eta_s_hat) / (r.p_h * n))
    se_h = math.sqrt(eta_h_hat * (1 - eta_h_hat) / (r.p_s * n))
    assert abs(eta_s_hat - REF["eta_s"]) < 3.0 * se_s
    assert abs(eta_h_hat - REF["eta_h"]) < 3.0 * se_h


def test_klyshko_breaks_under_multiplexing():
    # with signal gated on heralding, the herald-arm estimate collapses to 1
    r = analytic_counting(model())
    _, eta_h_hat = klyshko_efficiencies(r)
    assert eta_h_hat == 1.0


def test_klyshko_rejects_zero_rates():
    with pytest.raises(ValueError):
        klyshko_efficiencies(analytic_counting(model(mu=0.0)))


def test_counting_result_validation():
    with pytest.raises(ValueError):
        CountingResult(p_h=0.1, p_s=0.1, p_sh=0.2, p_s1h=0.0, p_s2h=0.0,
                       p_s1s2h=0.0, g2_h=0.0)
    with pytest.raises(ValueError):
        CountingResult(p_h=0.5, p_s=0.5, p_sh=0.1, p_s1h=0.01, p_s2h=0.01,
                       p_s1s2h=0.05, g2_h=0.0)


def test_hom_visibility_values():
    assert math.isclose(hom_visibility(1.0, 0.14), 0.86, rel_tol=1e-12)
    assert math.isclose(hom_visibility(0.84, 0.14), 0.7224, rel_tol=1e-12)
    with pytest.raises(ValueError):
        hom_visibility(0.0, 0.1)
    with pytest.raises(ValueError):
        hom_visibility(0.9, -0.1)


def test_hom_dip_curve_shape():
    delays = np.linspace(-60e-12, 60e-12, 121)
    r = hom_dip_curve(0.84, 0.14, 2.0 * math.pi * 14.6e9, delays)
    assert abs(r[60] - (1.0 - 0.7224)) < 1e-12  # dip floor at zero delay
    assert r[0] > 0.99 and r[-1] > 0.99
    assert np.all(np.diff(r[:61]) <= 1e-15)  # monotone into the dip


def test_hom_dip_curve_far_delays_do_not_overflow():
    bandwidth = 2.0 * math.pi * 14.6e9
    near = np.linspace(-60e-12, 60e-12, 121)
    delays = np.concatenate([near, [-1e288, -1e-9, 1e-9, 1e288, 1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = hom_dip_curve(0.84, 0.14, bandwidth, delays)
    v = hom_visibility(0.84, 0.14)
    # bit for bit the unclipped formula where the dip resolves, exactly 1.0 far from it
    assert np.array_equal(r[:121], 1.0 - v * np.exp(-((bandwidth * near) ** 2)))
    assert r[121:].tolist() == [1.0] * 5


def test_counting_csv_round_trip(tmp_path):
    m = model()
    rows = [(m, analytic_counting(m)), (m, monte_carlo_counting(m, 50_000, rng=2))]
    path = tmp_path / "counts.csv"
    write_counting_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == counting_csv_header()
    assert len(lines) == 3
    header_cols = lines[0].split(",")
    for line, (_, result) in zip(lines[1:], rows):
        cells = dict(zip(header_cols, line.split(",")))
        assert float(cells["p_sh"]) == result.p_sh  # repr round-trips exactly
        assert cells["pulses"] == ("" if result.pulses is None else str(result.pulses))


def test_counting_csv_hash_distinguishes_configs():
    a = counting_csv_row(model(), analytic_counting(model()))
    b = counting_csv_row(model(multiplexed=False), analytic_counting(model(multiplexed=False)))
    assert a.split(",")[0] != b.split(",")[0]


@settings(deadline=None)
@given(mu=st.floats(1e-5, 0.02), eta_s=st.floats(0.05, 1.0), eta_h=st.floats(0.05, 1.0))
def test_analytic_probabilities_are_consistent(mu, eta_s, eta_h):
    r = analytic_counting(MultiplexedStatisticsModel(2.0, mu, eta_s, eta_h))
    assert 0.0 <= r.p_sh <= r.p_h <= 1.0
    assert r.p_s1s2h <= min(r.p_s1h, r.p_s2h) + 1e-15
    assert r.p_s1h + r.p_s2h >= r.p_sh - 1e-15
