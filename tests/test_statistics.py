import itertools
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmux.statistics import (
    CountingResult,
    MultiplexedStatisticsModel,
    analytic_counting,
    effective_mode_count,
    hom_dip_curve,
    hom_visibility,
    klyshko_efficiencies,
    monte_carlo_counting,
    _pair_numbers,
    _signal_laws,
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


# whole and fractional ladders; a partial mode weighs the law by sum(mu_m^2) / sum(mu_m),
# which is mu on a whole ladder and on the single arm
@pytest.mark.parametrize("n_modes, multiplexed", [(3.0, True), (N_REF, True), (N_REF, False)])
def test_analytic_g2_keeps_its_digits_at_tiny_mu(n_modes, multiplexed):
    m = model(n_modes=n_modes, multiplexed=multiplexed, mu=1e-9)
    mus = m.mode_rates()
    law = 2.0 * (2.0 - m.eta_h) * sum(x * x for x in mus) / sum(mus)
    assert abs(analytic_counting(m).g2_h / law - 1.0) < 1e-6


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


def probabilities(r) -> np.ndarray:
    return np.array([r.p_h, r.p_s, r.p_sh, r.p_s1h, r.p_s2h, r.p_s1s2h])


def test_mc_matches_analytic():
    # 1e10 pulses give about 1 % on g2 at mu = 0.01, so every probability and g2 is graded;
    # the model is exact at any mu, so the decades from 1e-3 to 10 are graded too
    cells = [(0.002, 1.0), (0.002, N_REF), (0.01, 1.0), (0.01, N_REF), (0.03, N_REF),
             (1e-3, N_REF), (0.1, N_REF), (1.0, N_REF), (10.0, N_REF)]
    for (mu, n), multiplexed in itertools.product(cells, (True, False)):
        m = model(n_modes=n, mu=mu, multiplexed=multiplexed)
        a = analytic_counting(m)
        r = monte_carlo_counting(m, 10**10, rng=5)
        p = probabilities(a)
        se = np.sqrt(p * (1.0 - p) / r.pulses)
        z = (probabilities(r) - p) / se
        assert np.all(np.abs(z) < 4.0), (mu, n, multiplexed, z)
        assert abs(r.g2_h - a.g2_h) < 4.0 * r.se_g2_h, (mu, n, multiplexed, r.g2_h, a.g2_h)


def test_mc_single_mode_at_equal_herald_rate_has_higher_g2():
    # the headline: pumping one mode at mu * n_modes matches the multiplexed herald rate
    # but not its g2 (2.85 times higher, analytically); graded here by Monte Carlo alone
    mux = model()
    single = model(multiplexed=False, n_modes=1.0, mu=REF["mu"] * N_REF)
    r_mux = monte_carlo_counting(mux, 10**10, rng=31)
    r_single = monte_carlo_counting(single, 10**10, rng=32)
    assert abs(r_single.p_h / r_mux.p_h - 1.0) < 0.01
    assert r_single.g2_h - r_mux.g2_h > 4.0 * math.hypot(r_single.se_g2_h, r_mux.se_g2_h)
    ratio = r_single.g2_h / r_mux.g2_h
    se_ratio = ratio * math.hypot(r_single.se_g2_h / r_single.g2_h, r_mux.se_g2_h / r_mux.g2_h)
    exact = analytic_counting(single).g2_h / analytic_counting(mux).g2_h
    assert abs(exact - 2.85) < 0.01
    assert abs(ratio - exact) < 4.0 * se_ratio, (ratio, se_ratio)


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
    """Oracle: the pulse-by-pulse model, one geometric pair number per pulse and mode."""
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


def counts(r) -> np.ndarray:
    return np.rint(probabilities(r) * r.pulses).astype(np.int64)


# mu = 0.3 makes multi-pair pulses, pulses with pairs in two modes and every click
# pattern common. The sizes run from one pulse, where each count is 0 or 1, to about
# 1.3e5; small sizes sum at most 1024 runs, so one pulse is graded at n = 1024.
@pytest.mark.parametrize("size", [1, 1000, 8191, 8192, 8193, 24581, 32771, 131072, 131075])
@pytest.mark.parametrize("multiplexed", [True, False])
def test_sparse_chunk_matches_dense_oracle(size, multiplexed):
    m = model(mu=0.3, n_modes=2.5, multiplexed=multiplexed)
    args = (m.mode_rates(), m.eta_s, m.eta_h, multiplexed, size)
    runs = min(-(-(1 << 19) // size), 1 << 10)
    sampled, dense = np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)
    for seed in range(runs):
        sampled += counts(monte_carlo_counting(m, size, rng=seed))
        dense += dense_chunk(np.random.Generator(np.random.Philox(seed + runs)), *args)
    n = runs * size
    p = probabilities(analytic_counting(m))
    se = np.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(sampled / n - p) < 4.0 * se), (sampled / n - p) / se
    assert np.all(np.abs(dense / n - p) < 4.0 * se), (dense / n - p) / se
    # the difference of two independent estimates has sqrt(2) times their SE
    assert np.all(np.abs(sampled - dense) / n < 4.0 * math.sqrt(2.0) * se)
    if not multiplexed:
        assert sampled[1] > sampled[2]  # the single arm's signal does not wait for a herald


# p == 1.0 exactly at 1e-300 and 1.1e-16, p = 1 - 2^-52 at 3e-16, the stats-sweep
# regime, and many pairs per occupied cell at 0.3 and 2.0
@pytest.mark.parametrize("mu", [1e-300, 1.1e-16, 3e-16, 1e-9, 0.01, 0.3, 2.0])
@pytest.mark.parametrize("size", [1, 1000, 8191, 8192, 8193, 24581, 32771, 131071, 131072])
def test_word_sampler_matches_geometric(mu, size):
    # _pair_numbers' histogram against P(N = j) and numpy's pulse-by-pulse geometric
    # draw, in law: about 2^18 pulses each (at most 512 draws, so 512 pulses at size 1)
    draws = min(-(-(1 << 18) // size), 1 << 9)
    n = draws * size
    hist, dense_hist = np.zeros(64, dtype=np.int64), np.zeros(64, dtype=np.int64)
    total, dense_total = 0, 0
    for seed in range(draws):
        cells = _pair_numbers(np.random.Generator(np.random.Philox(seed)), mu, size)
        assert min(cells, default=0) >= 0 and sum(cells) <= size
        for j, c in enumerate(cells, start=1):
            hist[min(j, 63)] += c
            total += j * c
        dense = np.random.Generator(np.random.Philox(seed + draws)).geometric(
            1.0 / (1.0 + mu), size) - 1
        dense_hist += np.bincount(np.minimum(dense, 63), minlength=64)
        dense_total += int(dense.sum())
    hist[0] = n - hist.sum()
    # P(N = j) = mu^j / (1 + mu)^(j + 1), the last bin taking the tail
    j = np.arange(64)
    law = mu**j / (1.0 + mu) ** (j + 1)
    law[-1] = (mu / (1.0 + mu)) ** 63
    for h in (hist, dense_hist):
        assert np.all(np.abs(h - n * law) < 4.0 * np.sqrt(n * law) + 1.0), h
    # the mean pair number per pulse is mu, with variance mu (1 + mu)
    for t in (total, dense_total):
        assert abs(t / n - mu) < 4.0 * math.sqrt(mu * (1.0 + mu) / n), t


@settings(deadline=None)
@given(eta_s=st.floats(0.0, 1.0))
def test_sampler_signal_laws_match_the_closed_form(eta_s):
    # P(both) is exactly 0 for one photon, where the closed form reads +-1.1e-16 at
    # the default eta_s = 0.14 and 0.13, and no probability leaves [0, 1]
    laws = _signal_laws(eta_s)
    for m in range(1, 65):
        p_click, p_both = next(laws)
        assert 0.0 <= p_click <= 1.0 and 0.0 <= p_both <= 1.0
        none, no_s1 = (1.0 - eta_s) ** m, (1.0 - 0.5 * eta_s) ** m
        assert abs(p_click - (1.0 - none)) < 1e-13
        assert abs(p_click * p_both - (1.0 - 2.0 * no_s1 + none)) < 1e-13
        if m == 1:
            assert p_both == 0.0


@pytest.mark.parametrize("multiplexed", [True, False])
def test_sampler_one_pair_never_makes_a_triple(multiplexed):
    # at mu = 1e-9 about 1e3 cells a mode hold a pair, and none of them two
    for eta_s in (0.13, 0.14):
        r = monte_carlo_counting(model(mu=1e-9, eta_s=eta_s, eta_h=1.0,
                                       multiplexed=multiplexed), 10**12, rng=6)
        assert r.p_h > 0.0 and r.p_s1h > 0.0 and r.p_s2h > 0.0
        assert r.p_s1s2h == 0.0


@pytest.mark.parametrize("multiplexed", [True, False])
def test_mc_samples_large_mu(multiplexed):
    # many pairs per pulse: the sampler and the exact counting model agree at mu = 3
    m = model(mu=3.0, n_modes=1.0, multiplexed=multiplexed)
    r = monte_carlo_counting(m, 200_000, rng=21)
    p = probabilities(analytic_counting(m))
    se = np.sqrt(p * (1.0 - p) / r.pulses)
    assert np.all(np.abs(probabilities(r) - p) < 4.0 * se), (probabilities(r) - p) / se


@pytest.mark.parametrize("multiplexed", [True, False])
def test_mc_mu_zero_gives_silence(multiplexed):
    r = monte_carlo_counting(model(mu=0.0, multiplexed=multiplexed), 131075, rng=4)
    assert (r.p_h, r.p_s, r.p_sh, r.p_s1h, r.p_s2h, r.p_s1s2h) == (0.0,) * 6
    assert math.isnan(r.g2_h) and math.isnan(r.se_g2_h)


@pytest.mark.parametrize("multiplexed", [True, False])
def test_sampler_memory_is_flat_in_pulses(multiplexed):
    # no array holds a cell or a pulse: the peak is a few KiB of Python ints, at 1e6
    # pulses as at 1e12, with the many pair numbers of mu = 0.3
    m = model(mu=0.3, n_modes=2.5, multiplexed=multiplexed)
    monte_carlo_counting(m, 10**6, rng=3)  # first-call allocations
    peaks = []
    for pulses in (10**6, 10**12):
        tracemalloc.start()
        try:
            monte_carlo_counting(m, pulses, rng=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 1 << 12, peaks


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("pulses", [1, 131072, 393221])
@pytest.mark.parametrize("multiplexed", [True, False])
def test_mc_threads_match_serial_oracle(cpus, pulses, multiplexed):
    # a run shares no state with another, so each of `cpus` concurrent callers gets
    # the result of the same call made alone
    m = model(mu=0.3, n_modes=2.5, multiplexed=multiplexed)
    expected = monte_carlo_counting(m, pulses, rng=17)
    with ThreadPoolExecutor(cpus) as pool:
        runs = list(pool.map(lambda _: monte_carlo_counting(m, pulses, rng=17), range(cpus)))
    for r in runs:
        assert_identical(r, expected)


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


@settings(deadline=None)
@given(mu=st.floats(1e-5, 0.02), eta_s=st.floats(0.05, 1.0), eta_h=st.floats(0.05, 1.0))
def test_analytic_probabilities_are_consistent(mu, eta_s, eta_h):
    r = analytic_counting(MultiplexedStatisticsModel(2.0, mu, eta_s, eta_h))
    assert 0.0 <= r.p_sh <= r.p_h <= 1.0
    assert r.p_s1s2h <= min(r.p_s1h, r.p_s2h) + 1e-15
    assert r.p_s1h + r.p_s2h >= r.p_sh - 1e-15
