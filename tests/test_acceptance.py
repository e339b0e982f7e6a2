"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line, so ``pytest -s tests/test_acceptance.py``
reads as a checklist. Monte Carlo comparisons use pinned seeds and
three-standard-error bands; wall-clock budgets are asserted where a criterion
carries one.
"""

import math
import time
from dataclasses import replace

import numpy as np

from fmux import defaults, heralded, losses, serrodyne, spectral, statistics
from fmux.scenarios import load_config, simulate_feedforward_stream

CFG = load_config("purity-combined")


def report(criterion: int, ok: bool, text: str) -> None:
    print(f"criterion {criterion}: {text} -> {'pass' if ok else 'FAIL'}")
    assert ok, text


def test_criterion_1_jitter_only_purity():
    started = time.perf_counter()
    purity = heralded.purity_integral(CFG.heralded_model(gvd=False))
    elapsed = time.perf_counter() - started
    ok = 0.90 <= purity <= 0.94 and elapsed < 120
    report(1, ok, f"timing-jitter-only purity {purity:.5f} in [0.90, 0.94] ({elapsed:.1f} s)")


def test_criterion_2_dispersion_only_purity():
    started = time.perf_counter()
    purity = heralded.purity_integral(CFG.heralded_model(jitter=False))
    elapsed = time.perf_counter() - started
    ok = 0.93 <= purity <= 0.97 and elapsed < 120
    report(2, ok, f"dispersion-only purity {purity:.5f} in [0.93, 0.97] ({elapsed:.1f} s)")


def test_criterion_3_combined_purity():
    started = time.perf_counter()
    purity = heralded.purity_integral(CFG.heralded_model())
    elapsed = time.perf_counter() - started
    ok = 0.82 <= purity <= 0.86 and elapsed < 600
    report(3, ok, f"combined purity {purity:.5f} in [0.82, 0.86] ({elapsed:.1f} s)")


def test_criterion_4_gvd_parameter():
    started = time.perf_counter()
    gamma = heralded.gvd_parameter(18.0, 300.0, 1535e-9)
    elapsed = time.perf_counter() - started
    ok = 3.2e-24 <= abs(gamma) <= 3.5e-24 and elapsed < 1.0
    report(4, ok, f"|gvd parameter| {abs(gamma):.3e} s^2 in [3.2e-24, 3.5e-24] ({elapsed:.2f} s)")


def test_criterion_5_hom_visibility_anchors():
    started = time.perf_counter()
    bare = statistics.hom_visibility(1.0, 0.14)
    quoted = statistics.hom_visibility(0.84, 0.14)
    elapsed = time.perf_counter() - started
    gap = quoted - defaults.MEASURED_HOM_VISIBILITY
    ok = abs(bare - 0.86) <= 0.005 and abs(quoted - 0.72) <= 0.01 and elapsed < 1.0
    report(
        5, ok,
        f"visibility {bare:.4f} (unit purity) and {quoted:.4f} (purity 0.84); "
        f"measured {defaults.MEASURED_HOM_VISIBILITY} trails the model by {gap:.3f}, "
        "which the model attributes to interferometer imperfections it does not include",
    )


def test_criterion_6_counting_statistics():
    started = time.perf_counter()
    single = statistics.MultiplexedStatisticsModel(
        n_modes=1.0, mu=0.01, eta_s=1.0, eta_h=0.13, multiplexing_enabled=False
    )
    mc = statistics.monte_carlo_counting(single, 1_000_000, seed=7)
    ok_small_mu = abs(mc.g2_h - 4 * single.mu) <= 3.0 * mc.se_g2_h

    n = statistics.effective_mode_count(170e9, 60e9)
    mux = statistics.MultiplexedStatisticsModel(
        n_modes=n, mu=0.01, eta_s=0.14, eta_h=0.13, multiplexing_enabled=True
    )
    flat = replace(mux, multiplexing_enabled=False)
    enhancement = statistics.analytic_counting(mux).p_sh / statistics.analytic_counting(flat).p_sh
    ok_analytic = 2.2 <= enhancement <= 3.4

    mc_mux = statistics.monte_carlo_counting(mux, 16_000_000, seed=7)
    mc_flat = statistics.monte_carlo_counting(flat, 16_000_000, seed=8)
    mc_enh = mc_mux.p_sh / mc_flat.p_sh
    se_enh = mc_enh * math.hypot(mc_mux.se_p_sh / mc_mux.p_sh, mc_flat.se_p_sh / mc_flat.p_sh)
    ok_mc = 2.2 <= mc_enh <= 3.4 and abs(mc_enh - enhancement) <= 3.0 * se_enh
    ok_g2 = abs(mc_mux.g2_h - mc_flat.g2_h) <= 3.0 * math.hypot(mc_mux.se_g2_h, mc_flat.se_g2_h)

    elapsed = time.perf_counter() - started
    ok = ok_small_mu and ok_analytic and ok_mc and ok_g2 and elapsed < 300
    report(
        6, ok,
        f"g2 {mc.g2_h:.4f} consistent with 4mu at mu=0.01; enhancement {enhancement:.4f} "
        f"(MC {mc_enh:.4f} +/- {se_enh:.4f}) in [2.2, 3.4] around the measured "
        f"{defaults.MEASURED_ENHANCEMENT}; g2 unchanged by multiplexing within error "
        f"({elapsed:.1f} s)",
    )


def test_criterion_7_loss_budget_and_klyshko():
    started = time.perf_counter()
    table = CFG.loss_table()
    eta_s = losses.arm_efficiency(table, "signal")
    eta_h = losses.arm_efficiency(table, "herald")
    ok_budget = abs(eta_s - 0.13) <= 0.005 and abs(eta_h - 0.12) <= 0.005

    injected = statistics.MultiplexedStatisticsModel(
        n_modes=1.0, mu=0.01, eta_s=0.14, eta_h=0.13, multiplexing_enabled=False
    )
    mc = statistics.monte_carlo_counting(injected, 2_000_000, seed=11)
    s_hat, h_hat = statistics.klyshko_efficiencies(mc)
    se_s = math.sqrt(s_hat * (1 - s_hat) / (mc.p_h * mc.pulses))
    se_h = math.sqrt(h_hat * (1 - h_hat) / (mc.p_s * mc.pulses))
    ok_loop = abs(s_hat - injected.eta_s) <= 3.0 * se_s and abs(h_hat - injected.eta_h) <= 3.0 * se_h

    elapsed = time.perf_counter() - started
    ok = ok_budget and ok_loop and elapsed < 60
    report(
        7, ok,
        f"arm efficiencies {eta_s:.4f}/{eta_h:.4f} within 0.005 of 0.13/0.12; "
        f"Klyshko recovers {s_hat:.4f}/{h_hat:.4f} for injected 0.14/0.13 within 3 SE "
        f"({elapsed:.1f} s)",
    )


def test_criterion_8_property_bundle():
    """Quick representatives; the heavy versions live in the module suites."""
    started = time.perf_counter()
    flags = {}

    sigma = CFG.pump().sigma
    jitter_only = CFG.heralded_model(gvd=False)
    gvd_only = CFG.heralded_model(jitter=False)
    shifter = CFG.shifter()

    pump = spectral.PumpEnvelope(sigma=sigma, center=0.0)
    grid = spectral.default_grid(0.0, sigma)
    jsa = spectral.build_anticorrelated_jsa(pump, grid, grid)
    norm = float(np.sum(np.abs(jsa.weighted_matrix()) ** 2))
    flags["normalization"] = abs(norm - 1.0) <= 1e-6

    dm = heralded.assemble_density_matrix(
        replace(jitter_only, n_signal=201, n_herald=17, n_jitter=65)
    )
    w = dm.grid.trapezoid_weights()
    rho = dm.matrix()
    trace = float(np.diag(rho) @ w)
    eigs = dm.eigenvalues()
    flags["density_matrix"] = (
        abs(trace - 1.0) <= 1e-9
        and np.max(np.abs(rho - rho.T)) <= 1e-12
        and float(np.min(eigs)) >= -1e-8
    )

    correlated = spectral.build_anticorrelated_jsa(
        pump, grid, grid, phase_matching_sigma=2.0 * sigma
    )
    closed_form = spectral.rotated_gaussian_purity(sigma, 2.0 * sigma)
    flags["schmidt_vs_integral"] = abs(spectral.schmidt_purity(correlated) - closed_form) <= 1e-2

    # purity_integral always runs its refinement guard, so these calls also check convergence
    p45 = heralded.purity_integral(jitter_only.scaled(0.5))
    p10 = heralded.purity_integral(
        replace(jitter_only, error_std=defaults.TWO_PI * 10e9).scaled(0.5)
    )
    flags["monotone_in_jitter"] = p10 > p45
    flags["grid_refinement"] = abs(p45 - 0.90674) <= 1e-3

    mild = heralded.purity_integral(replace(gvd_only, gamma=-1e-24).scaled(0.5))
    strong = heralded.purity_integral(gvd_only.scaled(0.5))
    drive = [serrodyne.phase_jitter_purity(sigma, 85e9, replace(shifter, sigma_jitter=sj))
             for sj in (0.0, 5.3e-12, 20e-12)]
    flags["monotone_in_dispersion_and_drive_jitter"] = (
        mild > strong and drive[0] == 1.0 and drive[0] > drive[1] > drive[2]
    )

    mux = statistics.MultiplexedStatisticsModel(
        n_modes=statistics.effective_mode_count(170e9, 60e9),
        mu=0.01, eta_s=0.14, eta_h=0.13, multiplexing_enabled=True,
    )
    an = statistics.analytic_counting(mux)
    mc = statistics.monte_carlo_counting(mux, 400_000, seed=5)
    flags["analytic_vs_monte_carlo"] = abs(mc.p_sh - an.p_sh) <= 3.0 * mc.se_p_sh

    v0 = 0.4 * serrodyne.V_PI
    flags["shift_linearity"] = (
        math.isclose(2.0 * serrodyne.shift_magnitude(v0, shifter),
                     serrodyne.shift_magnitude(2.0 * v0, shifter), rel_tol=1e-12)
        and math.isclose(serrodyne.voltage_for_shift(
            serrodyne.shift_magnitude(v0, shifter), shifter), v0, rel_tol=1e-12)
    )

    t = np.linspace(-50e-12, 50e-12, 401)
    pulse = np.exp(-((t / 10e-12) ** 2)).astype(complex)
    shifted = serrodyne.apply_temporal_phase(t, pulse, 0.7 * serrodyne.V_PI, shifter)
    flags["temporal_phase_norm"] = abs(
        float(np.sum(np.abs(shifted) ** 2) - np.sum(np.abs(pulse) ** 2))
    ) <= 1e-9

    r1 = statistics.monte_carlo_counting(mux, 300_000, seed=123)
    r2 = statistics.monte_carlo_counting(mux, 300_000, seed=123)
    fields = ("p_h", "p_s", "p_sh", "p_s1h", "p_s2h", "p_s1s2h", "g2_h", "se_p_sh", "se_g2_h")
    flags["seed_reproducibility"] = all(
        getattr(r1, f) == getattr(r2, f)
        or (math.isnan(getattr(r1, f)) and math.isnan(getattr(r2, f)))
        for f in fields
    )

    elapsed = time.perf_counter() - started
    failed = [name for name, good in flags.items() if not good]
    ok = not failed
    detail = "all hold" if ok else "failing: " + ", ".join(failed)
    report(8, ok, f"{len(flags) - len(failed)}/{len(flags)} property checks, "
                  f"{detail} ({elapsed:.1f} s)")


def test_criterion_9_feedforward_stream():
    started = time.perf_counter()
    cfg = load_config("feedforward-stream")
    result = simulate_feedforward_stream(cfg)  # default 100000 pulses, seed 7
    elapsed = time.perf_counter() - started
    ok = result.r_unshifted <= -0.9 and abs(result.r_shifted) < 0.2 and elapsed < 120
    report(
        9, ok,
        f"stream correlation {result.r_unshifted:.4f} before shifting (<= -0.9) and "
        f"{result.r_shifted:.4f} after (|r| < 0.2) at {result.pulses} events "
        f"({elapsed:.1f} s)",
    )
