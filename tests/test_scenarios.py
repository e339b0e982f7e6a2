import hashlib
import json

import numpy as np
import pytest

from fmux import cli, defaults, heralded
from fmux.scenarios import (
    SCENARIOS,
    _SCHEMA,
    ConfigError,
    ScenarioConfig,
    load_config,
    run_scenario,
    simulate_feedforward_stream,
)


def test_default_config_is_complete():
    cfg = load_config("loss-budget")
    assert set(cfg.params) == set(_SCHEMA)
    assert len(_SCHEMA) == 31
    assert cfg.seed == 7
    assert cfg.grid_scale == 1.0
    cfg.validate()


def test_cli_overrides_win():
    cfg = load_config("loss-budget", seed=99, grid_scale=0.25, outdir="elsewhere")
    assert cfg.seed == 99
    assert cfg.grid_scale == 0.25
    assert cfg.outdir == "elsewhere"


def test_user_overlay(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[statistics]\neta_signal = 0.2\n")
    cfg = load_config("stats-sweep", config_path=path)
    assert cfg.params["statistics.eta_signal"] == 0.2
    assert cfg.params["statistics.eta_herald"] == 0.13  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[statistics]\neta_singal = 0.2\n")
    with pytest.raises(ConfigError) as err:
        load_config("stats-sweep", config_path=path)
    assert "statistics.eta_singal" in str(err.value)


def test_unparseable_value_rejected(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[run]\nseed = soon\n")
    with pytest.raises(ConfigError) as err:
        load_config("lut-dump", config_path=path)
    assert "run.seed" in str(err.value)


def test_bad_field_fails_at_validate(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[filter]\nfull_width_ghz = -50\n")
    cfg = load_config("loss-budget", config_path=path)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_unknown_scenario_rejected():
    cfg = load_config("loss-budget")
    with pytest.raises(ConfigError):
        ScenarioConfig("purity-everything", cfg.params, cfg.seed, cfg.grid_scale)


def manifest_of(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


def run(scenario, tmp_path, **kwargs):
    cfg = load_config(scenario, outdir=tmp_path / scenario, **kwargs)
    return cfg, run_scenario(cfg)


def test_loss_budget_scenario(tmp_path):
    cfg, summary = run("loss-budget", tmp_path)
    assert summary["all_passed"]
    m = manifest_of(tmp_path / "loss-budget")
    assert m["scenario"] == "loss-budget"
    assert m["versions"]["numpy"] == np.__version__
    listed = {o["name"] for o in m["outputs"]}
    assert {"summary.txt", "loss_table.csv", "reconciliation.json"} <= listed
    # manifest digests describe the files on disk
    for entry in m["outputs"]:
        digest = hashlib.sha256((tmp_path / "loss-budget" / entry["name"]).read_bytes())
        assert digest.hexdigest() == entry["sha256"]


def test_lut_dump_scenario(tmp_path):
    _, summary = run("lut-dump", tmp_path)
    assert summary["all_passed"]
    text = (tmp_path / "lut-dump" / "summary.txt").read_text()
    assert "-> pass" in text and "FAIL" not in text


def test_purity_scenario_reduced_grid(tmp_path):
    cfg, summary = run("purity-jitter", tmp_path, grid_scale=0.5)
    assert summary["all_passed"]
    value = summary["checks"]["purity"]["value"]
    assert abs(value - 0.9067) < 5e-3
    m = manifest_of(tmp_path / "purity-jitter")
    assert m["grid_scale"] == 0.5
    weights = (tmp_path / "purity-jitter" / "mode_weights.csv").read_text().splitlines()
    lam = [float(l.split(",")[1]) for l in weights[1:]]
    assert lam == sorted(lam, reverse=True)
    assert sum(lam) <= 1.0 + 1e-9


def test_purity_scenario_eigensolves_once(tmp_path, monkeypatch):
    calls = []
    solve = heralded.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(heralded.linalg, "eigvalsh", counting)
    _, summary = run("purity-jitter", tmp_path, grid_scale=0.5)
    assert summary["all_passed"]
    assert len(calls) == 1


@pytest.mark.parametrize("jitter_ps, verdict", [("5.3", "negligible"), ("30", "not negligible")])
def test_purity_combined_phase_factor_wording(tmp_path, jitter_ps, verdict):
    path = tmp_path / "jitter.cfg"
    path.write_text(f"[shifter]\nphase_jitter_ps = {jitter_ps}\n")
    _, summary = run("purity-combined", tmp_path, grid_scale=0.5, config_path=path)
    line = next(l for l in summary["lines"] if l.startswith("drive-timing-jitter"))
    assert line.endswith(f"(worst shift; {verdict})")
    assert summary["checks"]["phase_jitter_factor"]["pass"] == (verdict == "negligible")


def test_joint_spectrum_scenario(tmp_path):
    _, summary = run("joint-spectrum", tmp_path, grid_scale=0.5)
    assert summary["all_passed"]
    marg = (tmp_path / "joint-spectrum" / "marginals.csv").read_text().splitlines()
    assert marg[0].startswith("signal_detuning_ghz")
    assert len(marg) > 100


def test_hom_dip_scenario(tmp_path):
    _, summary = run("hom-dip", tmp_path, grid_scale=0.5)
    assert summary["all_passed"]
    rows = (tmp_path / "hom-dip" / "hom_dip.csv").read_text().splitlines()[1:]
    parsed = [[float(v) for v in r.split(",")] for r in rows]
    assert all(len(row) == 2 for row in parsed)
    delays = [row[0] for row in parsed]
    assert delays == sorted(delays) and delays[0] == -delays[-1]
    rates = [row[1] for row in parsed]
    mid = len(rates) // 2
    assert rates[mid] == min(rates)
    assert rates[0] > 0.99


def test_stats_sweep_scenario(tmp_path):
    cfg, summary = run("stats-sweep", tmp_path)
    assert summary["all_passed"]
    assert abs(summary["checks"]["enhancement"]["value"] - 2.8279) < 1e-3
    rows = (tmp_path / "stats-sweep" / "counting_mc.csv").read_text().splitlines()
    assert len(rows) == 5  # header + mux/single MC + mux/single analytic


def stream_cfg(tmp_path, pulses=20_000, name="feedforward-stream", **param_overrides):
    cfg = load_config(name, outdir=tmp_path / name)
    cfg.params["run.stream_pulses"] = pulses
    cfg.params.update(param_overrides)
    return cfg


def test_stream_scenario_checks_and_reproducibility(tmp_path):
    cfg = stream_cfg(tmp_path / "a")
    summary = run_scenario(cfg)
    assert summary["all_passed"]
    again = run_scenario(stream_cfg(tmp_path / "b"))
    for name in ("summary.txt", "events.csv", "joint_hist_unshifted.txt",
                 "joint_hist_shifted.txt"):
        first = (tmp_path / "a" / "feedforward-stream" / name).read_bytes()
        second = (tmp_path / "b" / "feedforward-stream" / name).read_bytes()
        assert first == second, name


def test_stream_event_invariants(tmp_path):
    cfg = stream_cfg(tmp_path)
    result = simulate_feedforward_stream(cfg)
    window = cfg.signal_filter()
    limit = cfg.params["shifter.max_shift_ghz"] * 1e9
    for ev in result.events[:2000]:
        if ev.passed:
            post = ev.signal_frequency + defaults.TWO_PI * ev.applied_shift_hz
            assert abs(post - window.center) <= window.half_width * (1 + 1e-12)
            assert abs(ev.applied_shift_hz) <= limit * (1 + 1e-12)
        if "S" in ev.clicks:
            assert ev.passed  # no signal click without a delivered photon
    assert 0.2 < result.in_range_fraction < 0.4
    assert result.r_unshifted <= -0.9
    assert abs(result.r_shifted) < 0.2


def test_stream_quantization_floor(tmp_path):
    """With jitter off and a monochromatic pump, only TDC rounding remains."""
    cfg = stream_cfg(tmp_path)
    cfg.params["feedforward.stream_spectrometer"] = "none"
    cfg.params["source.pump_sigma_ghz"] = 1e-6
    result = simulate_feedforward_stream(cfg)
    spect = cfg.build_spectrometer("none")
    half_bin = spect.bin_frequency_step / 2.0
    center = cfg.signal_filter().center
    passed = [ev for ev in result.events if ev.passed]
    assert len(passed) > 1000
    worst = max(abs(ev.signal_frequency + defaults.TWO_PI * ev.applied_shift_hz - center)
                for ev in passed)
    assert worst <= half_bin * (1 + 1e-9)
    assert result.pass_fraction_in_range == 1.0


def test_every_scenario_is_runnable():
    for name in SCENARIOS:
        load_config(name).validate()


def test_cli_success_and_summary(tmp_path, capsys):
    code = cli.main(["lut-dump", "--outdir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "-> pass" in out


def test_cli_verbose_echoes_config(tmp_path, capsys):
    code = cli.main(["loss-budget", "-v", "--outdir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "# losses.snspd_db = 0.81" in out
    assert "# wrote" in out


def test_cli_failing_check_exits_one(tmp_path, capsys):
    # a single-channel "multiplexer" cannot produce the expected enhancement
    path = tmp_path / "flat.cfg"
    path.write_text("[statistics]\nn_modes = 1.0\nmonte_carlo_pulses = 50000\n")
    code = cli.main(["stats-sweep", "--config", str(path),
                     "--outdir", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_config_errors_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[statistics]\nmodes = 3\n")
    assert cli.main(["stats-sweep", "--config", str(path)]) == 2
    assert cli.main(["stats-sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert "statistics.modes" in err


@pytest.mark.parametrize("scenario", ["hom-dip", "purity-combined", "lut-dump"])
@pytest.mark.parametrize("value", ["0", "-8"])
def test_cli_nonpositive_rf_frequency_exits_two(tmp_path, capsys, scenario, value):
    path = tmp_path / "rf.cfg"
    path.write_text(f"[shifter]\nrf_frequency_ghz = {value}\n")
    code = cli.main([scenario, "--config", str(path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "shifter.rf_frequency_ghz" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["stats-sweep", "hom-dip"])
@pytest.mark.parametrize("dotted, value", [
    ("source.mean_pairs_per_pulse", "0.05"),  # mu * n_modes = 0.142
    ("statistics.mu_max", "0.05"),
    ("statistics.mu_max", "0"),
])
def test_cli_pair_rate_outside_counting_domain_exits_two(tmp_path, capsys, scenario,
                                                         dotted, value):
    section, key = dotted.split(".")
    path = tmp_path / "mu.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    code = cli.main([scenario, "--config", str(path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert dotted in capsys.readouterr().err


def test_cli_joint_spectrum_coarse_grid_has_no_traceback(tmp_path, capsys):
    # at this scale the filtered signal marginal sits on one grid point
    code = cli.main(["joint-spectrum", "--grid-scale", "0.05",
                     "--outdir", str(tmp_path / "out")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    correlation = next(l for l in lines if l.startswith("joint intensity correlation"))
    purity = next(l for l in lines if l.startswith("schmidt purity"))
    assert correlation.endswith("filtered nan")
    assert purity.endswith("filtered nan")  # not the one-point artifact 1.00000


@pytest.mark.parametrize("scenario", ["purity-jitter", "purity-combined", "hom-dip"])
def test_cli_unconverged_purity_grid_exits_two(tmp_path, capsys, scenario):
    code = cli.main([scenario, "--grid-scale", "0.02", "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "run.grid_scale" in capsys.readouterr().err


def test_cli_removed_marginal_fwhm_key_exits_two(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text("[source]\nmarginal_fwhm_ghz = 20.0\n")
    code = cli.main(["stats-sweep", "--config", str(path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "source.marginal_fwhm_ghz" in capsys.readouterr().err


# Small runs: every scenario takes a few tens of ms at these sizes.
SMALL = {
    "run.grid_scale": 0.25,
    "run.stream_pulses": 2000,
    "run.histogram_bins": 8,
    "run.hom_delay_points": 11,
    "statistics.monte_carlo_pulses": 20000,
    "statistics.sweep_points": 3,
}

# One valid value per configuration key, different from SMALL and the defaults.
PERTURBED = {
    "source.pump_sigma_ghz": 45.0,
    "source.mean_pairs_per_pulse": 0.02,
    "source.signal_wavelength_nm": 1550.0,
    "filter.center_offset_ghz": 5.0,
    "filter.full_width_ghz": 40.0,
    "spectrometer.dispersion_ps_per_ghz": 4.0,
    "spectrometer.tdc_bin_ps": 300.0,
    "spectrometer.jitter_model": "nominal",
    "spectrometer.nominal_resolution_ghz": 40.0,
    "shifter.rf_frequency_ghz": 10.0,
    "shifter.max_shift_ghz": 60.0,
    "shifter.phase_jitter_ps": 8.0,
    "feedforward.herald_span_ghz": 120.0,
    "feedforward.idler_sample_span_ghz": 500.0,
    "feedforward.stream_spectrometer": "measured",
    "delay.fiber_dispersion_ps_nm_km": 17.0,
    "delay.length_m": 200.0,
    "statistics.n_modes": 2.0,
    "statistics.eta_signal": 0.2,
    "statistics.eta_herald": 0.2,
    "statistics.sweep_points": 4,
    "statistics.mu_max": 0.02,
    "statistics.monte_carlo_pulses": 30000,
    "losses.snspd_db": 1.08,
    "losses.tolerance": 0.001,
    "run.seed": 8,
    "run.grid_scale": 0.3,
    "run.histogram_bins": 10,
    "run.stream_pulses": 3000,
    "run.hom_delay_span_ps": 40.0,
    "run.hom_delay_points": 13,
}


def output_digests(overlay: dict, root) -> dict:
    """SHA-256 of summary.txt and every data file of all scenarios under one overlay."""
    root.mkdir(parents=True)
    sections: dict = {}
    for dotted, value in overlay.items():
        section, key = dotted.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    path = root / "overlay.cfg"
    path.write_text("".join(f"[{s}]\n" + "\n".join(v) + "\n" for s, v in sections.items()))
    digests = {}
    for name in SCENARIOS:
        run_scenario(load_config(name, config_path=path, outdir=root / name))
        for entry in manifest_of(root / name)["outputs"]:
            digests[f"{name}/{entry['name']}"] = entry["sha256"]
    return digests


@pytest.fixture(scope="module")
def small_digests(tmp_path_factory):
    return output_digests(SMALL, tmp_path_factory.mktemp("small") / "base")


def test_every_key_has_a_perturbation():
    assert set(PERTURBED) == set(_SCHEMA)


@pytest.mark.parametrize("dotted", sorted(PERTURBED))
def test_every_key_changes_an_output(small_digests, tmp_path, dotted):
    changed = output_digests({**SMALL, dotted: PERTURBED[dotted]}, tmp_path / "perturbed")
    assert set(changed) == set(small_digests)
    assert any(changed[k] != small_digests[k] for k in changed), f"{dotted} changes no output"
