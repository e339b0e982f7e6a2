import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fmux
from fmux import cli, defaults, heralded, losses, scenarios, spectral, spectrometer, statistics
from fmux.scenarios import (
    GHZ,
    HISTOGRAM_BINS_MAX,
    HOM_DELAY_POINTS_MAX,
    MC_PULSES_MAX,
    MODE_WEIGHT_FLOOR,
    MU_MAX,
    N_MODES_MAX,
    SCENARIOS,
    STREAM_PULSES_MAX,
    SWEEP_POINTS_MAX,
    _SCHEMA,
    ConfigError,
    ScenarioConfig,
    _JointCounts,
    _write_events,
    _write_herald_bins,
    load_config,
    run_scenario,
    simulate_feedforward_stream,
)
from oracles import conditional_outcome_distribution, whole_column_stream


def test_default_config_is_complete():
    cfg = load_config("loss-budget")
    assert set(cfg.params) == set(_SCHEMA)
    assert len(_SCHEMA) == 30
    assert cfg.seed == 7
    assert cfg.grid_scale == 1.0
    cfg.validate()


def test_cli_overrides_win():
    cfg = load_config("loss-budget", seed=99, grid_scale=0.25, outdir="elsewhere")
    assert cfg.seed == 99
    assert cfg.grid_scale == 0.25
    assert cfg.outdir == "elsewhere"
    # one copy: the overrides are the params every echo of the config reads
    assert cfg.params["run.seed"] == 99
    assert cfg.params["run.grid_scale"] == 0.25


def test_cli_overrides_reach_echo_and_manifest(tmp_path, capsys):
    outdir = tmp_path / "out"
    code = cli.main(["loss-budget", "--seed", "3", "--grid-scale", "0.5", "-v",
                     "--outdir", str(outdir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "# run.seed = 3\n" in out and "# run.grid_scale = 0.5\n" in out
    manifest = manifest_of(outdir)
    assert (manifest["seed"], manifest["grid_scale"]) == (3, 0.5)
    assert manifest["config"]["run"] == {**manifest["config"]["run"], "seed": 3, "grid_scale": 0.5}
    summary = (outdir / "summary.txt").read_text()
    assert "seed: 3\ngrid_scale: 0.5\n" in summary


def test_user_overlay(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[statistics]\neta_signal = 0.2\n")
    cfg = load_config("stats-sweep", config_path=path)
    assert cfg.params["statistics.eta_signal"] == 0.2
    assert cfg.params["statistics.eta_herald"] == 0.13  # untouched default


def test_overlays_and_mutated_params_do_not_leak_into_the_next_config(tmp_path, monkeypatch):
    defaults_before = dict(load_config("stats-sweep").params)
    first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
    first.write_text("[statistics]\neta_signal = 0.2\n[run]\nseed = 5\n")
    second.write_text("[statistics]\neta_herald = 0.3\n")
    a = load_config("stats-sweep", config_path=first)
    b = load_config("stats-sweep", config_path=second, seed=8)
    assert (a.params["statistics.eta_signal"], a.params["statistics.eta_herald"], a.seed) == (
        0.2, 0.13, 5)
    assert (b.params["statistics.eta_signal"], b.params["statistics.eta_herald"], b.seed) == (
        defaults_before["statistics.eta_signal"], 0.3, 8)
    a.params["statistics.n_modes"] = 1.0
    b.params.clear()
    reads = []
    monkeypatch.setattr(scenarios, "_read_ini", lambda path: reads.append(path))
    assert load_config("stats-sweep").params == defaults_before
    assert reads == []  # the packaged defaults are parsed once a process
    with pytest.raises(TypeError):
        scenarios._default_values()["run.seed"] = "9"


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
        ScenarioConfig("purity-everything", cfg.params)


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
    assert set(m["versions"]) == {"package", "python", "numpy"}
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
    # weights at the eigensolver's round-off level are written as exactly 0.0
    floor = MODE_WEIGHT_FLOOR * lam[0]
    tail = [v for v in lam if v <= floor]
    assert tail and all(v == 0.0 for v in tail)
    assert all(v > floor for v in lam[: len(lam) - len(tail)])
    assert all(l.endswith(",0.0") for l in weights[len(weights) - len(tail):])


def test_purity_scenario_eigensolves_once(tmp_path, monkeypatch):
    solves = []
    solve = heralded._block_spectrum

    def recording(b):
        solves.append((b.dtype, b.shape))
        return solve(b)

    monkeypatch.setattr(heralded, "_block_spectrum", recording)
    _, summary = run("purity-jitter", tmp_path, grid_scale=0.5)
    assert summary["all_passed"]
    # one matrix on 257 signal points, solved once as its even and odd parity
    # blocks by the real symmetric block solver
    assert solves == [(np.float64, (129, 129)), (np.float64, (128, 128))]


def test_purity_scenario_builds_each_grids_kernels_once(tmp_path, monkeypatch):
    calls = []
    error_table = heralded._error_table

    def recording(model, e):
        calls.append(model.n_signal)
        return error_table(model, e)

    monkeypatch.setattr(heralded, "_error_table", recording)
    for _ in range(2):
        calls.clear()
        _, summary = run("purity-jitter", tmp_path)
        assert summary["all_passed"]
        # one exponential table for the doubled grid of the refinement guard, then one
        # for the base grid, whose factors assemble_density_matrix reuses
        assert calls == [1025, 513]
    lag, mid = heralded._kernels(load_config("purity-jitter").heralded_model(gvd=False))
    assert not any(a.flags.writeable for a in (lag, mid))


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


def test_joint_spectrum_marginals_are_plain_numbers(tmp_path):
    run("joint-spectrum", tmp_path)
    rows = (tmp_path / "joint-spectrum" / "marginals.csv").read_text().splitlines()[1:]
    assert len(rows) == 257
    for row in rows:  # no np.float64(...) wrappers
        assert len([float(cell) for cell in row.split(",")]) == 4


def test_joint_spectrum_runs_no_svd_and_reruns_byte_identical(tmp_path, monkeypatch):
    solves = []
    svdvals = np.linalg.svdvals

    def recording(a, *args, **kwargs):
        solves.append(np.shape(a))
        return svdvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svdvals", recording)
    outputs = []
    for rerun in ("first", "second"):
        _, summary = run("joint-spectrum", tmp_path / rerun)
        assert summary["all_passed"]
        out = tmp_path / rerun / "joint-spectrum"
        outputs.append({name: (out / name).read_bytes() for name in (
            "joint_spectrum.npy", "joint_spectrum_filtered.npy", "marginals.csv")})
    # both Schmidt purities come from Gram products
    assert solves == []
    assert outputs[0] == outputs[1]
    out = tmp_path / "first" / "joint-spectrum"
    record = np.load(out / "joint_spectrum.npy", allow_pickle=False)
    assert record.shape == () and record.dtype.names == ("omega_s", "omega_i", "amplitude")
    assert record["amplitude"].shape == (257, 257) and record["amplitude"].dtype == np.float64
    # the record rebuilds the state: unit norm, and the marginals the scenario wrote
    signal_grid, herald_grid = (spectral.FrequencyGrid(v[v.size // 2], v[-1] - v[0], v.size)
                                for v in (record["omega_s"], record["omega_i"]))
    np.testing.assert_allclose(signal_grid.values, record["omega_s"], rtol=1e-15)
    np.testing.assert_allclose(herald_grid.values, record["omega_i"], rtol=1e-15)
    jsa = spectral.JointSpectralAmplitude(signal_grid, herald_grid, record["amplitude"])
    norm = spectral._grid_norm(signal_grid, herald_grid, jsa.amplitude)
    assert abs(norm - 1.0) <= 1e-13
    marginals = np.loadtxt(out / "marginals.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(marginals[:, 1], jsa.signal_marginal(), rtol=1e-12, atol=0)
    np.testing.assert_allclose(marginals[:, 3], jsa.herald_marginal(), rtol=1e-12, atol=0)


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


def counting_rows(tmp_path, **param_overrides):
    """The stats-sweep config run under param_overrides, and its counting_mc.csv rows."""
    cfg = load_config("stats-sweep", outdir=tmp_path / "stats-sweep")
    cfg.params.update(param_overrides)
    run_scenario(cfg)
    with open(tmp_path / "stats-sweep" / "counting_mc.csv", newline="") as fh:
        return cfg, list(csv.DictReader(fh))


COUNTING_FIELDS = ("p_h", "p_s", "p_sh", "p_s1s2h", "g2_h", "se_p_sh", "se_g2_h")


def test_counting_csv_round_trip(tmp_path):
    # one Monte Carlo pulse gives no herald, so its g2 and g2 standard error cells are nan
    for case, overrides in enumerate([{}, {"statistics.monte_carlo_pulses": 1}]):
        cfg, rows = counting_rows(tmp_path / str(case), **overrides)
        mux, single = cfg.statistics_model(True), cfg.statistics_model(False)
        pulses = cfg.get("statistics.monte_carlo_pulses")
        expected = [(mux, statistics.monte_carlo_counting(mux, pulses, seed=cfg.seed)),
                    (single, statistics.monte_carlo_counting(single, pulses, seed=cfg.seed + 1)),
                    (mux, statistics.analytic_counting(mux)),
                    (single, statistics.analytic_counting(single))]
        assert len(rows) == len(expected)
        for row, (model, result) in zip(rows, expected):
            for name in ("n_modes", "mu", "eta_s", "eta_h"):
                assert float(row[name]) == getattr(model, name), name
            assert row["multiplexed"] == str(int(model.multiplexing_enabled))
            for name in COUNTING_FIELDS:  # the shortest repr parses back exactly
                assert_same_number(float(row[name]), getattr(result, name), name)
            assert (row["pulses"], row["seed"]) == (
                ("", "") if result.pulses is None else (str(pulses), str(result.seed)))
        if pulses == 1:
            assert [(r["g2_h"], r["se_g2_h"]) for r in rows[:2]] == [("nan", "nan")] * 2


def test_counting_csv_hash_distinguishes_configs(tmp_path):
    configs = [row["config"] for row in counting_rows(tmp_path / "a")[1]]
    # the two arms differ; each arm's Monte Carlo and analytic rows hash the same model
    assert configs[0] != configs[1]
    assert configs[2:] == configs[:2]
    moved = counting_rows(tmp_path / "b", **{"source.mean_pairs_per_pulse": 0.02})[1]
    assert not {row["config"] for row in moved} & set(configs)


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
    for name in ("summary.txt", "events.npy", "herald_bins.npy", "joint_hist_unshifted.txt",
                 "joint_hist_shifted.txt"):
        first = (tmp_path / "a" / "feedforward-stream" / name).read_bytes()
        second = (tmp_path / "b" / "feedforward-stream" / name).read_bytes()
        assert first == second, name


def test_stream_clipping_prediction_follows_the_loss_ledger(tmp_path, monkeypatch):
    line = run_scenario(stream_cfg(tmp_path / "a", pulses=2000))["lines"][1]
    assert line.endswith("(bandwidth-clipping budget entry predicts 0.501)")
    ledger = load_config("loss-budget").loss_table()
    entries = [replace(e, loss_db=6.0) if e.component == "bandwidth clipping" else e
               for e in ledger.entries]
    monkeypatch.setattr(ScenarioConfig, "loss_table", lambda self: losses.LossTable(entries))
    line = run_scenario(stream_cfg(tmp_path / "b", pulses=2000))["lines"][1]
    assert line.endswith("(bandwidth-clipping budget entry predicts 0.251)")


def analytic_in_range_fraction(cfg) -> float:
    """P(herald bin in range) for an idler uniform over the sampled span.

    The average over the span (midpoint rule) of each idler's outcome
    distribution over TDC bins, summed over the bins the LUT routes.
    """
    spect = cfg.build_spectrometer(cfg.get("feedforward.stream_spectrometer"))
    lut = cfg.lut(spect)
    span = cfg.get("feedforward.idler_sample_span_ghz") * GHZ
    nodes = 6000
    total = 0.0
    for u in (np.arange(nodes) + 0.5) / nodes:
        omega = spect.reference_frequency + (u - 0.5) * span
        bins, probs, _ = conditional_outcome_distribution(spect, omega)
        total += probs[lut.route(bins)[1]].sum()
    return total / nodes


def test_stream_event_invariants(tmp_path):
    cfg = stream_cfg(tmp_path, pulses=200_000)
    result = simulate_feedforward_stream(cfg)
    window = cfg.signal_filter()
    limit = cfg.params["shifter.max_shift_ghz"] * 1e9
    n = result.pulses
    assert n == 200_000
    for column in ("signal_frequency", "idler_frequency", "herald_bin", "herald_frequency",
                   "applied_shift_hz", "passed", "herald_click", "signal_click"):
        assert getattr(result, column).shape == (n,), column
    passed = result.passed
    post = result.signal_frequency[passed] + defaults.TWO_PI * result.applied_shift_hz[passed]
    assert np.all(np.abs(post - window.center) <= window.half_width * (1 + 1e-12))
    assert np.all(np.abs(result.applied_shift_hz[passed]) <= limit * (1 + 1e-12))
    assert not np.any(result.signal_click & ~passed)  # no signal click without a photon
    p = analytic_in_range_fraction(cfg)
    assert abs(result.in_range_fraction - p) < 4.0 * np.sqrt(p * (1.0 - p) / n)
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
    passed = result.passed
    assert passed.sum() > 1000
    post = result.signal_frequency[passed] + defaults.TWO_PI * result.applied_shift_hz[passed]
    assert np.abs(post - center).max() <= half_bin * (1 + 1e-9)
    assert result.pass_fraction_in_range == 1.0


@pytest.fixture(scope="module")
def small_stream(tmp_path_factory):
    cfg = stream_cfg(tmp_path_factory.mktemp("stream"), pulses=5000)
    return simulate_feedforward_stream(cfg), cfg.anchor()


# column values (rad/s, or Hz for the shift): exact binary fractions, decimal near-ties,
# signed zeros, the smallest subnormal, +-1e300 and the non-finite values
EDGE_VALUES = [-0.0, 0.0, 1 / 128, -1 / 128, 5e-7, -5e-7, 999.9999995, -999.9999995, 5e-324,
               1e300, -1e300, np.inf, -np.inf, np.nan]
EDGE_BINS = [np.iinfo(np.int16).min, np.iinfo(np.int16).max, -1, 0, 1]


def seeded_stream(result, rows: int, seed: int):
    """result with every event column and its bin table replaced by edge values and neighbours.

    Each column cycles through its own shuffle of its pool, so a stream of
    at least the pool's size holds every edge value in every column; the
    bin table spans its lowest bin to its highest (all of int16 once both
    extremes are drawn), its rows cycling through the pool too.
    """
    rng = np.random.default_rng(seed)
    edge = np.array(EDGE_VALUES)
    pool = np.concatenate([edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
                           rng.uniform(-400.0, 400.0, 64) * GHZ])
    bins = np.concatenate([EDGE_BINS, rng.integers(-1500, 1500, 64)]).astype(np.int16)
    pick = lambda values, n=rows: np.resize(rng.permutation(values), n)  # noqa: E731
    herald_bin = pick(bins)
    first = int(herald_bin.min())
    size = int(herald_bin.max()) - first + 1
    return replace(
        result,
        idler_frequency=pick(pool),
        signal_frequency=pick(pool),
        herald_bin=herald_bin,
        passed=rng.random(rows) < 0.5,
        herald_click=rng.random(rows) < 0.5,
        signal_click=rng.random(rows) < 0.5,
        first_bin=first,
        bin_frequency=pick(pool, size),
        bin_shift_hz=pick(pool, size),
        bin_routed=rng.random(size) < 0.5,
    )


EVENT_FIELDS = [("herald_bin", np.int16), ("idler_detuning_ghz", np.float64),
                ("signal_detuning_ghz", np.float64), ("passed", np.bool_),
                ("herald_click", np.bool_), ("signal_click", np.bool_)]
TABLE_FIELDS = [("herald_bin", np.int64), ("herald_detuning_ghz", np.float64),
                ("shift_ghz", np.float64), ("routed", np.bool_)]


def saved(rows: list, fields: list) -> bytes:
    """The bytes np.save writes of an array built one row at a time from Python values."""
    whole = io.BytesIO()
    np.save(whole, np.array(rows, dtype=fields), allow_pickle=False)
    return whole.getvalue()


def oracle_events(result, ref: float) -> bytes:
    """events.npy as np.save writes an array built one pulse at a time from Python values."""
    return saved([(int(result.herald_bin[i]),
                   (float(result.idler_frequency[i]) - ref) / GHZ,
                   (float(result.signal_frequency[i]) - ref) / GHZ,
                   bool(result.passed[i]), bool(result.herald_click[i]),
                   bool(result.signal_click[i]))
                  for i in range(result.pulses)], EVENT_FIELDS)


def oracle_table(result, ref: float) -> bytes:
    """herald_bins.npy as np.save writes an array built one bin at a time from Python values."""
    return saved([(result.first_bin + i,
                   (float(result.bin_frequency[i]) - ref) / GHZ,
                   float(result.bin_shift_hz[i]) / 1e9,
                   bool(result.bin_routed[i]))
                  for i in range(result.bin_frequency.size)], TABLE_FIELDS)


def assert_same_bits(array: np.ndarray, expected: dict) -> None:
    """Each named field of a structured array holds its column bit for bit, NaN and -0.0 too."""
    for name, column in expected.items():
        assert array[name].tobytes() == np.asarray(column).tobytes(), name


def assert_events_round_trip(path, result, ref: float) -> np.ndarray:
    """events.npy loads without pickle as EVENT_FIELDS rows, one a pulse, each bit for bit."""
    events = np.load(path, allow_pickle=False)
    assert [(name, events.dtype[name]) for name in events.dtype.names] == EVENT_FIELDS
    assert events.dtype.itemsize == 21 and events.shape == (result.pulses,)
    assert_same_bits(events, {
        "herald_bin": result.herald_bin,
        "idler_detuning_ghz": (result.idler_frequency - ref) / GHZ,
        "signal_detuning_ghz": (result.signal_frequency - ref) / GHZ,
        "passed": result.passed,
        "herald_click": result.herald_click,
        "signal_click": result.signal_click,
    })
    # the blocks add up to the file np.save writes of the whole array
    assert path.read_bytes() == oracle_events(result, ref)
    return events


def assert_table_round_trip(path, result, ref: float) -> np.ndarray:
    """herald_bins.npy loads without pickle as TABLE_FIELDS rows, one a bin, each bit for bit."""
    table = np.load(path, allow_pickle=False)
    assert [(name, table.dtype[name]) for name in table.dtype.names] == TABLE_FIELDS
    low, high = int(result.herald_bin.min()), int(result.herald_bin.max())  # no int16 wrap
    assert table.shape == (high - low + 1,)
    assert_same_bits(table, {
        "herald_bin": np.arange(low, high + 1),
        "herald_detuning_ghz": (result.bin_frequency - ref) / GHZ,
        "shift_ghz": result.bin_shift_hz / 1e9,
        "routed": result.bin_routed,
    })
    assert path.read_bytes() == oracle_table(result, ref)
    return table


# The events file was a CSV before it became events.npy; these tests keep their names.
@pytest.mark.parametrize("block", [1 << 16, 4096, 7])
def test_events_csv_matches_per_event_oracle(small_stream, tmp_path, monkeypatch, block):
    monkeypatch.setattr(scenarios, "_STREAM_BLOCK", block)
    result, ref = small_stream
    path = tmp_path / "events.npy"
    _write_events(result, ref, path)
    assert_events_round_trip(path, result, ref)
    _write_herald_bins(result, ref, tmp_path / "herald_bins.npy")
    assert_table_round_trip(tmp_path / "herald_bins.npy", result, ref)


@pytest.mark.parametrize("rows, block", [(1, 4), (3, 4), (4, 4), (5, 4), (9, 4),
                                         ((1 << 14) - 1, 1 << 14), ((1 << 14) + 1, 1 << 14),
                                         ((1 << 16) - 1, 1 << 16), ((1 << 16) + 1, 1 << 16)])
def test_events_csv_matches_oracle_on_edge_values(small_stream, tmp_path, monkeypatch, rows,
                                                  block):
    monkeypatch.setattr(scenarios, "_STREAM_BLOCK", block)
    result = seeded_stream(small_stream[0], rows, seed=rows)
    path, table_path = tmp_path / "events.npy", tmp_path / "herald_bins.npy"
    for ref in (0.0, small_stream[1]):
        _write_events(result, ref, path)
        events = assert_events_round_trip(path, result, ref)
        _write_herald_bins(result, ref, table_path)
        table = assert_table_round_trip(table_path, result, ref)
    if rows >= 3 * len(EDGE_VALUES) + 64:  # every pool value is in every column
        # both int16 extremes are drawn, so the table spans all of int16
        assert set(EDGE_BINS) <= set(events["herald_bin"].tolist())
        assert table.size == 1 << 16
        shift = table["shift_ghz"]
        assert np.isnan(shift).any() and np.isinf(shift).any()
        assert (shift == 1e300 / 1e9).any() and (shift == -1e300 / 1e9).any()
        assert np.signbit(shift[shift == 0.0]).any()
        # the lookup indexes the table from both extremes without wrapping
        looked_up = table[events["herald_bin"] - table["herald_bin"][0]]
        assert np.array_equal(looked_up["herald_bin"], events["herald_bin"])


def test_events_csv_memory_scales_with_the_block(small_stream, tmp_path):
    # one block, and four blocks and five rows, reach the same peak: the block of rows
    # and one column's temporary, not a copy of every column
    peaks = []
    for rows in (scenarios._STREAM_BLOCK, 4 * scenarios._STREAM_BLOCK + 5):
        result = seeded_stream(small_stream[0], rows, seed=3)
        tracemalloc.start()
        try:
            _write_events(result, small_stream[1], tmp_path / "events.npy")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0], peaks
    assert max(peaks) < 2 * scenarios._STREAM_BLOCK * scenarios.EVENTS_DTYPE.itemsize, peaks


def edge_probes(edges: np.ndarray) -> np.ndarray:
    """Every edge and one ulp either side of it, bin centers, and values outside the edges."""
    centers = (edges[:-1] + edges[1:]) / 2
    span = edges[-1] - edges[0]
    outside = [edges[0] - span, edges[-1] + span, -np.inf, np.inf, np.nan]
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                           centers, outside])


@pytest.mark.parametrize("bins", [1, 64])
@pytest.mark.parametrize("x_half, y_half", [(3.7e12, 1.1e11), (1.0, 1.0), (6.3e11, 2.9e-3)])
def test_joint_histogram_matches_histogram2d_on_edges(bins, x_half, y_half):
    x_edges = np.linspace(-x_half, x_half, bins + 1)
    y_edges = np.linspace(-y_half, y_half, bins + 1)
    # every pair of probes: both coordinates on, beside and outside the edges
    x, y = (a.ravel() for a in np.meshgrid(edge_probes(x_edges), edge_probes(y_edges)))
    joint = _JointCounts(x_edges, y_edges)
    half = x.size // 2  # two blocks, counted one after the other
    joint.add(x[:half], y[:half])
    joint.add(x[half:], y[half:])
    counts = joint.counts()
    oracle = np.histogram2d(x, y, bins=(x_edges, y_edges))[0]
    assert counts.dtype == oracle.dtype and np.array_equal(counts, oracle)
    assert counts.sum() < x.size  # the probes outside the edges are dropped


def test_joint_histogram_of_an_empty_selection_is_zero():
    edges = np.linspace(-2.0, 2.0, 65)
    none = np.zeros(5, bool)
    values = np.linspace(-1.0, 1.0, 5)
    joint = _JointCounts(edges, edges)
    joint.add(values[none], values[none])
    counts = joint.counts()
    assert np.array_equal(counts, np.histogram2d(values[none], values[none], bins=(edges, edges))[0])
    assert counts.shape == (64, 64) and not counts.any()


def test_joint_histogram_at_the_bin_ceiling_matches_histogram2d():
    # run.histogram_bins' ceiling: a 16.7M-entry count array. Every probe (on, beside and
    # outside the edges, infinite and NaN) is paired twice with a random probe of the other
    # axis; the oracle is kept as its nonzero cells, so at most two full arrays are alive
    x_edges = np.linspace(-3.7e12, 3.7e12, HISTOGRAM_BINS_MAX + 1)
    y_edges = np.linspace(-1.1e11, 1.1e11, HISTOGRAM_BINS_MAX + 1)
    rng = np.random.default_rng(4096)
    x = np.tile(edge_probes(x_edges), 2)
    y = np.concatenate([rng.permutation(edge_probes(y_edges)) for _ in range(2)])
    oracle = np.histogram2d(x, y, bins=(x_edges, y_edges))[0].ravel()
    cells = np.flatnonzero(oracle)
    oracle_counts, oracle_total = oracle[cells], oracle.sum()
    del oracle
    joint = _JointCounts(x_edges, y_edges)
    for start in range(0, x.size, 5000):  # blocks of pairs, as the stream adds them
        joint.add(x[start:start + 5000], y[start:start + 5000])
    counts = joint.counts()
    assert counts.dtype == np.float64
    assert counts.shape == (HISTOGRAM_BINS_MAX, HISTOGRAM_BINS_MAX)
    assert np.array_equal(np.flatnonzero(counts), cells)
    assert np.array_equal(counts.ravel()[cells], oracle_counts)
    assert counts.sum() == oracle_total < x.size  # the probes outside the edges are dropped


@pytest.mark.parametrize("bins", [1, 64])
def test_stream_histograms_match_histogram2d(tmp_path, bins):
    cfg = stream_cfg(tmp_path, pulses=20_000, **{"run.histogram_bins": bins})
    result = simulate_feedforward_stream(cfg)
    center = cfg.signal_filter().center
    herald = result.herald_frequency - cfg.anchor()
    signal = result.signal_frequency - center
    shifted = result.signal_frequency + defaults.TWO_PI * result.applied_shift_hz - center
    unshifted = np.histogram2d(herald, signal, bins=result.unshifted_edges)[0]
    passed = result.passed
    assert passed.any() and not passed.all()
    shifted_oracle = np.histogram2d(herald[passed], shifted[passed], bins=result.shifted_edges)[0]
    assert np.array_equal(result.unshifted_hist, unshifted)
    assert np.array_equal(result.shifted_hist, shifted_oracle)
    assert result.unshifted_hist.sum() == result.pulses


@pytest.mark.parametrize("bins", [1, 64])
def test_stream_hist_text_round_trip(tmp_path, bins):
    cfg = stream_cfg(tmp_path, pulses=20_000, **{"run.histogram_bins": bins})
    run_scenario(cfg)
    result = simulate_feedforward_stream(cfg)
    out = tmp_path / "feedforward-stream"
    for name, label, hist, edges in [
        ("joint_hist_unshifted.txt", "joint spectrum, no feed-forward",
         result.unshifted_hist, result.unshifted_edges),
        ("joint_hist_shifted.txt", "joint spectrum after feed-forward, filter passband",
         result.shifted_hist, result.shifted_edges),
    ]:
        assert np.array_equal(np.loadtxt(out / name, ndmin=2), hist), name
        head = (out / name).read_text().splitlines()[:4]
        assert head[:2] == [f"# {label}",
                            "# rows: herald detuning bins, columns: signal detuning bins"]
        for line, tag, e in zip(head[2:], ("herald", "signal"), edges):
            lo, hi, n = re.fullmatch(rf"# {tag}_edges_ghz: (\S+) \.\. (\S+) \((\d+) bins\)",
                                     line).groups()
            # six decimals of the outer edges, in GHz
            assert abs(float(lo) - e[0] / GHZ) <= 5e-7 and abs(float(hi) - e[-1] / GHZ) <= 5e-7
            assert int(n) == bins


def test_hist_text_writer_memory_is_one_row(tmp_path):
    # the counts are converted to ints one row at a time: no int copy of the whole
    # histogram (8 MB at 1024 x 1024)
    hist = np.arange(1024.0 * 1024.0).reshape(1024, 1024)
    edges = (np.linspace(-1e12, 1e12, 1025),) * 2
    tracemalloc.start()
    try:
        scenarios._write_histogram(hist, edges, tmp_path / "hist.txt", "counts")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hist.size * np.dtype(int).itemsize, peak


# the herald frequency and shift are the sampler's lookups in its bin table
STREAM_COLUMNS = ("signal_frequency", "idler_frequency", "herald_frequency",
                  "applied_shift_hz", "passed", "herald_click", "signal_click")


def assert_same_number(got: float, want: float, name: str) -> None:
    assert got == want or (np.isnan(got) and np.isnan(want)), (name, got, want)


def assert_matches_whole_column_stream(result, oracle) -> None:
    """Every column, table lookup, histogram and edge bit for bit; correlations within 1e-12.

    The sampler's int16 herald bins hold the oracle's int64 bins, and its
    table spans them from the lowest to the highest.
    """
    assert result.herald_bin.dtype == np.int16 and oracle.herald_bin.dtype == np.int64
    assert np.array_equal(result.herald_bin, oracle.herald_bin)
    assert result.first_bin == oracle.herald_bin.min()
    assert result.bin_frequency.size == oracle.herald_bin.max() - oracle.herald_bin.min() + 1
    rows = oracle.herald_bin - result.first_bin
    assert np.array_equal(result.bin_routed[rows], oracle.routed)
    for name in STREAM_COLUMNS + ("unshifted_hist", "shifted_hist"):
        got, want = getattr(result, name), getattr(oracle, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    for got, want in zip(result.unshifted_edges + result.shifted_edges,
                         oracle.unshifted_edges + oracle.shifted_edges):
        assert got.tobytes() == want.tobytes()
    for name in ("in_range_fraction", "pass_fraction_in_range"):
        assert_same_number(getattr(result, name), getattr(oracle, name), name)
    for name in ("r_unshifted", "r_shifted"):  # summed block by block, not np.corrcoef
        got, want = getattr(result, name), getattr(oracle, name)
        if np.isnan(want):
            assert np.isnan(got), name
        else:
            assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)


SAMPLER_BLOCK = 256


@pytest.mark.parametrize("pulses", [1, 2, SAMPLER_BLOCK - 1, SAMPLER_BLOCK, SAMPLER_BLOCK + 1,
                                    3 * SAMPLER_BLOCK + 5])
@pytest.mark.parametrize("overrides", [
    {"feedforward.stream_spectrometer": "measured"},
    {"feedforward.stream_spectrometer": "nominal"},
    {"feedforward.stream_spectrometer": "none"},
    {"shifter.max_shift_ghz": 0.0},  # one routed bin: a NaN r_shifted
    {"shifter.max_shift_ghz": 100.0},  # passed heralds beyond the shifted histogram's edges
    {"run.histogram_bins": 1},
], ids=["measured", "nominal", "none", "no_drive_range", "wide_drive_range", "one_bin"])
def test_stream_sampler_matches_whole_column_oracle(tmp_path, monkeypatch, pulses, overrides):
    # the block pass makes the same draws and the same per-pulse arithmetic as one
    # expression per whole column, so no column or histogram depends on the block size
    monkeypatch.setattr(scenarios, "_STREAM_BLOCK", SAMPLER_BLOCK)
    cfg = stream_cfg(tmp_path, pulses=pulses, **overrides)
    result = simulate_feedforward_stream(cfg)
    assert_matches_whole_column_stream(result, whole_column_stream(cfg))
    if overrides.get("shifter.max_shift_ghz") == 0.0:
        assert np.isnan(result.r_shifted)


def test_stream_sampler_matches_whole_column_oracle_at_its_own_block(tmp_path):
    cfg = stream_cfg(tmp_path, pulses=2 * scenarios._STREAM_BLOCK + 7)
    assert_matches_whole_column_stream(simulate_feedforward_stream(cfg), whole_column_stream(cfg))


@pytest.mark.parametrize("overrides", [
    {},
    {"feedforward.stream_spectrometer": "measured"},
    {"shifter.max_shift_ghz": 40.0},  # bins drawn outside the drive range: unrouted rows
], ids=["nominal", "measured", "narrow_drive_range"])
def test_stream_events_and_bin_table_rebuild_the_whole_columns(tmp_path, overrides):
    # events.npy keeps what was drawn; its bin's row of herald_bins.npy gives each
    # pulse the herald detuning and shift the whole-column oracle computes per pulse
    cfg = stream_cfg(tmp_path, pulses=20_000, **overrides)
    run_scenario(cfg)
    out = tmp_path / "feedforward-stream"
    events = np.load(out / "events.npy", allow_pickle=False)
    table = np.load(out / "herald_bins.npy", allow_pickle=False)
    oracle = whole_column_stream(cfg)
    ref = cfg.anchor()
    assert events.dtype.itemsize == 21 and events["herald_bin"].dtype == np.int16
    assert np.array_equal(events["herald_bin"], oracle.herald_bin)
    assert np.array_equal(table["herald_bin"],
                          np.arange(oracle.herald_bin.min(), oracle.herald_bin.max() + 1))
    per_pulse = table[events["herald_bin"] - table["herald_bin"][0]]
    assert_same_bits(per_pulse, {
        "herald_bin": oracle.herald_bin,
        "herald_detuning_ghz": (oracle.herald_frequency - ref) / GHZ,
        "shift_ghz": oracle.applied_shift_hz / 1e9,
        "routed": oracle.routed,
    })
    assert_same_bits(events, {
        "idler_detuning_ghz": (oracle.idler_frequency - ref) / GHZ,
        "signal_detuning_ghz": (oracle.signal_frequency - cfg.signal_filter().center) / GHZ,
        "passed": oracle.passed,
        "herald_click": oracle.herald_click,
        "signal_click": oracle.signal_click,
    })
    assert not table["routed"].all()  # the drawn bins reach past the routed window


def test_stream_bins_near_the_int16_reach_match_the_oracle(tmp_path):
    # with 0.2 ps TDC bins the stream's bins may reach 2.7e4, near int16's 32767
    cfg = stream_cfg(tmp_path, pulses=SAMPLER_BLOCK + 3, **{"spectrometer.tdc_bin_ps": 0.2})
    result = simulate_feedforward_stream(cfg)
    assert np.abs(result.herald_bin.astype(int)).max() > 20_000
    assert_matches_whole_column_stream(result, whole_column_stream(cfg))


@pytest.mark.parametrize("offset", [1, -1], ids=["above", "below"])
def test_stream_bin_beyond_int16_raises(tmp_path, monkeypatch, offset):
    # a jitter tail past its reach would draw such a bin: it is not cast into int16
    draw = spectrometer.sample_herald_event
    limits = np.iinfo(np.int16)

    def far_tail(spect, omega, rng):
        bins, frequency = draw(spect, omega, rng)
        bins[-1] = limits.max + 1 if offset > 0 else limits.min - 1
        return bins, frequency

    monkeypatch.setattr(spectrometer, "sample_herald_event", far_tail)
    with pytest.raises(OverflowError, match="int16"):
        simulate_feedforward_stream(stream_cfg(tmp_path, pulses=2000))


def test_stream_sampler_memory_is_flat_in_pulses(tmp_path):
    # the peak is the columns it returns (21 B a pulse: the idler and signal frequencies
    # as one float64 array, the int16 bins, the three flags as one bool array) and a few
    # block-sized temporaries; no column of the histograms or the click draws
    cfg = stream_cfg(tmp_path, pulses=1000)
    simulate_feedforward_stream(cfg)  # first-call allocations
    per_pulse = []
    for pulses in (300_000, 1_000_000):
        cfg.params["run.stream_pulses"] = pulses
        tracemalloc.start()
        try:
            simulate_feedforward_stream(cfg)
            per_pulse.append(tracemalloc.get_traced_memory()[1] / pulses)
        finally:
            tracemalloc.stop()
    assert per_pulse[1] < 25, per_pulse
    # the block temporaries are a fixed few MB, no more than 15 % of 3e5 pulses' peak
    assert abs(per_pulse[0] - per_pulse[1]) < 0.15 * per_pulse[1], per_pulse


def test_every_scenario_runs_on_numpy_alone(tmp_path):
    """One interpreter runs all nine scenarios without loading scipy or a thread pool."""
    overlay = tmp_path / "small.cfg"
    write_overlay(overlay, {"run.stream_pulses": 5000, "statistics.monte_carlo_pulses": 20_000})
    out = tmp_path / "out"
    code = ("import sys\nfrom fmux import cli\nfrom fmux.scenarios import SCENARIOS\n"
            "for name in SCENARIOS:\n"
            "    cli.main([name, '--grid-scale', '0.25', '--config', sys.argv[1],\n"
            "              '--outdir', f'{sys.argv[2]}/{name}'])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy' or m == 'concurrent.futures'))\n")
    env = dict(os.environ)
    src = str(Path(fmux.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(overlay), str(out)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    assert len(SCENARIOS) == 9
    assert all((out / name / "manifest.json").is_file() for name in SCENARIOS)
    assert done.stdout.splitlines()[-1] == "[]"


def test_measured_jitter_is_a_time_width(tmp_path):
    """At 4 ps/GHz the measured 720 ps jitter is 180 GHz wide, not 45 GHz."""
    path = tmp_path / "dispersion.cfg"
    path.write_text("[spectrometer]\ndispersion_ps_per_ghz = 4.0\n")
    wide_spect = load_config("purity-jitter", config_path=path).build_spectrometer()
    assert wide_spect.jitter_std == load_config("purity-jitter").build_spectrometer().jitter_std
    assert wide_spect.frequency_std() == pytest.approx(4.0 * spectrometer.MEASURED_JITTER_FREQ_STD)
    # the default grid does not converge for a jitter kernel this wide; doubling does
    _, base = run("purity-jitter", tmp_path / "base", grid_scale=2.0)
    _, wide = run("purity-jitter", tmp_path / "wide", grid_scale=2.0, config_path=path)
    csv = lambda root: (root / "purity-jitter" / "purity.csv").read_bytes()  # noqa: E731
    assert csv(tmp_path / "wide") != csv(tmp_path / "base")
    assert wide["checks"]["purity"]["value"] < base["checks"]["purity"]["value"] - 0.1


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


def test_stats_sweep_samples_a_trillion_pulses(tmp_path):
    # the Monte Carlo's cost does not grow with the pulse count
    path = tmp_path / "trillion.cfg"
    write_overlay(path, {"statistics.monte_carlo_pulses": 10**12})
    assert cli.main(["stats-sweep", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "counting_mc.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["pulses"] for row in rows] == ["1000000000000"] * 2 + [""] * 2


def test_cli_config_errors_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[statistics]\nmodes = 3\n")
    assert cli.main(["stats-sweep", "--config", str(path)]) == 2
    assert cli.main(["stats-sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err
    assert "statistics.modes" in err


@pytest.mark.parametrize("where", ["afile", "afile/sub"])
def test_cli_outdir_on_a_file_exits_two(tmp_path, capsys, where):
    (tmp_path / "afile").write_text("kept\n")
    assert cli.main(["lut-dump", "--outdir", str(tmp_path / where)]) == 2
    assert "[outdir]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"


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
    """The counting model holds at any mu; only hom-dip's leading-order visibility
    rejects mu * n_modes >= 0.1, and only on the key it reads. A zero rate is outside
    the schema in both."""
    section, key = dotted.split(".")
    path = tmp_path / "mu.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    code = cli.main([scenario, "--config", str(path), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if value == "0" or (scenario, dotted) == ("hom-dip", "source.mean_pairs_per_pulse"):
        assert code == 2
        assert f"[{dotted}]" in err
        assert not outputs_in(tmp_path / "out")
    else:
        assert code == 0, err


def outputs_in(outdir) -> list:
    """Every file a run left under outdir."""
    return [p for p in Path(outdir).rglob("*") if p.is_file()]


def test_pair_rates_change_no_output_of_the_scenarios_that_do_not_read_them(
        small_digests, tmp_path):
    # mu * n_modes = 0.142 on both keys: the seven other scenarios write what they
    # write at the default rates
    overlay = tmp_path / "mu.cfg"
    write_overlay(overlay, {**SMALL, "source.mean_pairs_per_pulse": 0.05,
                            "statistics.mu_max": 0.05})
    for name in sorted(set(SCENARIOS) - {"stats-sweep", "hom-dip"}):
        run_scenario(load_config(name, config_path=overlay, outdir=tmp_path / name))
        for entry in manifest_of(tmp_path / name)["outputs"]:
            assert entry["sha256"] == small_digests[f"{name}/{entry['name']}"], entry["name"]


@pytest.mark.parametrize("dotted, value, runs, rejects", [
    # a delay-line chirp too fine for the signal grid: only the heralded engine samples it
    ("delay.length_m", "1e10", ("loss-budget", "stats-sweep"), ("purity-gvd", "hom-dip")),
    # a lookup table of about 1.5e5 TDC bins: only the stream and lut-dump tabulate it
    ("spectrometer.dispersion_ps_per_ghz", "1e5", ("purity-jitter",),
     ("lut-dump", "feedforward-stream")),
    # 0.1 ps TDC bins: the table's 3.8e4 rows pass LUT_BINS_MAX, but the stream's bins
    # would reach 5.3e4, past the int16 of an events.npy row
    ("spectrometer.tdc_bin_ps", "0.1", ("lut-dump",), ("feedforward-stream",)),
])
def test_each_scenario_rejects_only_what_it_builds(tmp_path, capsys, dotted, value, runs,
                                                   rejects):
    path = tmp_path / "derived.cfg"
    write_overlay(path, {**SMALL, dotted: value})
    for scenario in runs + rejects:
        out = tmp_path / scenario
        code = cli.main([scenario, "--config", str(path), "--outdir", str(out)])
        err = capsys.readouterr().err
        if scenario in runs:
            assert code in (0, 1) and not err, (scenario, code, err)
        else:
            assert code == 2 and f"[{dotted}]" in err, (scenario, code, err)
            assert not outputs_in(out), scenario


def test_mode_count_past_its_ceiling_exits_two_without_a_traceback(tmp_path, capsys):
    # at mu = mu_max = 1e-300 the product stays tiny, but a ladder of 1e298 modes once
    # ended in an OverflowError
    path = tmp_path / "modes.cfg"
    write_overlay(path, {"statistics.n_modes": "1e298", "source.mean_pairs_per_pulse": "1e-300",
                         "statistics.mu_max": "1e-300"})
    code = cli.main(["stats-sweep", "--config", str(path), "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and "[statistics.n_modes]" in err and "Traceback" not in err
    assert not outputs_in(tmp_path / "out")


def test_gamma_rejects_a_wavelength_that_underflows(tmp_path):
    # 1e-320 nm is positive, but 1e-320 * 1e-9 m is 0: gamma() names the key on its own,
    # not only because the purity scenarios build the spectrometer first
    path = tmp_path / "wavelength.cfg"
    write_overlay(path, {"source.signal_wavelength_nm": "1e-320"})
    cfg = load_config("purity-gvd", config_path=path)
    assert cfg.get("delay.length_m") == 300.0
    with pytest.raises(ConfigError, match=r"\[source\.signal_wavelength_nm\]") as err:
        cfg.gamma()
    assert err.value.field == "source.signal_wavelength_nm"


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


@pytest.mark.parametrize("scenario, dotted, value", [
    ("loss-budget", "losses.snspd_db", "nan"),
    ("purity-gvd", "delay.length_m", "inf"),
    ("purity-gvd", "delay.fiber_dispersion_ps_nm_km", "inf"),
    ("feedforward-stream", "spectrometer.dispersion_ps_per_ghz", "inf"),
    ("feedforward-stream", "source.pump_sigma_ghz", "inf"),
    ("lut-dump", "shifter.max_shift_ghz", "-5"),
    ("feedforward-stream", "shifter.max_shift_ghz", "-5"),
    ("loss-budget", "statistics.eta_signal", "0"),
    ("stats-sweep", "source.mean_pairs_per_pulse", "0"),
    ("purity-combined", "shifter.phase_jitter_ps", "400"),
    ("stats-sweep", "statistics.n_modes", "0.5"),
    ("stats-sweep", "statistics.eta_herald", "1.5"),
    ("hom-dip", "run.hom_delay_span_ps", "0"),  # once every delay at 0 ps
    ("hom-dip", "run.hom_delay_span_ps", "-1"),  # once a reversed delay axis
    ("loss-budget", "losses.tolerance", "-1"),  # once every arm DISCREPANT
    ("loss-budget", "losses.tolerance", "-0.01"),
    # each stream histogram holds histogram_bins^2 counts: past the ceiling, exit 2 at
    # validate, before anything is allocated
    ("feedforward-stream", "run.histogram_bins", str(HISTOGRAM_BINS_MAX + 1)),
    # one past the largest pulse count numpy's int64 binomial takes
    ("stats-sweep", "statistics.monte_carlo_pulses", str(MC_PULSES_MAX + 1)),
    # a stream whose events.npy row array numpy cannot size exits 2 at validate, before
    # the first draw would raise "array is too big"
    ("feedforward-stream", "run.stream_pulses", str(2**62)),
    # a measured jitter 1e200 GHz wide or more, whose error nodes over the pump width
    # once overflowed a square in the purity engine
    *((scenario, "spectrometer.dispersion_ps_per_ghz", value)
      for scenario in ("purity-jitter", "purity-combined", "hom-dip")
      for value in ("1e-280", "1e-200")),
])
def test_cli_bad_value_exits_two_naming_the_key(tmp_path, capsys, scenario, dotted, value):
    path = tmp_path / "bad.cfg"
    write_overlay(path, {dotted: value})
    code = cli.main([scenario, "--config", str(path), "--grid-scale", "0.5",
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert f"[{dotted}]" in capsys.readouterr().err


def test_cli_nominal_jitter_beyond_squarable_reach_names_its_resolution(tmp_path, capsys):
    # the stream's own spectrometer without jitter keeps the lookup table small, so
    # the purity engine's bound is what rejects the 1e159 GHz wide nominal jitter
    path = tmp_path / "wide.cfg"
    write_overlay(path, {"spectrometer.jitter_model": "nominal",
                         "spectrometer.nominal_resolution_ghz": "1e160",
                         "feedforward.stream_spectrometer": "none"})
    code = cli.main(["purity-jitter", "--config", str(path), "--grid-scale", "0.25",
                     "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "[spectrometer.nominal_resolution_ghz]" in capsys.readouterr().err


def test_cli_removed_marginal_fwhm_key_exits_two(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text("[source]\nmarginal_fwhm_ghz = 20.0\n")
    code = cli.main(["stats-sweep", "--config", str(path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "source.marginal_fwhm_ghz" in capsys.readouterr().err


def test_cli_removed_filter_offset_key_exits_two(tmp_path, capsys):
    # the filter sits at degeneracy: an offset key would only relabel the frequency axis
    path = tmp_path / "old.cfg"
    path.write_text("[filter]\ncenter_offset_ghz = 5.0\n")
    code = cli.main(["lut-dump", "--config", str(path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    assert "[filter.center_offset_ghz] unknown configuration key" in capsys.readouterr().err


@pytest.mark.parametrize("name, text", [
    ("no_section.cfg", "eta_signal = 0.2\n"),
    ("duplicate_section.cfg", "[statistics]\neta_signal = 0.2\n[statistics]\neta_herald = 0.2\n"),
    ("duplicate_option.cfg", "[statistics]\neta_signal = 0.2\neta_signal = 0.3\n"),
    ("no_value.cfg", "[statistics]\neta_signal\n"),
    ("directory.cfg", None),
])
def test_cli_malformed_overlay_exits_two_naming_file_and_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    code = cli.main(["stats-sweep", "--config", str(path), "--outdir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert str(path) in err
    if text is not None:
        assert "line" in err


# (key, value validate() accepts, value just outside the key's domain), written out
# by hand so the schema's domains are checked against an independent statement
DOMAIN_BOUNDARIES = [
    ("source.pump_sigma_ghz", 1e-6, 0.0),
    ("source.mean_pairs_per_pulse", 1e-9, 0.0),
    ("source.mean_pairs_per_pulse", MU_MAX, MU_MAX * (1 + 1e-12)),
    ("source.signal_wavelength_nm", 1.0, 0.0),
    ("filter.full_width_ghz", 1e-6, 0.0),
    ("spectrometer.dispersion_ps_per_ghz", 1e-6, -1e-9),
    ("spectrometer.tdc_bin_ps", 1.0, 0.0),
    ("spectrometer.jitter_model", "none", "gaussian"),
    ("spectrometer.nominal_resolution_ghz", 1e-6, 0.0),
    ("shifter.rf_frequency_ghz", 1e-6, 0.0),
    ("shifter.max_shift_ghz", 0.0, -1e-9),
    ("shifter.phase_jitter_ps", 0.0, -1e-9),
    ("feedforward.herald_span_ghz", 1e-6, 0.0),
    ("feedforward.idler_sample_span_ghz", 1e-6, 0.0),
    ("feedforward.stream_spectrometer", "measured", "Measured"),
    ("delay.length_m", 0.0, -1e-9),
    ("statistics.n_modes", 1.0, 0.999),
    ("statistics.n_modes", N_MODES_MAX, N_MODES_MAX * (1 + 1e-12)),
    ("statistics.eta_signal", 1.0, 1.0000001),
    ("statistics.eta_signal", 1e-9, 0.0),
    ("statistics.eta_herald", 1.0, 1.0000001),
    ("statistics.eta_herald", 1e-9, 0.0),
    ("statistics.sweep_points", 1, 0),
    ("statistics.sweep_points", SWEEP_POINTS_MAX, SWEEP_POINTS_MAX + 1),  # nothing allocated
    ("statistics.mu_max", 1e-9, 0.0),
    ("statistics.mu_max", MU_MAX, MU_MAX * (1 + 1e-12)),
    ("statistics.monte_carlo_pulses", 1, 0),
    ("statistics.monte_carlo_pulses", MC_PULSES_MAX, MC_PULSES_MAX + 1),
    ("losses.snspd_db", 0.0, -1e-9),
    ("losses.tolerance", 0.0, -1e-9),
    ("run.seed", 0, -1),
    ("run.grid_scale", 16.0, 16.001),
    ("run.grid_scale", 1e-3, 0.0),
    ("run.histogram_bins", 1, 0),
    ("run.histogram_bins", HISTOGRAM_BINS_MAX, HISTOGRAM_BINS_MAX + 1),  # nothing allocated
    ("run.stream_pulses", 1, 0),
    ("run.stream_pulses", STREAM_PULSES_MAX, STREAM_PULSES_MAX + 1),  # nothing allocated
    ("run.hom_delay_span_ps", 1e-9, 0.0),
    ("run.hom_delay_points", 1, 0),
    ("run.hom_delay_points", HOM_DELAY_POINTS_MAX, HOM_DELAY_POINTS_MAX + 1),  # nothing allocated
]
UNBOUNDED_KEYS = {"delay.fiber_dispersion_ps_nm_km"}


def test_every_bounded_key_has_a_boundary_row():
    assert {row[0] for row in DOMAIN_BOUNDARIES} == set(_SCHEMA) - UNBOUNDED_KEYS


@pytest.mark.parametrize("dotted, inside, outside", DOMAIN_BOUNDARIES)
def test_validate_domain_boundary(dotted, inside, outside):
    cfg = load_config("loss-budget")
    cfg.params[dotted] = inside
    cfg.validate()
    cfg.params[dotted] = outside
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert err.value.field == dotted


def pearson(*blocks) -> float:
    """r of the (x, y) blocks fed in order to the stream's correlation accumulator."""
    correlation = scenarios._Correlation()
    for x, y in blocks:
        correlation.add(x, y)
    return correlation.pearson()


def test_pearson_of_a_constant_column_is_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(pearson((np.ones(5), np.arange(5.0))))
        assert np.isnan(pearson((np.arange(5.0), np.full(5, 2.0))))
        assert np.isnan(pearson((np.ones(1), np.ones(1))))
        assert np.isnan(pearson((np.ones(0), np.ones(0))))
        assert pearson((np.arange(5.0), -np.arange(5.0))) == pytest.approx(-1.0)
        # a constant column split over two blocks, one of them a single pair
        assert np.isnan(pearson((np.full(4, 3.0), np.arange(4.0)), (np.full(1, 3.0), np.ones(1))))


def test_stream_without_drive_range_has_nan_shifted_correlation(tmp_path):
    # only bin 0 needs no shift, so every passed event has the same herald bin
    cfg = stream_cfg(tmp_path, pulses=2000, **{"shifter.max_shift_ghz": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = simulate_feedforward_stream(cfg)
    assert result.passed.any()
    assert np.isnan(result.r_shifted)


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
    "filter.full_width_ghz": 40.0,
    "spectrometer.dispersion_ps_per_ghz": 8.0,
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


def write_overlay(path, overlay: dict) -> None:
    """An INI file setting each dotted key of overlay."""
    sections: dict = {}
    for dotted, value in overlay.items():
        section, key = dotted.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(v) + "\n" for s, v in sections.items()))


def output_digests(overlay: dict, root) -> dict:
    """SHA-256 of summary.txt and every data file of all scenarios under one overlay."""
    root.mkdir(parents=True)
    path = root / "overlay.cfg"
    write_overlay(path, overlay)
    digests = {}
    for name in SCENARIOS:
        run_scenario(load_config(name, config_path=path, outdir=root / name))
        for entry in manifest_of(root / name)["outputs"]:
            digests[f"{name}/{entry['name']}"] = entry["sha256"]
    return digests


@pytest.fixture(scope="module")
def small_digests(tmp_path_factory):
    return output_digests(SMALL, tmp_path_factory.mktemp("small") / "base")


def test_purity_outputs_move_with_the_wavelength_only_through_the_delay_line(small_digests,
                                                                            tmp_path):
    # the heralded state is built from detunings, so moving degeneracy from 1535 to 1550 nm
    # leaves purity-jitter's files as they were; purity-gvd's move, as the delay line's
    # gamma grows with the wavelength squared
    assert load_config("purity-jitter").get("source.signal_wavelength_nm") == 1535.0
    moved = output_digests({**SMALL, "source.signal_wavelength_nm": 1550.0}, tmp_path / "1550")
    for name in ("purity.csv", "mode_weights.csv", "summary.txt"):
        assert moved[f"purity-jitter/{name}"] == small_digests[f"purity-jitter/{name}"], name
        assert moved[f"purity-gvd/{name}"] != small_digests[f"purity-gvd/{name}"], name


@pytest.mark.parametrize("which", ["nominal", "measured"])
def test_stream_moves_with_the_wavelength_only_through_its_frame(tmp_path, which):
    # the stream draws detunings from degeneracy and routes them by TDC bin, so moving
    # degeneracy from 1535 to 1550 nm leaves every event, histogram and fraction as it was;
    # the absolute frequencies move with the anchor, up to its rounding
    runs, tables = [], []
    for nm in (1535.0, 1550.0):
        overrides = {"source.signal_wavelength_nm": nm, "feedforward.stream_spectrometer": which}
        cfg = stream_cfg(tmp_path / f"{nm:g}", **overrides)
        runs.append((cfg.anchor(), simulate_feedforward_stream(cfg)))
        lut_cfg = stream_cfg(tmp_path / f"{nm:g}", name="lut-dump", **overrides)
        tables.append(lut_cfg.lut(lut_cfg.build_spectrometer(which)))
    (anchor_a, a), (anchor_b, b) = runs
    assert anchor_a != anchor_b
    for column in ("herald_bin", "passed", "herald_click", "signal_click",
                   "unshifted_hist", "shifted_hist"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
    for edges in ("unshifted_edges", "shifted_edges"):
        for axis_a, axis_b in zip(getattr(a, edges), getattr(b, edges)):
            assert np.array_equal(axis_a, axis_b), edges
    assert a.in_range_fraction == b.in_range_fraction
    assert a.pass_fraction_in_range == b.pass_fraction_in_range
    for column in ("idler_frequency", "signal_frequency"):
        moved = (getattr(a, column) - anchor_a) - (getattr(b, column) - anchor_b)
        assert np.abs(moved).max() / GHZ <= 1e-9, column
    for r in ("r_unshifted", "r_shifted"):
        assert abs(getattr(a, r) - getattr(b, r)) <= 1e-9 * abs(getattr(a, r)), r
    lut_a, lut_b = tables
    assert lut_a.first_bin == lut_b.first_bin
    for column in ("in_range", "required_shift", "v0"):
        assert np.array_equal(getattr(lut_a, column), getattr(lut_b, column)), column


def test_every_key_has_a_perturbation():
    assert set(PERTURBED) == set(_SCHEMA)


@pytest.mark.parametrize("dotted", sorted(PERTURBED))
def test_every_key_changes_an_output(small_digests, tmp_path, dotted):
    changed = output_digests({**SMALL, dotted: PERTURBED[dotted]}, tmp_path / "perturbed")
    assert set(changed) == set(small_digests)
    assert any(changed[k] != small_digests[k] for k in changed), f"{dotted} changes no output"


# 5e-324, the smallest positive float, underflows to 0 when scaled down to SI units
FUZZ_VALUES = ("0", "-1", "nan", "inf", "1e300", "1e-300", "5e-324")
# values outside that grid which once ended in a traceback
FUZZ_EXTRA = {"shifter.max_shift_ghz": ("-5",), "shifter.phase_jitter_ps": ("400",)}
FUZZ_BASE = {"run.stream_pulses": 2000, "statistics.monte_carlo_pulses": 10_000}


@pytest.mark.parametrize("dotted", sorted(_SCHEMA))
def test_overlay_fuzz_exits_cleanly(tmp_path, capsys, dotted):
    """Each bad value of the key, in every scenario: exit 0 or 1, or exit 2 naming the key."""
    path = tmp_path / "fuzz.cfg"
    # --grid-scale would override the fuzzed run.grid_scale
    grid = [] if dotted == "run.grid_scale" else ["--grid-scale", "0.25"]
    for value in FUZZ_VALUES + FUZZ_EXTRA.get(dotted, ()):
        write_overlay(path, {**FUZZ_BASE, dotted: value})
        for scenario in SCENARIOS:
            code = cli.main([scenario, "--config", str(path), "--outdir", str(tmp_path / "out"),
                             *grid])
            err = capsys.readouterr().err
            assert code in (0, 1) or (code == 2 and dotted in err), (value, scenario, code, err)
