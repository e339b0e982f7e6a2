import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fmux
from fmux import cli, defaults, losses, scenarios, serrodyne, spectrometer
from fmux.scenarios import (
    GHZ,
    HISTOGRAM_BINS_MAX,
    MODE_WEIGHT_FLOOR,
    SCENARIOS,
    _SCHEMA,
    ConfigError,
    ScenarioConfig,
    _joint_histogram,
    _write_events,
    load_config,
    run_scenario,
    simulate_feedforward_stream,
)
from oracles import conditional_outcome_distribution


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
    solve = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        solves.append((np.asarray(a).dtype, np.shape(a)))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    _, summary = run("purity-jitter", tmp_path, grid_scale=0.5)
    assert summary["all_passed"]
    # one matrix on 257 signal points, solved once as its even and odd parity
    # blocks by the real symmetric solver
    assert solves == [(np.float64, (129, 129)), (np.float64, (128, 128))]


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
    jsa = np.load(tmp_path / "first" / "joint-spectrum" / "joint_spectrum.npy", allow_pickle=False)
    assert jsa.shape == (257, 257) and jsa.dtype.names == ("omega_s", "omega_i", "re", "im")


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
    for name in ("summary.txt", "events.npy", "joint_hist_unshifted.txt",
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
    lut = serrodyne.build_lut(spect, cfg.signal_filter().center, cfg.shifter(),
                              span=cfg.get("feedforward.herald_span_ghz") * GHZ)
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
    return simulate_feedforward_stream(cfg), cfg.anchor(), cfg.signal_filter().center


# column values (rad/s, or Hz for the shift): exact binary fractions, decimal near-ties,
# signed zeros, the smallest subnormal, +-1e300 and the non-finite values
EDGE_VALUES = [-0.0, 0.0, 1 / 128, -1 / 128, 5e-7, -5e-7, 999.9999995, -999.9999995, 5e-324,
               1e300, -1e300, np.inf, -np.inf, np.nan]
EDGE_BINS = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1]


def seeded_stream(result, rows: int, seed: int):
    """result with every event column replaced by rows of edge values and their neighbours.

    Each column cycles through its own shuffle of its pool, so a stream of
    at least the pool's size holds every edge value in every column.
    """
    rng = np.random.default_rng(seed)
    edge = np.array(EDGE_VALUES)
    pool = np.concatenate([edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf),
                           rng.uniform(-400.0, 400.0, 64) * GHZ])
    bins = np.concatenate([EDGE_BINS, rng.integers(-1500, 1500, 64)])
    pick = lambda values: np.resize(rng.permutation(values), rows)  # noqa: E731
    return replace(
        result,
        idler_frequency=pick(pool),
        herald_frequency=pick(pool),
        signal_frequency=pick(pool),
        applied_shift_hz=pick(pool),
        herald_bin=pick(bins),
        passed=rng.random(rows) < 0.5,
        herald_click=rng.random(rows) < 0.5,
        signal_click=rng.random(rows) < 0.5,
    )


EVENT_FIELDS = [("herald_bin", np.int64), ("idler_detuning_ghz", np.float64),
                ("herald_detuning_ghz", np.float64), ("signal_detuning_ghz", np.float64),
                ("shift_ghz", np.float64), ("passed", np.bool_), ("herald_click", np.bool_),
                ("signal_click", np.bool_)]


def oracle_events(result, ref: float, center: float) -> bytes:
    """events.npy as np.save writes an array built one pulse at a time from Python values."""
    rows = [(int(result.herald_bin[i]),
             (float(result.idler_frequency[i]) - ref) / GHZ,
             (float(result.herald_frequency[i]) - ref) / GHZ,
             (float(result.signal_frequency[i]) - center) / GHZ,
             float(result.applied_shift_hz[i]) / 1e9,
             bool(result.passed[i]), bool(result.herald_click[i]), bool(result.signal_click[i]))
            for i in range(result.pulses)]
    whole = io.BytesIO()
    np.save(whole, np.array(rows, dtype=EVENT_FIELDS), allow_pickle=False)
    return whole.getvalue()


def assert_events_round_trip(path, result, ref: float, center: float) -> np.ndarray:
    """events.npy loads without pickle as EVENT_FIELDS rows, one a pulse, each bit for bit."""
    events = np.load(path, allow_pickle=False)
    assert [(name, events.dtype[name]) for name in events.dtype.names] == EVENT_FIELDS
    assert events.shape == (result.pulses,)
    expected = {
        "herald_bin": result.herald_bin,
        "idler_detuning_ghz": (result.idler_frequency - ref) / GHZ,
        "herald_detuning_ghz": (result.herald_frequency - ref) / GHZ,
        "signal_detuning_ghz": (result.signal_frequency - center) / GHZ,
        "shift_ghz": result.applied_shift_hz / 1e9,
        "passed": result.passed,
        "herald_click": result.herald_click,
        "signal_click": result.signal_click,
    }
    for name, column in expected.items():  # bit for bit: NaN and -0.0 included
        assert events[name].tobytes() == column.tobytes(), name
    # the blocks add up to the file np.save writes of the whole array
    assert path.read_bytes() == oracle_events(result, ref, center)
    return events


# The events file was a CSV before it became events.npy; these tests keep their names.
@pytest.mark.parametrize("block", [1 << 16, 4096, 7])
def test_events_csv_matches_per_event_oracle(small_stream, tmp_path, monkeypatch, block):
    monkeypatch.setattr(scenarios, "_EVENT_BLOCK", block)
    result, ref, center = small_stream
    path = tmp_path / "events.npy"
    _write_events(result, ref, center, path)
    assert_events_round_trip(path, result, ref, center)


@pytest.mark.parametrize("rows, block", [(1, 4), (3, 4), (4, 4), (5, 4), (9, 4),
                                         ((1 << 14) - 1, 1 << 14), ((1 << 14) + 1, 1 << 14),
                                         ((1 << 16) - 1, 1 << 16), ((1 << 16) + 1, 1 << 16)])
def test_events_csv_matches_oracle_on_edge_values(small_stream, tmp_path, monkeypatch, rows,
                                                  block):
    monkeypatch.setattr(scenarios, "_EVENT_BLOCK", block)
    result = seeded_stream(small_stream[0], rows, seed=rows)
    path = tmp_path / "events.npy"
    for ref, center in ((0.0, 0.0), small_stream[1:]):
        _write_events(result, ref, center, path)
        events = assert_events_round_trip(path, result, ref, center)
    if rows >= 3 * len(EDGE_VALUES) + 64:  # every pool value is in every column
        shift = events["shift_ghz"]
        assert np.isnan(shift).any() and np.isinf(shift).any()
        assert (shift == 1e300 / 1e9).any() and (shift == -1e300 / 1e9).any()
        assert np.signbit(shift[shift == 0.0]).any()
        assert set(EDGE_BINS) <= set(events["herald_bin"].tolist())


def test_events_csv_memory_scales_with_the_block(small_stream, tmp_path):
    # one block, and four blocks and five rows, reach the same peak: the block of rows
    # and one column's temporary, not a copy of every column
    peaks = []
    for rows in (scenarios._EVENT_BLOCK, 4 * scenarios._EVENT_BLOCK + 5):
        result = seeded_stream(small_stream[0], rows, seed=3)
        tracemalloc.start()
        try:
            _write_events(result, *small_stream[1:], tmp_path / "events.npy")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0], peaks
    assert max(peaks) < 2 * scenarios._EVENT_BLOCK * scenarios.EVENTS_DTYPE.itemsize, peaks


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
    counts = _joint_histogram(x, y, x_edges, y_edges)
    oracle = np.histogram2d(x, y, bins=(x_edges, y_edges))[0]
    assert counts.dtype == oracle.dtype and np.array_equal(counts, oracle)
    assert counts.sum() < x.size  # the probes outside the edges are dropped


def test_joint_histogram_of_an_empty_selection_is_zero():
    edges = np.linspace(-2.0, 2.0, 65)
    none = np.zeros(5, bool)
    values = np.linspace(-1.0, 1.0, 5)
    counts = _joint_histogram(values[none], values[none], edges, edges)
    assert np.array_equal(counts, np.histogram2d(values[none], values[none], bins=(edges, edges))[0])
    assert counts.shape == (64, 64) and not counts.any()


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
    assert wide_spect.jitter == load_config("purity-jitter").build_spectrometer().jitter
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


@pytest.mark.parametrize("scenario, dotted, value", [
    ("loss-budget", "losses.snspd_db", "nan"),
    ("purity-gvd", "delay.length_m", "inf"),
    ("purity-gvd", "delay.fiber_dispersion_ps_nm_km", "inf"),
    ("feedforward-stream", "spectrometer.dispersion_ps_per_ghz", "inf"),
    ("feedforward-stream", "source.pump_sigma_ghz", "inf"),
    ("lut-dump", "filter.center_offset_ghz", "nan"),
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
    ("statistics.eta_signal", 1.0, 1.0000001),
    ("statistics.eta_signal", 1e-9, 0.0),
    ("statistics.eta_herald", 1.0, 1.0000001),
    ("statistics.eta_herald", 1e-9, 0.0),
    ("statistics.sweep_points", 1, 0),
    ("statistics.mu_max", 1e-9, 0.0),
    ("statistics.monte_carlo_pulses", 1, 0),
    ("losses.snspd_db", 0.0, -1e-9),
    ("losses.tolerance", 0.0, -1e-9),
    ("run.seed", 0, -1),
    ("run.grid_scale", 16.0, 16.001),
    ("run.grid_scale", 1e-3, 0.0),
    ("run.histogram_bins", 1, 0),
    ("run.histogram_bins", HISTOGRAM_BINS_MAX, HISTOGRAM_BINS_MAX + 1),  # nothing allocated
    ("run.stream_pulses", 1, 0),
    ("run.hom_delay_span_ps", 1e-9, 0.0),
    ("run.hom_delay_points", 1, 0),
]
UNBOUNDED_KEYS = {"filter.center_offset_ghz", "delay.fiber_dispersion_ps_nm_km"}


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


def test_pearson_of_a_constant_column_is_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(scenarios._pearson(np.ones(5), np.arange(5.0)))
        assert np.isnan(scenarios._pearson(np.arange(5.0), np.full(5, 2.0)))
        assert np.isnan(scenarios._pearson(np.ones(1), np.ones(1)))
        assert np.isnan(scenarios._pearson(np.ones(0), np.ones(0)))
        assert scenarios._pearson(np.arange(5.0), -np.arange(5.0)) == pytest.approx(-1.0)


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
    "filter.center_offset_ghz": 5.0,
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


def test_every_key_has_a_perturbation():
    assert set(PERTURBED) == set(_SCHEMA)


@pytest.mark.parametrize("dotted", sorted(PERTURBED))
def test_every_key_changes_an_output(small_digests, tmp_path, dotted):
    changed = output_digests({**SMALL, dotted: PERTURBED[dotted]}, tmp_path / "perturbed")
    assert set(changed) == set(small_digests)
    assert any(changed[k] != small_digests[k] for k in changed), f"{dotted} changes no output"


FUZZ_VALUES = ("0", "-1", "nan", "inf", "1e300", "1e-300")
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
