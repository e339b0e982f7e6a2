"""Named end-to-end scenarios: configuration, execution, reproducible output.

Each scenario composes the physics modules at the configured operating
point, writes plot-ready data files plus a plain-text summary with pass/fail
marks against embedded target bands, and records a manifest (config echo,
seed, versions, output digests, wall time) sufficient to reproduce every
output. Data files and summary.txt are byte-identical across reruns with the
same config and seed; the manifest differs only in its wall-time field.
"""

from __future__ import annotations

import configparser
import hashlib
import importlib.resources
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import defaults, heralded, losses, serrodyne, spectral, spectrometer, statistics

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "ConfigError",
    "StreamResult",
    "load_config",
    "run_scenario",
    "simulate_feedforward_stream",
]

# target bands the summaries grade themselves against
PURITY_BANDS = {
    "purity-jitter": (0.90, 0.94),
    "purity-gvd": (0.93, 0.97),
    "purity-combined": (0.82, 0.86),
}
ARM_EFFICIENCY_TARGETS = {"signal": 0.13, "herald": 0.12}
ARM_EFFICIENCY_TOLERANCE = 0.005
ENHANCEMENT_BAND = (2.2, 3.4)
HOM_BARE_TARGET = (0.86, 0.005)  # visibility with unit purity
HOM_COMBINED_TARGET = (0.72, 0.01)  # visibility at the quoted 0.84 purity
STREAM_ANTICORRELATION_MAX = -0.9
STREAM_INDEPENDENCE_MAX = 0.2

GHZ = defaults.TWO_PI * 1e9  # rad/s per GHz
# mode weights at or below this fraction of the largest are eigensolver round-off
# (about 1e-16 of it) and are written as 0.0, so mode_weights.csv does not depend
# on the solver's rounding
MODE_WEIGHT_FLOOR = 1e-12
JITTER_MODELS = ("measured", "nominal", "none")
# resource ceilings: the density matrix holds (513 * grid_scale)^2 float64 values,
# the lookup table one array row per TDC bin (lut.txt one text line each), each stream
# histogram histogram_bins^2 float64 counts (134 MB at the ceiling), and the
# delay-line chirp must be resolvable on a signal grid of at most CHIRP_POINTS_MAX points
GRID_SCALE_MAX = 16.0
LUT_BINS_MAX = 100_000
HISTOGRAM_BINS_MAX = 4096
CHIRP_POINTS_MAX = 16_384


class ConfigError(ValueError):
    """Configuration problem, carrying the offending section.key field."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"[{fld}] {message}")
        self.field = fld


# each key's type and the values it accepts, as (test, wording)
_ANY = (lambda v: True, "")
_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_FRACTION = (lambda v: 0 < v <= 1, "must be in (0, 1]")
_JITTER_MODEL = (lambda v: v in JITTER_MODELS, f"must be one of {', '.join(JITTER_MODELS)}")
_GRID_SCALE = (lambda v: 0 < v <= GRID_SCALE_MAX, f"must be in (0, {GRID_SCALE_MAX:g}]")
_HISTOGRAM_BINS = (lambda v: 1 <= v <= HISTOGRAM_BINS_MAX,
                   f"must be in [1, {HISTOGRAM_BINS_MAX}]")

_SCHEMA = {
    "source.pump_sigma_ghz": (float, _POSITIVE),
    "source.mean_pairs_per_pulse": (float, _POSITIVE),
    "source.signal_wavelength_nm": (float, _POSITIVE),
    "filter.center_offset_ghz": (float, _ANY),
    "filter.full_width_ghz": (float, _POSITIVE),
    "spectrometer.dispersion_ps_per_ghz": (float, _POSITIVE),
    "spectrometer.tdc_bin_ps": (float, _POSITIVE),
    "spectrometer.jitter_model": (str, _JITTER_MODEL),
    "spectrometer.nominal_resolution_ghz": (float, _POSITIVE),
    "shifter.rf_frequency_ghz": (float, _POSITIVE),
    "shifter.max_shift_ghz": (float, _NON_NEGATIVE),
    "shifter.phase_jitter_ps": (float, _NON_NEGATIVE),
    "feedforward.herald_span_ghz": (float, _POSITIVE),
    "feedforward.idler_sample_span_ghz": (float, _POSITIVE),
    "feedforward.stream_spectrometer": (str, _JITTER_MODEL),
    "delay.fiber_dispersion_ps_nm_km": (float, _ANY),
    "delay.length_m": (float, _NON_NEGATIVE),
    "statistics.n_modes": (float, _AT_LEAST_ONE),
    "statistics.eta_signal": (float, _FRACTION),
    "statistics.eta_herald": (float, _FRACTION),
    "statistics.sweep_points": (int, _AT_LEAST_ONE),
    "statistics.mu_max": (float, _POSITIVE),
    "statistics.monte_carlo_pulses": (int, _AT_LEAST_ONE),
    "losses.snspd_db": (float, _NON_NEGATIVE),
    "losses.tolerance": (float, _NON_NEGATIVE),
    "run.seed": (int, _NON_NEGATIVE),
    "run.grid_scale": (float, _GRID_SCALE),
    "run.histogram_bins": (int, _HISTOGRAM_BINS),
    "run.stream_pulses": (int, _AT_LEAST_ONE),
    "run.hom_delay_span_ps": (float, _POSITIVE),
    "run.hom_delay_points": (int, _AT_LEAST_ONE),
}


def _read_ini(path) -> configparser.ConfigParser:
    """The INI file at path; one that cannot be read or parsed is a ConfigError naming it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as err:  # the message names the file and line
        raise ConfigError(str(path), " ".join(str(err).split())) from err
    return parser


def _default_parser() -> configparser.ConfigParser:
    ref = importlib.resources.files("fmux").joinpath("data/default.cfg")
    with importlib.resources.as_file(ref) as path:
        return _read_ini(path)


@dataclass
class ScenarioConfig:
    """A scenario name plus the full resolved parameter set.

    The builders below are the one way to turn the configuration into
    models. validate() checks every key against its _SCHEMA domain, then
    runs every builder; a builder checks only what it derives from keys.
    """

    scenario: str
    params: dict
    outdir: str = "."

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                "scenario", f"unknown scenario {self.scenario!r}; pick one of {', '.join(SCENARIOS)}"
            )

    def get(self, dotted: str):
        return self.params[dotted]

    @property
    def seed(self) -> int:
        return self.params["run.seed"]

    @property
    def grid_scale(self) -> float:
        return self.params["run.grid_scale"]

    def _in_range(self, dotted: str, value: float) -> float:
        """value, a quantity derived from dotted; one that overflowed is a config error."""
        if not math.isfinite(value):
            raise ConfigError(dotted, f"{self.get(dotted)!r} is out of range")
        return value

    def _ghz(self, dotted: str) -> float:
        return self._in_range(dotted, self.get(dotted) * GHZ)

    def anchor(self) -> float:
        """Absolute frequency of degeneracy, rad/s: the herald reference and zero shift."""
        wavelength = self.get("source.signal_wavelength_nm") / 1e9
        return self._in_range("source.signal_wavelength_nm",
                              defaults.TWO_PI * defaults.C_LIGHT / wavelength)

    def signal_filter(self) -> spectral.TopHatWindow:
        center = self.anchor() + self._ghz("filter.center_offset_ghz")
        return spectral.TopHatWindow(center, self._ghz("filter.full_width_ghz"))

    def pump(self) -> spectral.PumpEnvelope:
        return spectral.PumpEnvelope(
            sigma=self._ghz("source.pump_sigma_ghz"),
            center=self.signal_filter().center + self.anchor(),
        )

    def build_spectrometer(self, which: str | None = None) -> spectrometer.SpectrometerModel:
        """Time-of-flight spectrometer with jitter model which (default spectrometer.jitter_model).

        measured carries the detector time width
        spectrometer.MEASURED_JITTER_TIME_STD, so its frequency width scales as
        1 / dispersion; nominal reads nominal_resolution_ghz as a Gaussian
        frequency FWHM; none has no jitter. The calibrated span is the sampled
        idler span.
        """
        which = self.get("spectrometer.jitter_model") if which is None else which
        dispersion = self.get("spectrometer.dispersion_ps_per_ghz") / 1e12 / GHZ
        self._in_range("spectrometer.dispersion_ps_per_ghz", 1.0 / dispersion)  # time -> frequency
        if which == "measured":
            sigma_t = spectrometer.MEASURED_JITTER_TIME_STD
        elif which == "nominal":
            fwhm = self._in_range("spectrometer.nominal_resolution_ghz", defaults.TWO_PI * (
                self.get("spectrometer.nominal_resolution_ghz") * 1e9))
            sigma_t = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0))) * dispersion
        elif which == "none":
            sigma_t = 0.0
        else:
            raise ValueError(f"unknown jitter model {which!r}")
        tdc_bin = self.get("spectrometer.tdc_bin_ps") / 1e12
        self._in_range("spectrometer.tdc_bin_ps", tdc_bin / dispersion)  # bin width, rad/s
        return spectrometer.SpectrometerModel(
            dispersion=dispersion,
            tdc_bin=tdc_bin,
            jitter=spectrometer.JitterDistribution.gaussian(sigma_t),
            reference_frequency=self.anchor(),
            calibrated_span=self._ghz("feedforward.idler_sample_span_ghz"),
        )

    def gamma(self) -> float:
        """Delay-line GVD coefficient, s^2; its chirp must be resolvable on a signal grid.

        The chirp's phase advances by at most |gamma| (filter + herald window)
        per rad/s of detuning; sampling it at two points per radian across the
        filter takes the points counted against CHIRP_POINTS_MAX.
        """
        d = self.get("delay.fiber_dispersion_ps_nm_km")
        length = self.get("delay.length_m")
        wavelength = self.get("source.signal_wavelength_nm") * 1e-9
        if length == 0.0:
            return 0.0
        try:
            gamma = heralded.gvd_parameter(d, length, wavelength)
        except OverflowError as err:
            raise ConfigError("source.signal_wavelength_nm",
                              f"{wavelength!r} m is out of range") from err
        width = self.signal_filter().full_width
        points = 2.0 * abs(gamma) * (width + self.herald_window().full_width) * width
        if not points <= CHIRP_POINTS_MAX:
            raise ConfigError("delay.length_m", (
                f"the delay-line chirp needs {points:.3g} signal grid points (limit "
                f"{CHIRP_POINTS_MAX}); shorten it or lower delay.fiber_dispersion_ps_nm_km"))
        return gamma

    def herald_window(self) -> spectral.TopHatWindow:
        return spectral.TopHatWindow(self.anchor(), self._ghz("feedforward.herald_span_ghz"))

    def shifter(self) -> serrodyne.ShifterModel:
        jitter = self.get("shifter.phase_jitter_ps") * 1e-12
        nu_rf = self._in_range("shifter.rf_frequency_ghz",
                               self.get("shifter.rf_frequency_ghz") * 1e9)
        vmax = self._in_range("shifter.max_shift_ghz",
                              self.get("shifter.max_shift_ghz") * 1e9 / (math.pi * nu_rf))
        return serrodyne.ShifterModel(v_pi=1.0, nu_rf=nu_rf, v0_max=vmax, sigma_jitter=jitter)

    def heralded_model(self, jitter: bool = True, gvd: bool = True) -> heralded.HeraldedStateModel:
        """Heralded state with the configured jitter model and delay-line GVD, each switchable off.

        The pump envelope must span at least one step of the signal grid, and
        the error nodes, out to JITTER_SPAN_SIGMAS jitter stds, must stay few
        enough pump widths from the filter that the engine can square
        (x - e) / pump sigma: below half the root of the largest float, room
        for the rounding of x - e. No square is taken here.
        """
        model = heralded.HeraldedStateModel(
            pump=self.pump(),
            filter=self.signal_filter(),
            gamma=self.gamma() if gvd else 0.0,
            spectrometer=self.build_spectrometer(None if jitter else "none"),
            herald_window=self.herald_window(),
        ).scaled(self.grid_scale)
        step = model.signal_grid.step
        if not model.pump.sigma >= step:
            raise ConfigError("source.pump_sigma_ghz", (
                f"the pump envelope is narrower than the signal grid step ({step / GHZ:.3g} GHz); "
                "widen it or raise run.grid_scale"))
        width = model.spectrometer.frequency_std()
        reach = (heralded.JITTER_SPAN_SIGMAS * width + model.filter.half_width) / model.pump.sigma
        if not reach < 0.5 * math.sqrt(sys.float_info.max):
            nominal = self.get("spectrometer.jitter_model") == "nominal"
            raise ConfigError(
                "spectrometer.nominal_resolution_ghz" if nominal
                else "spectrometer.dispersion_ps_per_ghz",
                f"the spectrometer jitter is {width / GHZ:.3g} GHz wide: the purity error nodes "
                f"reach {reach:.3g} pump widths, too many to square")
        return model

    def statistics_model(self, multiplexed: bool = True) -> statistics.MultiplexedStatisticsModel:
        return statistics.MultiplexedStatisticsModel(
            n_modes=self.get("statistics.n_modes"),
            mu=self.get("source.mean_pairs_per_pulse"),
            eta_s=self.get("statistics.eta_signal"),
            eta_h=self.get("statistics.eta_herald"),
            multiplexing_enabled=multiplexed,
        )

    def loss_table(self) -> losses.LossTable:
        return losses.reference_loss_table(self.get("losses.snspd_db"))

    def validate(self) -> None:
        """Check every key against its _SCHEMA domain, then build every model the scenarios use.

        The models check what spans keys: overflow of derived quantities, the
        lookup-table and chirp-grid ceilings, and the counting model's domain.
        """
        for dotted, (_, (accepts, wording)) in _SCHEMA.items():
            if not accepts(self.get(dotted)):
                raise ConfigError(dotted, f"{wording}, got {self.get(dotted)!r}")
        self.pump()
        self.signal_filter()
        self.build_spectrometer()
        stream_spect = self.build_spectrometer(self.get("feedforward.stream_spectrometer"))
        self._ghz("spectrometer.nominal_resolution_ghz")
        herald_span = self._ghz("feedforward.herald_span_ghz")
        bins = 2 * serrodyne.lut_half_width(stream_spect, herald_span) + 1
        if not bins <= LUT_BINS_MAX:
            raise ConfigError("spectrometer.dispersion_ps_per_ghz", (
                f"the feed-forward table needs {bins:.3g} TDC bins (limit {LUT_BINS_MAX}); "
                "lower it or raise spectrometer.tdc_bin_ps"))
        self.shifter()
        self.herald_window()
        self.gamma()
        self.statistics_model()
        n_modes = self.get("statistics.n_modes")
        for dotted in ("source.mean_pairs_per_pulse", "statistics.mu_max"):
            product = self.get(dotted) * n_modes
            if product >= statistics.EXPANSION_LIMIT:
                raise ConfigError(dotted, f"mu * statistics.n_modes = {product:.3g} must be below "
                                          f"{statistics.EXPANSION_LIMIT} (counting model domain)")
        self.loss_table()


def load_config(
    scenario: str,
    config_path=None,
    seed: int | None = None,
    outdir: str | None = None,
    grid_scale: float | None = None,
) -> ScenarioConfig:
    """Resolve defaults, optional user overrides, and CLI-level overrides.

    seed and grid_scale, when given, replace run.seed and run.grid_scale in
    params, so every echo of the configuration shows the values in effect.
    """
    parser = _default_parser()
    if config_path is not None:
        user = _read_ini(config_path)
        for section in user.sections():
            for key in user[section]:
                dotted = f"{section}.{key}"
                if dotted not in _SCHEMA:
                    raise ConfigError(dotted, "unknown configuration key")
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section].update(user[section])
    overrides = {"run.seed": seed, "run.grid_scale": grid_scale}
    params = {}
    for dotted, (caster, _) in _SCHEMA.items():
        section, key = dotted.split(".")
        raw = overrides.get(dotted)
        if raw is None:
            raw = parser.get(section, key)
        try:
            params[dotted] = caster(raw)
        except ValueError as err:
            raise ConfigError(dotted, f"cannot parse {raw!r} as {caster.__name__}") from err
        if caster is float and not math.isfinite(params[dotted]):
            raise ConfigError(dotted, f"must be finite, got {raw!r}")
    return ScenarioConfig(scenario, params, "." if outdir is None else str(outdir))


# ---------------------------------------------------------------- scenarios


def _check(value: float, lo: float, hi: float) -> bool:
    return lo <= value <= hi


def _grade(label: str, value: float, lo: float, hi: float, checks: dict, lines: list) -> None:
    ok = _check(value, lo, hi)
    checks[label] = {"value": value, "band": [lo, hi], "pass": ok}
    lines.append(f"{label}: {value:.5f} in [{lo:g}, {hi:g}] -> {'pass' if ok else 'FAIL'}")


def _write_mode_weights(dm: heralded.DiscretizedDensityMatrix, path, top: int = 32) -> None:
    lam = dm.eigenvalues()[::-1][:top]
    floor = MODE_WEIGHT_FLOOR * float(lam[0])
    with open(path, "w") as fh:
        fh.write("index,weight\n")
        for i, v in enumerate(lam):
            fh.write(f"{i},{float(v) if v > floor else 0.0!r}\n")


def _phase_jitter_factor(cfg: ScenarioConfig) -> float:
    """Drive-timing-jitter purity at the largest shift; an unconverged one is a config error."""
    try:
        return serrodyne.phase_jitter_purity(
            cfg.pump().sigma, cfg.get("shifter.max_shift_ghz") * 1e9, cfg.shifter()
        )
    except serrodyne.QuadratureConvergenceError as err:
        raise ConfigError("shifter.phase_jitter_ps", f"drive-jitter quadrature: {err}") from err


def _converged_purity(model: heralded.HeraldedStateModel) -> float:
    """purity_integral, with a grid too coarse to converge or an opaque filter a config error."""
    try:
        return heralded.purity_integral(model)
    except serrodyne.QuadratureConvergenceError as err:
        raise ConfigError("run.grid_scale", f"quadrature grid too coarse: {err}") from err
    except spectral.FilterOverlapError as err:
        raise ConfigError("filter.full_width_ghz", f"{err}; widen it") from err


def _run_purity(cfg: ScenarioConfig, out) -> tuple[list, dict, list]:
    flavor = cfg.scenario
    model = cfg.heralded_model(
        jitter=flavor in ("purity-jitter", "purity-combined"),
        gvd=flavor in ("purity-gvd", "purity-combined"),
    )
    purity = _converged_purity(model)
    dm = heralded.assemble_density_matrix(model)
    eig_purity = heralded.purity_from_eigenvalues(dm)
    lines, checks = [], {}
    lines.append(f"quadrature purity = {purity!r}")
    lines.append(f"eigenvalue purity = {eig_purity!r}")
    lo, hi = PURITY_BANDS[flavor]
    _grade("purity", purity, lo, hi, checks, lines)
    if flavor == "purity-combined":
        phase_factor = _phase_jitter_factor(cfg)
        negligible = phase_factor > 0.99
        lines.append(
            f"drive-timing-jitter purity factor = {phase_factor:.6f} "
            f"(worst shift; {'negligible' if negligible else 'not negligible'})"
        )
        checks["phase_jitter_factor"] = {"value": phase_factor, "band": [0.99, 1.0],
                                         "pass": negligible}
    weights_path = out / "mode_weights.csv"
    _write_mode_weights(dm, weights_path)
    csv_path = out / "purity.csv"
    with open(csv_path, "w") as fh:
        fh.write("scenario,purity,purity_eigen,band_lo,band_hi\n")
        fh.write(f"{flavor},{purity!r},{eig_purity!r},{lo},{hi}\n")
    return lines, checks, [csv_path, weights_path]


def _ratio(num: float, den: float) -> float:
    """num / den, or nan when den is 0 (a coincidence rate that is or underflows to 0)."""
    return num / den if den else float("nan")


def _run_stats_sweep(cfg: ScenarioConfig, out) -> tuple[list, dict, list]:
    points = cfg.get("statistics.sweep_points")
    mu_max = cfg.get("statistics.mu_max")
    base_mux = cfg.statistics_model(multiplexed=True)
    base_single = cfg.statistics_model(multiplexed=False)
    mus = np.linspace(mu_max / points, mu_max, points)
    sweep_path = out / "stats_sweep.csv"
    column_mux, column_single = [], []
    with open(sweep_path, "w") as fh:
        fh.write("mu,p_sh_multiplexed,g2_multiplexed,p_sh_single,g2_single,enhancement\n")
        for mu in mus:
            rm = statistics.analytic_counting(replace(base_mux, mu=float(mu)))
            rs = statistics.analytic_counting(replace(base_single, mu=float(mu)))
            column_mux.append(rm.p_sh)
            column_single.append(rs.p_sh)
            fh.write(
                f"{float(mu)!r},{rm.p_sh!r},{rm.g2_h!r},{rs.p_sh!r},{rs.g2_h!r},"
                f"{_ratio(rm.p_sh, rs.p_sh)!r}\n"
            )
    pulses = cfg.get("statistics.monte_carlo_pulses")
    mc_mux = statistics.monte_carlo_counting(base_mux, pulses, rng=cfg.seed)
    mc_single = statistics.monte_carlo_counting(base_single, pulses, rng=cfg.seed + 1)
    an_mux = statistics.analytic_counting(base_mux)
    an_single = statistics.analytic_counting(base_single)
    mc_path = out / "counting_mc.csv"
    statistics.write_counting_csv(
        mc_path,
        [(base_mux, mc_mux), (base_single, mc_single),
         (base_mux, an_mux), (base_single, an_single)],
    )
    lines, checks = [], {}
    enhancement = _ratio(an_mux.p_sh, an_single.p_sh)
    lines.append(f"analytic coincidence enhancement at mu={base_mux.mu}: {enhancement:.4f}")
    # a short run can leave the single-mode arm without a coincidence
    mc_enhancement = _ratio(mc_mux.p_sh, mc_single.p_sh)
    lines.append(
        f"monte carlo enhancement: {mc_enhancement:.4f} "
        f"({pulses} pulses, seed {cfg.seed}); measured reference {defaults.MEASURED_ENHANCEMENT}"
    )
    lines.append(f"analytic g2: multiplexed {an_mux.g2_h:.5f}, single {an_single.g2_h:.5f}")
    _grade("enhancement", enhancement, *ENHANCEMENT_BAND, checks, lines)
    monotone = all(b > a for a, b in zip(column_mux, column_mux[1:])) and all(
        b > a for a, b in zip(column_single, column_single[1:])
    )
    checks["p_sh_monotone"] = {"value": float(monotone), "band": [1, 1], "pass": monotone}
    lines.append(f"coincidence columns monotone in mu -> {'pass' if monotone else 'FAIL'}")
    return lines, checks, [sweep_path, mc_path]


def _run_joint_spectrum(cfg: ScenarioConfig, out) -> tuple[list, dict, list]:
    pump = cfg.pump()
    window = cfg.signal_filter()
    points = spectral.scaled_points(257, cfg.grid_scale)
    signal_grid = spectral.FrequencyGrid(window.center, 12.0 * pump.sigma, points)
    herald_grid = spectral.FrequencyGrid(
        pump.center - window.center, 12.0 * pump.sigma, points
    )
    try:
        jsa = spectral.build_anticorrelated_jsa(pump, signal_grid, herald_grid)
    except spectral.GridTooNarrowError as err:
        # the grids span +/-6 pump widths about the pump's own sum frequency, so the envelope
        # fails to decay at their edges only when its width is below float resolution there
        raise ConfigError("source.pump_sigma_ghz", (
            "below the float resolution of the absolute pump frequency set by "
            f"source.signal_wavelength_nm: {err}")) from err
    filtered, transmitted = spectral.apply_filter(jsa, window, axis="signal")
    r_full = spectral.intensity_correlation(jsa)
    r_filtered = spectral.intensity_correlation(filtered)
    purity_full = spectral.schmidt_purity(jsa)
    # a filtered marginal on one grid point (NaN correlation) makes its purity 1 by construction
    purity_filtered = float("nan") if math.isnan(r_filtered) else spectral.schmidt_purity(filtered)
    lines, checks = [], {}
    lines.append(f"joint intensity correlation: unfiltered {r_full:.4f}, filtered {r_filtered:.4f}")
    lines.append(f"filter transmission = {transmitted:.5f}")
    lines.append(
        f"schmidt purity: unfiltered {purity_full:.5f} "
        f"(mode count {1.0 / purity_full:.1f}), filtered {purity_filtered:.5f}"
    )
    _grade("anticorrelation", r_full, -1.0, STREAM_ANTICORRELATION_MAX, checks, lines)
    jsa_path = out / "joint_spectrum.npy"
    filtered_path = out / "joint_spectrum_filtered.npy"
    spectral.write_jsa_text(jsa, jsa_path)
    spectral.write_jsa_text(filtered, filtered_path)
    marg_path = out / "marginals.csv"
    with open(marg_path, "w") as fh:
        fh.write("signal_detuning_ghz,signal_intensity,herald_detuning_ghz,herald_intensity\n")
        # tolist() gives Python floats, whose repr is the shortest round-trip number
        columns = (signal_grid.detunings / GHZ, jsa.signal_marginal(),
                   herald_grid.detunings / GHZ, jsa.herald_marginal())
        for row in zip(*(c.tolist() for c in columns)):
            fh.write(",".join(map(repr, row)) + "\n")
    return lines, checks, [jsa_path, filtered_path, marg_path]


def _run_hom_dip(cfg: ScenarioConfig, out) -> tuple[list, dict, list]:
    model = cfg.heralded_model()
    purity = _converged_purity(model)
    dm = heralded.assemble_density_matrix(model)
    w = dm.grid.trapezoid_weights()
    p = np.diag(dm.matrix) * w
    x = dm.grid.detunings
    mean = float(p @ x)
    sigma_eff = math.sqrt(float(p @ (x - mean) ** 2))
    counts = statistics.analytic_counting(cfg.statistics_model())
    g2 = counts.g2_h
    visibility = statistics.hom_visibility(purity, g2)
    span = cfg.get("run.hom_delay_span_ps") * 1e-12
    delays = np.linspace(-span, span, cfg.get("run.hom_delay_points"))
    curve = statistics.hom_dip_curve(purity, g2, sigma_eff, delays)
    lines, checks = [], {}
    lines.append(f"model purity = {purity:.5f}, analytic g2 = {g2:.5f}")
    lines.append(f"heralded spectral width (intensity rms) = {sigma_eff / GHZ:.3f} GHz")
    lines.append(f"model visibility = {visibility:.5f}, dip minimum = {1 - visibility:.5f}")
    bare = statistics.hom_visibility(1.0, 0.14)
    quoted = statistics.hom_visibility(0.84, 0.14)
    _grade("visibility_unit_purity", bare, HOM_BARE_TARGET[0] - HOM_BARE_TARGET[1],
           HOM_BARE_TARGET[0] + HOM_BARE_TARGET[1], checks, lines)
    _grade("visibility_quoted_point", quoted, HOM_COMBINED_TARGET[0] - HOM_COMBINED_TARGET[1],
           HOM_COMBINED_TARGET[0] + HOM_COMBINED_TARGET[1], checks, lines)
    gap = visibility - defaults.MEASURED_HOM_VISIBILITY
    lines.append(
        f"measured dip visibility {defaults.MEASURED_HOM_VISIBILITY} "
        f"+/- {defaults.MEASURED_HOM_VISIBILITY_ERR}: model exceeds it by {gap:.3f} "
        "(interferometer imperfections are outside the model)"
    )
    lines.append(f"non-classical threshold 0.5: {'exceeded' if visibility > 0.5 else 'not exceeded'}")
    curve_path = out / "hom_dip.csv"
    with open(curve_path, "w") as fh:
        fh.write("delay_ps,coincidence_rate\n")
        for t, r in zip(delays, curve):
            fh.write(f"{float(t) * 1e12!r},{float(r)!r}\n")
    return lines, checks, [curve_path]


def _run_loss_budget(cfg: ScenarioConfig, out) -> tuple[list, dict, list]:
    table = cfg.loss_table()
    klyshko = (cfg.get("statistics.eta_signal"), cfg.get("statistics.eta_herald"))
    report = losses.reconcile(table, klyshko, tolerance=cfg.get("losses.tolerance"))
    lines, checks = [], {}
    for arm in ("signal", "herald"):
        eff = losses.arm_efficiency(table, arm)
        lines.append(f"{arm} arm: {table.total_db(arm):.2f} dB -> efficiency {eff:.5f}")
        target = ARM_EFFICIENCY_TARGETS[arm]
        _grade(f"{arm}_efficiency", eff, target - ARM_EFFICIENCY_TOLERANCE,
               target + ARM_EFFICIENCY_TOLERANCE, checks, lines)
    lines.append(losses.format_reconciliation(report))
    table_path = out / "loss_table.csv"
    losses.write_loss_table(table, table_path)
    report_path = out / "reconciliation.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return lines, checks, [table_path, report_path]


def _run_lut_dump(cfg: ScenarioConfig, out) -> tuple[list, dict, list]:
    spect = cfg.build_spectrometer(cfg.get("feedforward.stream_spectrometer"))
    shifter = cfg.shifter()
    lut = serrodyne.build_lut(
        spect, cfg.signal_filter().center, shifter, span=cfg._ghz("feedforward.herald_span_ghz")
    )
    lut_path = out / "lut.txt"
    serrodyne.write_lut_text(lut, lut_path)
    shifts = lut.required_shift[lut.in_range]
    lines, checks = [], {}
    lines.append(f"{lut.in_range.size} bins tabulated, {shifts.size} in range")
    lines.append(f"bin step = {spect.bin_frequency_step / GHZ:.4f} GHz")
    max_used = float(np.abs(shifts).max()) / 1e9
    limit = serrodyne.max_shift(shifter) / 1e9
    lines.append(f"largest in-range shift {max_used:.3f} GHz of {limit:.3f} GHz available")
    _grade("max_shift_within_drive", max_used, 0.0, limit, checks, lines)
    return lines, checks, [lut_path]


@dataclass(frozen=True)
class StreamResult:
    """The feed-forward stream: one numpy column per event field, plus histograms.

    Row i of every column is pulse i. Frequencies are in rad/s: the signal
    before shifting, the true idler, and the herald frequency as measured
    (the center of TDC bin herald_bin).
    """

    signal_frequency: np.ndarray
    idler_frequency: np.ndarray
    herald_bin: np.ndarray
    herald_frequency: np.ndarray
    applied_shift_hz: np.ndarray
    passed: np.ndarray
    herald_click: np.ndarray
    signal_click: np.ndarray
    unshifted_hist: np.ndarray
    unshifted_edges: tuple  # (herald edges, signal edges), rad/s detunings
    shifted_hist: np.ndarray
    shifted_edges: tuple
    r_unshifted: float
    r_shifted: float
    in_range_fraction: float
    pass_fraction_in_range: float

    @property
    def pulses(self) -> int:
        """Number of pulses: the length of every event column."""
        return self.herald_bin.size


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; NaN when either column is constant, as in intensity_correlation."""
    if x.size < 2 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index of the bin of evenly spaced edges holding each value, all within the edges.

    The bin comes from arithmetic on the value (halves, so no difference
    overflows), then one step against the edges themselves: a value on an
    edge goes to the bin above it, and one on the last edge to the last bin.
    """
    n = edges.size - 1
    low, high = edges[0] / 2, edges[-1] / 2
    guess = np.floor((values / 2 - low) / (high - low) * n)
    index = np.clip(guess, 0, n - 1).astype(np.intp)
    index -= values < edges.take(index)
    upper = np.append(edges[1:-1], np.inf)  # a value on the last edge stays in the last bin
    index += values >= upper.take(index)
    return index


def _joint_histogram(x: np.ndarray, y: np.ndarray, x_edges: np.ndarray,
                     y_edges: np.ndarray) -> np.ndarray:
    """np.histogram2d(x, y, bins=(x_edges, y_edges))[0] for np.linspace edges, by one bincount.

    Pairs with either value outside its edges (or NaN) are dropped, as
    histogram2d drops them.
    """
    inside = ((x >= x_edges[0]) & (x <= x_edges[-1])
              & (y >= y_edges[0]) & (y <= y_edges[-1]))
    nx, ny = x_edges.size - 1, y_edges.size - 1
    flat = _bin_index(x[inside], x_edges) * ny + _bin_index(y[inside], y_edges)
    return np.bincount(flat, minlength=nx * ny).reshape(nx, ny).astype(float)


def simulate_feedforward_stream(cfg: ScenarioConfig, pulses: int | None = None) -> StreamResult:
    """Sample pairs, measure heralds, apply LUT shifts, filter, and histogram.

    Pairs are drawn from the joint intensity (flat phase matching over the
    sampled idler span, Gaussian energy conservation). Every idler arrival is
    time-tagged; heralds outside the accepted window get no shift and are
    flagged. The unshifted histogram covers all events; the shifted one only
    those routed and passing the output filter, which is the measurable
    joint spectrum downstream.
    """
    if pulses is None:
        pulses = cfg.get("run.stream_pulses")
    pump = cfg.pump()
    window = cfg.signal_filter()
    spect = cfg.build_spectrometer(cfg.get("feedforward.stream_spectrometer"))
    lut = serrodyne.build_lut(
        spect, window.center, cfg.shifter(), span=cfg._ghz("feedforward.herald_span_ghz")
    )
    herald_ref = spect.reference_frequency
    half_span = cfg._ghz("feedforward.idler_sample_span_ghz") / 2.0
    eta_s = cfg.get("statistics.eta_signal")
    eta_h = cfg.get("statistics.eta_herald")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    idler = herald_ref + rng.uniform(-half_span, half_span, size=pulses)
    # energy conservation: sum detuning carries the pump intensity profile
    sum_detuning = rng.normal(0.0, pump.sigma / math.sqrt(2.0), size=pulses)
    signal = pump.center + sum_detuning - idler

    bins, herald_meas = spectrometer.sample_herald_event(spect, idler, rng)
    applied_hz, routed = lut.route(bins)

    shifted_signal = signal + defaults.TWO_PI * applied_hz
    in_filter = np.abs(shifted_signal - window.center) <= window.half_width
    passed = routed & in_filter

    herald_click = rng.random(pulses) < eta_h
    signal_click = (rng.random(pulses) < eta_s) & passed

    bins_n = cfg.get("run.histogram_bins")
    h_all = herald_meas - herald_ref
    s_all = signal - window.center
    edge = max(half_span, np.abs(h_all).max(), np.abs(s_all).max()) * 1.0001
    full_edges = np.linspace(-edge, edge, bins_n + 1)
    unshifted_hist = _joint_histogram(h_all, s_all, full_edges, full_edges)
    herald_half = cfg._ghz("feedforward.herald_span_ghz") / 2.0
    shifted_edges = (
        np.linspace(-herald_half, herald_half, bins_n + 1),
        np.linspace(-window.half_width, window.half_width, bins_n + 1),
    )
    h_passed = h_all[passed]
    s_passed = (shifted_signal - window.center)[passed]
    shifted_hist = _joint_histogram(h_passed, s_passed, *shifted_edges)

    n_routed = int(routed.sum())
    return StreamResult(
        signal_frequency=signal,
        idler_frequency=idler,
        herald_bin=bins,
        herald_frequency=herald_meas,
        applied_shift_hz=applied_hz,
        passed=passed,
        herald_click=herald_click,
        signal_click=signal_click,
        unshifted_hist=unshifted_hist,
        unshifted_edges=(full_edges, full_edges),
        shifted_hist=shifted_hist,
        shifted_edges=shifted_edges,
        r_unshifted=_pearson(h_all, s_all),
        r_shifted=_pearson(h_passed, s_passed),
        in_range_fraction=n_routed / pulses,
        pass_fraction_in_range=float(passed.sum() / n_routed) if n_routed else float("nan"),
    )


# events.npy: one row per pulse, the row index its pulse number; the detunings and the
# shift are in GHz at full precision, and herald_bin keeps the column's own int64
EVENTS_DTYPE = np.dtype([
    ("herald_bin", np.int64),
    ("idler_detuning_ghz", np.float64),
    ("herald_detuning_ghz", np.float64),
    ("signal_detuning_ghz", np.float64),
    ("shift_ghz", np.float64),
    ("passed", np.bool_),
    ("herald_click", np.bool_),
    ("signal_click", np.bool_),
])


# rows per write: the writer holds one block of 2.8 MB, not a copy of every column
_EVENT_BLOCK = 1 << 16


def _write_events(result: StreamResult, herald_ref: float, filter_center: float, path) -> None:
    """events.npy: the event columns as EVENTS_DTYPE rows, the bytes np.save writes of them.

    The .npy header goes first, then the rows, filled and written
    _EVENT_BLOCK at a time.
    """
    n = result.pulses
    header = {"descr": np.lib.format.dtype_to_descr(EVENTS_DTYPE), "fortran_order": False,
              "shape": (n,)}
    block = np.empty(min(n, _EVENT_BLOCK), dtype=EVENTS_DTYPE)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for start in range(0, n, _EVENT_BLOCK):
            rows = slice(start, start + _EVENT_BLOCK)
            events = block[:min(_EVENT_BLOCK, n - start)]
            events["herald_bin"] = result.herald_bin[rows]
            events["idler_detuning_ghz"] = (result.idler_frequency[rows] - herald_ref) / GHZ
            events["herald_detuning_ghz"] = (result.herald_frequency[rows] - herald_ref) / GHZ
            events["signal_detuning_ghz"] = (result.signal_frequency[rows] - filter_center) / GHZ
            events["shift_ghz"] = result.applied_shift_hz[rows] / 1e9
            for flag in ("passed", "herald_click", "signal_click"):
                events[flag] = getattr(result, flag)[rows]
            events.tofile(fh)


def _write_histogram(hist: np.ndarray, edges: tuple, path, label: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {label}\n")
        fh.write("# rows: herald detuning bins, columns: signal detuning bins\n")
        for tag, e in zip(("herald", "signal"), edges):
            fh.write(f"# {tag}_edges_ghz: {e[0] / GHZ:.6f} .. {e[-1] / GHZ:.6f} ({len(e) - 1} bins)\n")
        for row in hist.astype(int):
            fh.write(" ".join(str(v) for v in row) + "\n")


def _run_stream(cfg: ScenarioConfig, out) -> tuple[list, dict, list]:
    result = simulate_feedforward_stream(cfg)
    clipping_db = next(e.loss_db for e in cfg.loss_table().entries
                       if e.component == "bandwidth clipping")
    lines, checks = [], {}
    lines.append(f"{result.pulses} pulses, seed {cfg.seed}")
    lines.append(
        f"herald in accepted window: {result.in_range_fraction:.4f}; "
        f"filter pass given routed: {result.pass_fraction_in_range:.4f} "
        f"(bandwidth-clipping budget entry predicts {10 ** (-clipping_db / 10):.3f})"
    )
    _grade("anticorrelation_unshifted", result.r_unshifted, -1.0,
           STREAM_ANTICORRELATION_MAX, checks, lines)
    _grade("independence_shifted", result.r_shifted, -STREAM_INDEPENDENCE_MAX,
           STREAM_INDEPENDENCE_MAX, checks, lines)
    events_path = out / "events.npy"
    _write_events(result, cfg.anchor(), cfg.signal_filter().center, events_path)
    un_path = out / "joint_hist_unshifted.txt"
    sh_path = out / "joint_hist_shifted.txt"
    _write_histogram(result.unshifted_hist, result.unshifted_edges, un_path,
                     "joint spectrum, no feed-forward")
    _write_histogram(result.shifted_hist, result.shifted_edges, sh_path,
                     "joint spectrum after feed-forward, filter passband")
    return lines, checks, [events_path, un_path, sh_path]


_RUNNERS = {
    "purity-jitter": _run_purity,
    "purity-gvd": _run_purity,
    "purity-combined": _run_purity,
    "stats-sweep": _run_stats_sweep,
    "joint-spectrum": _run_joint_spectrum,
    "hom-dip": _run_hom_dip,
    "loss-budget": _run_loss_budget,
    "lut-dump": _run_lut_dump,
    "feedforward-stream": _run_stream,
}
SCENARIOS = tuple(_RUNNERS)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _nested_params(params: dict) -> dict:
    tree: dict = {}
    for dotted, value in params.items():
        section, key = dotted.split(".")
        tree.setdefault(section, {})[key] = value
    return tree


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute one scenario; returns the summary also written to disk."""
    cfg.validate()
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    lines, checks, outputs = _RUNNERS[cfg.scenario](cfg, out)
    wall = time.perf_counter() - started

    summary_path = out / "summary.txt"
    with open(summary_path, "w") as fh:
        fh.write(f"scenario: {cfg.scenario}\n")
        fh.write(f"seed: {cfg.seed}\ngrid_scale: {cfg.grid_scale!r}\n")
        for line in lines:
            fh.write(line + "\n")
    outputs = [summary_path] + list(outputs)

    manifest = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "grid_scale": cfg.grid_scale,
        "config": _nested_params(cfg.params),
        "versions": {
            "package": defaults.PACKAGE_VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": wall,
        "outputs": [
            {"name": p.name, "bytes": p.stat().st_size, "sha256": _sha256(p)} for p in outputs
        ],
        "checks": checks,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return {
        "scenario": cfg.scenario,
        "lines": lines,
        "checks": checks,
        "outputs": [str(p) for p in outputs] + [str(out / "manifest.json")],
        "wall_time_s": wall,
        "all_passed": all(c["pass"] for c in checks.values()),
    }
