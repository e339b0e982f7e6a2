"""fmux scenario benchmark: measure one workload and print its metrics.

    python3 benchmarks/run.py --workload purity --seed 1 --seconds 55 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``purity`` and ``stream``.
Each is run in a fresh worker process (worker.py) that calls
``fmux.scenarios.load_config`` + ``run_scenario`` in a closed loop for at
least ``--seconds`` and checks every run against the reference recorded in
reference/<workload>.json. Set-up time is the median over fresh interpreters
(probe.py) that the worker starts between its runs.

Every time is host-corrected: on a shared host, other tenants slow every
process by up to 1.7x, in phases from seconds to minutes, and no
statistic of one run averages out a slow minute. So the worker times a fixed
calibration kernel (worker.host_kernel_s) right before each scenario run
and set-up probe, and a time is reported as ``seconds * HOST_REF_S /
kernel``: the seconds it would take on a host where the kernel takes
HOST_REF_S. The kernel is benchmark code, so a change to fmux moves the
corrected times as it moves the raw ones. ``host_factor`` in the detail line
is the median kernel time over HOST_REF_S, the factor that was divided out.

With ``--trace 0`` the metrics are the end-to-end ones. ``wall_s`` is the
time of one round estimated from every run: the sum, over the round's run
list, of the mean run time of each scenario, so the last round may stop
early. With ``--trace 1`` the metrics are per-layer self times and counts
from a traced run (tracer.py), normalised per round of the workload's fixed
run list; its times are scaled by the median kernel of the traced runs. The
second to last line of output records the machine, the seed, the host
factor, the tail percentile and its sample count; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

DEADLINE_S = 170.0  # worker deadline, inside the 180 s a run may take
TAIL_BEYOND = 10  # the tail percentile keeps at least this many runs above it


def run_worker(args, outdir: Path, env: dict, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", str(outdir / "runs")]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=budget, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def tail(samples: list) -> tuple[float, int]:
    """Highest whole percentile with TAIL_BEYOND samples above it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(0, (100 * (n - TAIL_BEYOND)) // n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def corrected(seconds: float, kernel_s: float) -> float:
    """Seconds on a host where the calibration kernel takes HOST_REF_S."""
    return seconds * wl.HOST_REF_S / kernel_s


def round_s(runs: list, workload: wl.Workload) -> float:
    """Time of one round: each slot of the run list at its scenario's mean."""
    by_scenario: dict = {}
    for scenario, seconds in runs:
        by_scenario.setdefault(scenario, []).append(seconds)
    return sum(statistics.fmean(by_scenario[s]) for s in workload.round)


def end_to_end(raw: dict, workload: wl.Workload) -> dict:
    runs = [(scenario, corrected(s, k)) for scenario, s, k in raw["runs"]]
    run_s = [seconds for _, seconds in runs]
    value, _ = tail(run_s)
    return {
        "setup_s": (statistics.median(corrected(s, k) for s, _, k in raw["setup"]), "s"),
        "wall_s": (round_s(runs, workload), "s"),
        "run_s_p50": (statistics.median(run_s), "s"),
        "run_s_tail": (value, "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] * 1024 / 1e6, "MB"),
    }


def per_layer(raw: dict, workload: wl.Workload) -> dict:
    rounds = len(raw["traced_round_s"])
    layers = raw["layers"]
    host = wl.HOST_REF_S / statistics.median(raw["traced_kernel_s"])

    def calls(name):
        return (layers[name][0] / rounds, "count/round")

    def self_s(name):
        return (layers[name][2] * host / rounds, "s/round")

    def rate(name, scale, unit):
        _, _, busy, work = layers[name]
        return (work / scale / (busy * host) if busy > 0 else 0.0, unit)

    assembled = layers["heralded.assemble_density_matrix"][0]
    metrics = {}
    for name in ("heralded.assemble_density_matrix", "heralded.eigenvalues",
                 "heralded.purity_integral", "serrodyne.phase_jitter_purity",
                 "spectral.schmidt_coefficients"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics["spectral.schmidt_purity.calls"] = calls("spectral.schmidt_purity")
    for name in ("serrodyne.build_lut", "serrodyne.write_lut_text",
                 "spectrometer.frequency_to_arrival_time", "spectrometer.time_to_bin",
                 "spectral.write_jsa_text", "spectral.build_anticorrelated_jsa",
                 "statistics.monte_carlo_counting", "scenarios.simulate_feedforward_stream",
                 "scenarios.run_scenario", "losses.reconcile", "losses.write_loss_table"):
        metrics[f"{name}.self_s"] = self_s(name)
    metrics.update({
        "heralded.eigensolves_per_matrix": (
            layers["heralded.eigenvalues"][0] / assembled if assembled else 0.0, "ratio"),
        "spectrometer.models_built": calls("spectrometer.SpectrometerModel"),
        "spectral.write_jsa_text.mb_per_s": rate("spectral.write_jsa_text", 1e6, "MB/s"),
        "statistics.mc_pulses_per_s": rate("statistics.monte_carlo_counting", 1, "1/s"),
        "scenarios.stream_pulses_per_s": rate("scenarios.simulate_feedforward_stream", 1, "1/s"),
        "scenarios.bytes_written": (raw["bytes_per_round"] / 1e6, "MB/round"),
        "scenarios.digest_mismatches": (raw["digest_mismatches"], "count"),
        "cli.import_s": (statistics.median(corrected(i, k) for _, i, k in raw["setup"]), "s"),
        "trace.overhead_frac": (  # raw times: the rounds alternate, so both see the host
            statistics.fmean(raw["traced_round_s"])
            / round_s([(scenario, s) for scenario, s, _ in raw["runs"]], workload) - 1,
            "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fmux" / "__init__.py").is_file():
        print(f"fmux sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = {**os.environ, **wl.BLAS_ENV}
    outdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        raw = run_worker(args, outdir, env, DEADLINE_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    workload = wl.WORKLOADS[args.workload]
    metrics = per_layer(raw, workload) if args.trace else end_to_end(raw, workload)
    _, pct = tail([seconds for _, seconds, _ in raw["runs"]])
    kernel_s = [k for _, _, k in raw["runs"]] + [k for *_, k in raw["setup"]]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": raw["machine"],
        "host_factor": statistics.median(kernel_s) / wl.HOST_REF_S,
        "rounds": raw["attempted"] / len(workload.round),
        "run_s_tail": {"percentile": pct, "samples": len(raw["runs"])},
        "setup_samples": len(raw["setup"]),
        "failed_frac": raw["failed"] / raw["attempted"],
        "digest_mismatches": raw["digest_mismatches"],
        "pool_wraps": raw["pool_wraps"],
    }))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
