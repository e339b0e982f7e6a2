"""Run one workload in this process and print its raw measurements as JSON.

run.py starts one worker per workload, so the peak resident memory the
worker reports belongs to that workload alone. The load is a closed loop
with one client: each scenario run starts after the previous one has been
checked against the reference. Only the ``load_config`` + ``run_scenario``
call is timed; writing the overlay, hashing outputs and deleting them is not.
Between runs the worker waits for fresh interpreters (probe.py) that time
the set-up a command-line user pays.

    python3 benchmarks/worker.py --workload purity --seed 1 --seconds 55 \
        --trace 0 --outdir .bench_out/w
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fmux.cli  # noqa: E402,F401  (every layer, as the command line loads it)
import workloads as wl  # noqa: E402
from fmux import scenarios  # noqa: E402
from tracer import Tracer  # noqa: E402

# a graded value may move this much before the run counts as failed
REL_TOL = 1e-9
ABS_TOL = 1e-12
# a Monte Carlo estimate may move this many standard errors of a difference, so
# a sampler that draws a different random stream still passes
MC_SIGMAS = 5
SETUP_EVERY_S = 5.0  # measuring time per set-up probe, so the probes span the run
CALIBRATION_REPS = 2  # host_kernel_s keeps the shortest of this many timings


def host_kernel_s() -> float:
    """Seconds for a fixed mix of interpreter and numpy work: the host's speed.

    The shared host's speed swings by up to 1.7x over minutes and slows this
    kernel and the scenario runs alike, so the kernel is timed right before
    each run and set-up probe, and run.py reports that run's time scaled by
    HOST_REF_S / kernel time. The kernel is part of the benchmark, not of
    fmux.
    """
    best = math.inf
    for _ in range(CALIBRATION_REPS):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        values = np.random.default_rng(0).random(1_000_000)
        np.sort(values)
        np.cumsum(values * 2.0 + 1.0)
        best = min(best, perf_counter() - start)
    return best


def setup_point(workload: wl.Workload, reference: dict, seed: int, outdir: Path) -> list:
    """probe.py arguments for the workload's first scheduled run."""
    scenario, k, _ = next(wl.schedule(workload, reference, seed))
    point = reference[scenario][k]
    overlay = outdir / "setup.ini"
    overlay.write_text(wl.overlay_text(point["overlay"]))
    return [scenario, str(overlay), str(point["seed"])]


def probe(argv: list, cwd: Path) -> tuple[float, float]:
    """(set-up seconds, import seconds) of one fresh interpreter."""
    spawned = monotonic()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), *argv], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    stamps = json.loads(done.stdout.splitlines()[-1])
    return stamps["ready"] - spawned, stamps["imported"] - stamps["started"]


def execute(scenario: str, point: dict, rundir: Path) -> tuple[float, dict]:
    """One scenario run at a pool point; returns (seconds, run_scenario summary)."""
    rundir.mkdir(parents=True)
    ini = rundir / "overlay.ini"
    ini.write_text(wl.overlay_text(point["overlay"]))
    start = perf_counter()
    # through the module, so the tracer's wrappers are the ones called
    cfg = scenarios.load_config(scenario, config_path=ini, seed=point["seed"],
                                outdir=rundir / "out")
    summary = scenarios.run_scenario(cfg)
    return perf_counter() - start, summary


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def measured(scenario: str, outputs: dict) -> dict:
    """Run-dependent values that the scenario's own checks leave ungraded.

    Read from the output files at full precision, as label -> {"value",
    "se"}: ``se`` is the standard error of a Monte Carlo estimate and 0 for a
    deterministic value. stats-sweep grades only analytic values and hom-dip
    only constants, so without these a wrong Monte Carlo sampler or density
    matrix would change nothing but output digests.
    """
    values = {}
    if scenario.startswith("purity-"):
        (row,) = _rows(outputs["purity.csv"])
        values["purity_eigen"] = {"value": float(row["purity_eigen"]), "se": 0.0}
    elif scenario == "hom-dip":
        rates = [float(r["coincidence_rate"]) for r in _rows(outputs["hom_dip.csv"])]
        values["dip_minimum"] = {"value": min(rates), "se": 0.0}
        values["dip_mean"] = {"value": math.fsum(rates) / len(rates), "se": 0.0}
    elif scenario == "stats-sweep":
        for row in _rows(outputs["counting_mc.csv"]):
            if not row["pulses"]:
                continue  # an analytic row
            arm = "multiplexed" if row["multiplexed"] == "1" else "single"
            pulses = int(row["pulses"])
            values[f"mc_pulses_{arm}"] = {"value": float(pulses), "se": 0.0}
            for rate in ("p_h", "p_s", "p_sh"):  # binomial fractions of the pulses
                p = float(row[rate])
                values[f"mc_{rate}_{arm}"] = {"value": p, "se": math.sqrt(p * (1 - p) / pulses)}
    return values


def outcome(summary: dict) -> tuple[dict, int]:
    """Graded values and output digests of a finished run, plus bytes written.

    The digests are computed here rather than read from the manifest, so the
    gate does not trust the code it checks; the byte count comes from the
    manifest, whose own size is added.
    """
    checks = {label: {"value": float(c["value"]), "pass": bool(c["pass"])}
              for label, c in summary["checks"].items()}
    outputs = {path.name: path for path in map(Path, summary["outputs"])}
    manifest_path = outputs.pop("manifest.json")
    manifest = json.loads(manifest_path.read_text())
    written = manifest_path.stat().st_size + sum(o["bytes"] for o in manifest["outputs"])
    digests = {name: _sha256(path) for name, path in outputs.items()}
    return {"checks": checks, "measured": measured(summary["scenario"], outputs),
            "digests": digests}, written


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _agrees(ref: dict, got: dict | None) -> bool:
    if got is None:
        return False
    if ref["se"]:  # two independent estimates differ by sqrt(2) standard errors
        return abs(got["value"] - ref["value"]) <= MC_SIGMAS * math.sqrt(2) * ref["se"]
    return _close(got["value"], ref["value"])


def compare(expected: dict, got: dict) -> tuple[bool, int]:
    """(every reference value present and within tolerance, digest mismatches)."""
    ok = all(_agrees(ref, got["measured"].get(label))
             for label, ref in expected["measured"].items())
    for label, ref in expected["checks"].items():
        check = got["checks"].get(label)
        if check is None or check["pass"] != ref["pass"] or not _close(check["value"], ref["value"]):
            ok = False
    mismatches = sum(got["digests"].get(name) != sha for name, sha in expected["digests"].items())
    return ok, mismatches


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "arch": platform.machine(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def load_reference(name: str) -> dict:
    with open(wl.reference_path(name)) as fh:
        return json.load(fh)["scenarios"]


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict,
            outdir: Path) -> dict:
    """Run the workload for ``seconds`` of wall time; return raw measurements.

    Set-up probes run between scenario runs, inside the measuring time, one
    per SETUP_EVERY_S, so they sample the same interference phases as the
    runs. Every run and probe is preceded by a host_kernel_s timing, which
    is returned beside it. Without ``trace`` the loop stops at the first run
    boundary after the time is up, once a whole round is done; a round is
    often longer than the last run, so this keeps every run the same
    length. With ``trace``
    the rounds alternate untraced and traced, so the tracing overhead is
    measured on the same schedule, and only whole rounds are run; end-to-end
    numbers come only from untraced runs.
    """
    workload = wl.WORKLOADS[name]
    for scenario in dict.fromkeys(workload.round):
        point = {"overlay": {**workload.points[scenario].fixed, **wl.WARMUP_OVERLAY}, "seed": 1}
        execute(scenario, point, outdir / f"warmup-{scenario}")
        shutil.rmtree(outdir / f"warmup-{scenario}")

    setup_argv = setup_point(workload, reference, seed, outdir)
    probe(setup_argv, outdir)  # also compiles byte code, which users pay once
    setup = []
    tracer = Tracer() if trace else None
    runs = {False: [], True: []}  # [scenario, seconds, kernel seconds] per run
    rounds = {False: [], True: []}  # seconds per whole round
    attempted = failed = mismatches = wraps = written = 0
    plan = wl.schedule(workload, reference, seed)
    start = perf_counter()

    def time_up() -> bool:
        return perf_counter() - start >= seconds and bool(rounds[False])

    while not (time_up() and (not trace or rounds[True])):
        traced = trace and len(rounds[False]) > len(rounds[True])
        if traced:
            tracer.install()
        round_s = 0.0
        try:
            for _ in workload.round:
                while len(setup) <= (perf_counter() - start) / SETUP_EVERY_S:
                    kernel_s = host_kernel_s()
                    setup.append([*probe(setup_argv, outdir), kernel_s])
                scenario, k, wrapped = next(plan)
                expected = reference[scenario][k]
                rundir = outdir / f"run{attempted}"
                attempted += 1
                wraps += wrapped
                kernel_s = host_kernel_s()
                t0 = perf_counter()
                try:
                    elapsed, summary = execute(scenario, expected, rundir)
                    got, nbytes = outcome(summary)
                    ok, bad = compare(expected, got)
                except Exception:  # a run that raises is a failed run, not a crash
                    elapsed, ok, bad, nbytes = perf_counter() - t0, False, 0, 0
                    traceback.print_exc(file=sys.stderr)
                if not ok:
                    print(f"failed: {scenario} pool point {k}", file=sys.stderr)
                failed += not ok
                mismatches += bad
                written += nbytes
                runs[traced].append([scenario, elapsed, kernel_s])
                round_s += elapsed
                shutil.rmtree(rundir, ignore_errors=True)
                if not trace and time_up():
                    break
            else:
                rounds[traced].append(round_s)
        finally:
            if traced:
                tracer.uninstall()

    return {
        "attempted": attempted,
        "failed": failed,
        "digest_mismatches": mismatches,
        "pool_wraps": wraps,
        "bytes_per_round": written * len(workload.round) / attempted,
        "runs": runs[False],
        "traced_round_s": rounds[True],
        "traced_kernel_s": [kernel_s for _, _, kernel_s in runs[True]],
        "setup": setup,  # [set-up seconds, import seconds, kernel seconds] per probe
        "layers": tracer.stats if trace else {},
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=Path, required=True)
    args = parser.parse_args(argv)
    raw = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  load_reference(args.workload), args.outdir)
    print(json.dumps(raw))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
