"""Benchmark workloads: the run mix of one round and the operating-point pools.

A workload is a fixed list of scenario runs (one *round*) repeated until the
measuring time is spent. Every run in a round takes its own operating point
from a pool drawn once from the ranges below; the pool and the check values
and output digests each point produced on the reference commit live in
``reference/<workload>.json``. The ``--seed`` argument only orders each
pool, so the same seed gives the same inputs and no run in one process
repeats an input until its pool is used up.

This module does not import fmux.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


@dataclass(frozen=True)
class PointSpec:
    """How the pool of one scenario is drawn."""

    pool: int
    fixed: dict = field(default_factory=dict)  # overlay keys every point sets
    ranges: dict = field(default_factory=dict)  # key -> (lo, hi, decimals)


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple  # scenario names, in run order
    points: dict  # scenario -> PointSpec


_PURITY_RANGES = {
    "delay.length_m": (150.0, 450.0, 1),
    "source.pump_sigma_ghz": (40.0, 62.0, 2),
    "shifter.phase_jitter_ps": (2.0, 8.0, 2),
}
_STREAM_FIXED = {"run.stream_pulses": 300000, "statistics.monte_carlo_pulses": 12000000}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="purity",
            round=("purity-jitter", "purity-gvd", "purity-combined", "hom-dip") * 3,
            points={
                scenario: PointSpec(pool=128, ranges=_PURITY_RANGES)
                for scenario in ("purity-jitter", "purity-gvd", "purity-combined", "hom-dip")
            },
        ),
        # Six stream-sized runs of similar cost keep the median and the tail among
        # them; the three export runs are a minority that still exercises the
        # spectral, losses and LUT writers.
        Workload(
            name="stream",
            round=("feedforward-stream", "stats-sweep", "feedforward-stream", "lut-dump",
                   "feedforward-stream", "stats-sweep", "feedforward-stream",
                   "joint-spectrum", "loss-budget"),
            points={
                "feedforward-stream": PointSpec(pool=96, fixed=_STREAM_FIXED),
                "stats-sweep": PointSpec(pool=48, fixed=_STREAM_FIXED),
                "joint-spectrum": PointSpec(
                    pool=48, ranges={"source.pump_sigma_ghz": (35.0, 70.0, 2)}),
                "lut-dump": PointSpec(pool=32, ranges={
                    "shifter.max_shift_ghz": (85.0, 100.0, 2),
                    "feedforward.herald_span_ghz": (140.0, 170.0, 2),
                }),
                "loss-budget": PointSpec(pool=32, ranges={
                    "losses.snspd_db": (0.81, 1.08, 3),
                    "losses.tolerance": (0.01, 0.03, 4),
                }),
            },
        ),
    )
}

# Small overlay run once per scenario before timing, so lazy imports and
# first-call allocations are not charged to the first measured run.
WARMUP_OVERLAY = {
    "run.grid_scale": 0.25,
    "run.stream_pulses": 20000,
    "statistics.monte_carlo_pulses": 100000,
}

# One BLAS thread: the load comes from one process, and with two BLAS threads
# purity runs took up to 50x longer whenever other processes used the cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Seconds the calibration kernel (worker.host_kernel_s) takes on the reference
# host; times are reported as if the kernel had taken this long.
HOST_REF_S = 0.025


def draw_pool(workload: Workload, scenario: str) -> list[dict]:
    """The pool of one scenario: overlay plus run seed per point (deterministic)."""
    spec = workload.points[scenario]
    rng = random.Random(f"fmux-bench:{workload.name}:{scenario}")
    pool = []
    for _ in range(spec.pool):
        overlay = dict(spec.fixed)
        for key, (lo, hi, decimals) in spec.ranges.items():
            overlay[key] = round(rng.uniform(lo, hi), decimals)
        pool.append({"overlay": overlay, "seed": rng.randrange(1, 2**31)})
    return pool


def schedule(workload: Workload, pools: dict, seed: int):
    """Yield (scenario, pool index, wrapped) forever, round after round.

    The seed fixes one permutation per scenario pool; ``wrapped`` is true
    once a scenario has used every point of its pool in this process.
    """
    rng = random.Random(seed)
    orders = {s: rng.sample(range(len(pools[s])), len(pools[s])) for s in sorted(pools)}
    used = dict.fromkeys(pools, 0)
    while True:
        for scenario in workload.round:
            k = used[scenario]
            used[scenario] += 1
            order = orders[scenario]
            yield scenario, order[k % len(order)], k >= len(order)


def overlay_text(overlay: dict) -> str:
    """INI text for a dotted-key overlay; floats keep every digit via repr."""
    sections: dict = {}
    for dotted, value in overlay.items():
        section, key = dotted.split(".")
        sections.setdefault(section, []).append(f"{key} = {value!r}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"

