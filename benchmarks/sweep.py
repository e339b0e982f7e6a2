"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 benchmarks/sweep.py --seeds 10 --out benchmarks/trajectory/BENCH_1.json

For every workload it runs the command in BENCHMARK.json with ``--trace 0``
once per seed, then once with ``--trace 1``. Per end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, flagged when that spread exceeds a
third of the metric's bound. ``--out`` writes the summary as one point of
the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200,
                          check=True)
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return detail, result


def summarise(values: list, bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(1, args.seeds + 1)

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        tails = []
        host_factors = []
        for seed in seeds:
            detail, result = run(spec, workload, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            tails.append(detail["run_s_tail"])
            host_factors.append(detail["host_factor"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g} {m['unit']}" for n, m in result["metrics"].items()),
                f"tail p{detail['run_s_tail']['percentile']} of {detail['run_s_tail']['samples']}",
                f"host factor {detail['host_factor']:.3f}",
                file=sys.stderr)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        end_to_end = {n: summarise(v, bounds[n]) for n, v in values.items()}
        detail, traced = run(spec, workload, seeds[0], 1)
        summary["machine"] = detail["machine"]
        summary["workloads"][workload] = {
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": end_to_end,
            "run_s_tail_rank": tails,
            "host_factor": host_factors,
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
        for name, s in end_to_end.items():
            print(f"{workload:7} {name:12} median {s['median']:10.4f} {units[name]:3}"
                  f"  spread {s['spread']:.3f}"
                  f"  bound {s['bound']:.2f}  {'ok' if s['steady'] else 'UNSTEADY'}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
