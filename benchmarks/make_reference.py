"""Record each workload's operating-point pool and the outputs it produces.

    python3 benchmarks/make_reference.py [workload ...]

Draws every pool from the ranges in workloads.py (of every workload unless
some are named), runs each point once and writes its graded values and
output digests to reference/<workload>.json.
The reference fixes what the benchmark counts as a correct run, so it is
made on the commit whose outputs are correct by definition and regenerated
only by a change that means to alter scenario outputs.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

os.environ.update(wl.BLAS_ENV)  # before worker imports numpy

import worker  # noqa: E402


def build(name: str, scratch: Path) -> dict:
    workload = wl.WORKLOADS[name]
    scenarios = {}
    for scenario in workload.points:
        entries = []
        for i, point in enumerate(wl.draw_pool(workload, scenario)):
            rundir = scratch / f"{scenario}-{i}"
            _, summary = worker.execute(scenario, point, rundir)
            entries.append({**point, **worker.outcome(summary)[0]})
            shutil.rmtree(rundir)
        scenarios[scenario] = entries
    return {"workload": name, "scenarios": scenarios}


def main(names) -> int:
    scratch_root = wl.HERE.parent / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            reference = build(name, Path(scratch))
        wl.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(wl.reference_path(name), "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {wl.reference_path(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or sorted(wl.WORKLOADS)))
