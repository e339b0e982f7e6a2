"""Smoke test of the benchmark at a tiny size (one round per measurement).

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, kind):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "purity", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == _declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    if trace:  # per round: twelve heralded runs, no joint spectrum
        assert metrics["heralded.assemble_density_matrix.calls"]["value"] == 12
        assert metrics["spectral.schmidt_purity.calls"]["value"] == 0


def test_reference_pools_are_the_drawn_pools():
    import workloads as wl

    for name, workload in wl.WORKLOADS.items():
        reference = json.loads(wl.reference_path(name).read_text())["scenarios"]
        assert set(reference) == set(workload.points)
        for scenario, entries in reference.items():
            points = [{"overlay": e["overlay"], "seed": e["seed"]} for e in entries]
            assert points == wl.draw_pool(workload, scenario)


def test_perturbed_reference_fails_runs_but_digests_only_count(tmp_path):
    import worker

    reference = copy.deepcopy(worker.load_reference("stream"))
    for entry in reference["joint-spectrum"]:
        entry["checks"]["anticorrelation"]["value"] *= 1 + 1e-6
    for entry in reference["lut-dump"]:
        entry["checks"]["max_shift_within_drive"]["pass"] ^= True
    for entry in reference["stats-sweep"]:  # a Monte Carlo estimate 20 standard errors off
        mc = entry["measured"]["mc_p_sh_multiplexed"]
        mc["value"] += 20 * mc["se"]
    for entry in reference["loss-budget"]:
        entry["digests"]["loss_table.csv"] = "0" * 64
    raw = worker.measure("stream", seed=3, seconds=0, trace=False, reference=reference,
                         outdir=tmp_path)
    assert raw["attempted"] == 9
    assert raw["failed"] == 4  # the joint-spectrum, lut-dump and both stats-sweep runs
    assert raw["failed"] / raw["attempted"] > 0
    assert raw["digest_mismatches"] == 1


def test_perturbed_run_dependent_values_fail_purity_runs(tmp_path):
    import worker

    reference = copy.deepcopy(worker.load_reference("purity"))
    for entry in reference["hom-dip"]:
        entry["measured"]["dip_minimum"]["value"] *= 1 + 1e-6
    for entry in reference["purity-gvd"]:
        entry["measured"]["purity_eigen"]["value"] *= 1 - 1e-6
    raw = worker.measure("purity", seed=3, seconds=0, trace=False, reference=reference,
                         outdir=tmp_path)
    assert raw["attempted"] == 12
    assert raw["failed"] == 6  # three hom-dip and three purity-gvd runs


def test_monte_carlo_values_are_graded_at_a_statistical_tolerance():
    import worker

    expected = worker.load_reference("stream")["stats-sweep"][0]
    for shift, ok in ((1.0, True), (-1.0, True), (20.0, False), (-20.0, False)):
        got = copy.deepcopy(expected)
        mc = got["measured"]["mc_p_sh_single"]
        mc["value"] += shift * mc["se"]
        assert worker.compare(expected, got) == (ok, 0)
