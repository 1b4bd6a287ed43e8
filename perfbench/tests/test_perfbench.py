"""Tests of the benchmark itself: tracer hygiene, metric names, failure
counting, seed handling, and refusal to run without the package sources."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import rgg_spectra  # noqa: E402
import rgg_spectra.cli  # noqa: E402,F401

from perfbench import run, workloads  # noqa: E402
from perfbench.tracer import PER_LAYER, TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SET_UP = {"setup_s": 0.1, "import_s": 0.05}


def small_workloads(tmp_path):
    return [
        workloads.Fig1Compare(n=256),
        workloads.McLatticeD1(N=16, trials=2),
        workloads.BoundsCli(out_dir=tmp_path, trials=1),
    ]


def test_tracer_restores_every_wrapped_attribute():
    originals = {(module, attr): getattr(getattr(rgg_spectra, module), attr) for module, attr, _, _ in TARGETS}
    with pytest.raises(RuntimeError):
        with Tracer(rgg_spectra):
            for (module, attr), fn in originals.items():
                assert getattr(getattr(rgg_spectra, module), attr) is not fn
            raise RuntimeError("body fails")
    for (module, attr), fn in originals.items():
        assert getattr(getattr(rgg_spectra, module), attr) is fn, f"{module}.{attr} not restored"


def test_metric_names_are_well_formed_and_match_benchmark_json(tmp_path):
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in [*declared_e2e, *declared_layer, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert declared_layer == {name: unit for name, (unit, _) in PER_LAYER.items()}

    workload = workloads.Fig1Compare(n=256)
    ledger = run.Ledger()
    latencies = run.measure_for(workload, rgg_spectra, 1, 0.05, ledger)
    metrics, _ = run.end_to_end(workload, [SET_UP], latencies, ledger)
    assert {name: m["unit"] for name, m in metrics.items()} == declared_e2e

    (tmp_path / "cli").mkdir()
    for workload in small_workloads(tmp_path / "cli"):
        ledger = run.Ledger()
        metrics, _ = run.traced(workload, rgg_spectra, 0.0, 1, 0.05, ledger, tmp_path / "trace.json", {})
        assert {name: m["unit"] for name, m in metrics.items()} == declared_layer
        assert ledger.failed == 0
        assert json.loads((tmp_path / "trace.json").read_text())["spans"]
        if workload.name != "fig1-compare":  # probes are children of the matching span
            assert 0 < metrics["matching.match_self_s"]["value"] < metrics["matching.match_s"]["value"]


def test_traced_run_attributes_time_to_the_matching_layer():
    workload = workloads.McLatticeD1(N=16, trials=2)
    with Tracer(rgg_spectra) as tracer:
        with tracer.operation(0):
            workload.run(rgg_spectra, workloads.make_input(1, 0))
    names = Counter(span.name for span in tracer.spans)
    assert names["harness.trial"] == 2 and names["matching.match"] == 2
    assert names["matching.probe"] >= 2 and names["geometry.distance_matrix"] == 2


class WrongLevy(workloads.Fig1Compare):
    def run(self, pkg, inp):
        return dataclasses.replace(super().run(pkg, inp), levy=2.0)


class SinglePrecisionSpectrum(workloads.Fig1Compare):
    def run(self, pkg, inp):
        out = super().run(pkg, inp)
        rounded = out.esd_rgg.eigenvalues.astype(np.float32).astype(float)
        return dataclasses.replace(out, esd_rgg=pkg.spectra.Esd(rounded))


class WrongProbability(workloads.McLatticeD1):
    def run(self, pkg, inp):
        p_hat, stderr = super().run(pkg, inp)
        return p_hat + 0.25 / self.trials, stderr


class WrongBoundsFile(workloads.BoundsCli):
    def run(self, pkg, inp):
        out = super().run(pkg, inp)
        path = self.out_dir / "bounds.json"
        bounds = json.loads(path.read_text())
        path.write_text(json.dumps(dict(bounds, m_n_max=2 * bounds["m_n_max"])))
        return out


WRONG = {
    "levy": lambda out_dir: WrongLevy(n=256),
    "spectrum": lambda out_dir: SinglePrecisionSpectrum(n=256),
    "p_hat": lambda out_dir: WrongProbability(N=16, trials=2),
    "bounds-file": lambda out_dir: WrongBoundsFile(out_dir=out_dir, trials=1),
}


@pytest.mark.parametrize("wrong", WRONG)
def test_injected_wrong_output_counts_in_fail_rate(wrong, tmp_path):
    workload = WRONG[wrong](tmp_path)
    ledger = run.Ledger()
    run.measure_for(workload, rgg_spectra, 1, 0.05, ledger)
    assert ledger.attempted >= 1 and ledger.failed == ledger.attempted
    _, lines = run.end_to_end(workload, [SET_UP], [0.1] * ledger.attempted, ledger)
    assert any(line.startswith("fail_rate 1.0 ") for line in lines)


def test_bottleneck_certificate_rejects_a_suboptimal_value():
    workload = workloads.McLatticeD1(N=16, trials=2)
    trial, assignment, distances = workload.checked_trial(rgg_spectra, workloads.make_input(1, 0))
    assert workloads.bottleneck_problems(trial.m_n, assignment, distances) == []
    # Send row 0 to the column of the row half a torus away: still a
    # perfect matching, but with a larger bottleneck.
    worse = assignment.copy()
    worse[[0, 8]] = worse[[8, 0]]
    worse_m_n = distances[np.arange(16), worse].max()
    assert worse_m_n > trial.m_n
    problems = workloads.bottleneck_problems(worse_m_n, worse, distances)
    assert any("not the optimum" in problem for problem in problems)


def test_reference_mismatch_counts_as_failure():
    workload = workloads.McLatticeD1(N=16, trials=2)
    inp = workloads.make_input(workloads.DEFAULT_SEED, 0)
    p_hat, stderr = workload.run(rgg_spectra, inp)
    trial, _, _ = workload.checked_trial(rgg_spectra, inp)
    workload.reference = workloads.reference_values(p_hat, trial)
    assert workload.check(rgg_spectra, inp, (p_hat, stderr), Counter()) == []
    workload.reference = dict(workload.reference, m_n=trial.m_n + 1e-6)
    assert any("m_n" in problem for problem in workload.check(rgg_spectra, inp, (p_hat, stderr), Counter()))


def test_workload_seed_changes_generated_inputs(tmp_path):
    first = [workloads.make_input(1, i) for i in range(4)]
    assert first == [workloads.make_input(1, i) for i in range(4)]
    second = [workloads.make_input(2, i) for i in range(4)]
    assert all(a.seed != b.seed for a, b in zip(first, second))
    mc = workloads.McLatticeD1(N=16, trials=2)
    assert mc.config(rgg_spectra, first[0]).seed != mc.config(rgg_spectra, second[0]).seed
    cli = workloads.BoundsCli(out_dir=tmp_path)
    assert cli.argv(first[0]) != cli.argv(second[0])


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(40)])
    assert (value, percentile, beyond) == (29.0, 75.0, 10)
    assert run.tail([1.0, 2.0, 3.0])[2] == 1


def test_cold_set_up_runs_in_a_child_process(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    ledger = run.Ledger()
    (result,) = run.cold_set_ups("mc-lattice-d1", tmp_path, ledger)
    assert (ledger.attempted, ledger.failed) == (1, 0)
    assert 0 < result["import_s"] < result["setup_s"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, *BENCHMARK["command"][1:]]
    args = ["--workload", "fig1-compare", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command + args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
