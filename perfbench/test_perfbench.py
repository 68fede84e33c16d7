"""Tests of the benchmark itself: inputs, metric names, checks and tracing."""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parents[1]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_inputs(seed=3) -> workloads.Inputs:
    """monte_carlo inputs cut to cheap jobs: its point jobs and two small simulations."""
    inputs = workloads.generate("monte_carlo", seed)
    jobs = [job for job in inputs.jobs if job.kind == "point"]
    for job in inputs.jobs:
        if job.name in ("power.simulate", "sym.simulate_pair"):
            args = list(job.args)
            args[args.index("--samples") + 1] = "4096"
            jobs.append(dataclasses.replace(job, args=tuple(args), samples=4096))
    return dataclasses.replace(inputs, jobs=tuple(jobs))


@pytest.fixture
def runner(tmp_path):
    return run.Runner(_small_inputs(), str(tmp_path))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_identical_inputs(workload, tmp_path):
    first, second = workloads.generate(workload, 7), workloads.generate(workload, 7)
    assert first == second
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    paths_a = first.write(str(tmp_path / "a"))
    paths_b = second.write(str(tmp_path / "b"))
    for key in paths_a:
        assert Path(paths_a[key]).read_bytes() == Path(paths_b[key]).read_bytes()
    other = workloads.generate(workload, 8)
    assert other.scenarios != first.scenarios
    assert [job.name for job in other.jobs] == [job.name for job in first.jobs]


def test_benchmark_json_names_are_unique_and_valid():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("trace", [False, True])
def test_every_printed_metric_is_declared(trace, monkeypatch):
    small = _small_inputs()
    monkeypatch.setattr(run.workloads, "generate", lambda workload, seed: small)
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    report, result = run.run("monte_carlo", 3, 0.0, trace)
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    assert report["fail_ratio"] == 0.0
    assert report["meta"]["reco_threads"] == str(run.MEASURE_THREADS)


def _corrupting(execute):
    """Wrap Runner.execute to shift the first float of every output record by 0.1."""

    def corrupt(job):
        latency, text = execute(job)
        data = json.loads(text)
        for row in data if isinstance(data, list) else [data]:
            key = next(k for k, v in row.items() if isinstance(v, float))
            row[key] += 0.1
        return latency, json.dumps(data)

    return corrupt


def test_corrupted_output_is_counted_as_failed(runner, monkeypatch, tmp_path_factory):
    jobs = list(_small_inputs().jobs)
    runner.run_pass(jobs)
    assert (runner.attempted, runner.failed) == (len(jobs), 0)
    monkeypatch.setattr(runner, "execute", _corrupting(runner.execute))
    runner.run_pass(jobs)  # differs from the first, checked, output
    assert runner.failed == len(jobs)

    fresh = run.Runner(_small_inputs(), str(tmp_path_factory.mktemp("fresh")))
    monkeypatch.setattr(fresh, "execute", _corrupting(fresh.execute))
    fresh.run_pass(jobs)  # first outputs, compared with the references
    assert fresh.failed == len(jobs)


def test_failed_exit_is_counted(runner):
    bad = workloads.Job("bad", "sweep", "power")  # sweep without --param exits 1
    runner.run_pass([bad])
    assert (runner.attempted, runner.failed) == (1, 1)


def _bindings():
    import recoval  # noqa: F401

    found = {}
    for name, module in list(sys.modules.items()):
        if name == "recoval" or name.startswith("recoval."):
            for attr, obj in vars(module).items():
                found[name, attr] = obj
                if inspect.isclass(obj):
                    for cattr, cobj in vars(obj).items():
                        found[name, attr, cattr] = cobj
    return found


def test_tracer_restores_every_binding(runner):
    import recoval
    from recoval import design

    before = _bindings()
    jobs = _small_inputs().jobs
    plain = [runner.execute(job)[1] for job in jobs]
    tracer = tracing.Tracer()
    with tracer:
        assert getattr(design.system_value, tracing.MARK, False)
        assert getattr(recoval.system_value, tracing.MARK, False)
        assert getattr(recoval.UniformTypes.cdf, tracing.MARK, False)
        traced = [runner.execute(job)[1] for job in jobs]
    assert traced == plain
    assert tracing.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["core.vbp_per_value"][0] == 8.0
    assert metrics["receiver.effects_per_value"][0] == 6.0
    assert metrics["montecarlo.blocks"][0] >= 2


def test_traced_counts_repeat(runner):
    jobs = _small_inputs().jobs
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            for job in jobs:
                runner.execute(job)
        counts.append({name: value for name, (value, unit) in
                       tracing.layer_metrics(tracer).items() if unit == "count"})
    assert counts[0] == counts[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte_carlo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
