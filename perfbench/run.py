"""Benchmark of recoval CLI jobs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analytic_design --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each job of the workload runs
in-process as ``recoval.cli.main([...])`` with ``--out`` pointed at a
scratch file, the next starting when the previous returns.  The job
list is repeated in whole passes until ``--seconds`` of job time and at
least ``MIN_JOBS`` jobs have been measured.  Every output is checked
(see ``checks.py``); a nonzero exit, an exception, a failed check or an
output that differs from the job's first output counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
untraced measurement, then runs one pass with spans installed around
every layer (``tracing.py``) and one pass of the simulate jobs with one
worker per usable core, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it is a report
with run metadata, sample counts and informational metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

TAIL_PERCENTILE = 95
MIN_JOBS = 200  # at least 10 jobs beyond the tail percentile
SETUP_REPEATS = 7
# Measured runs use one Monte Carlo worker: on a shared 2-vCPU host two
# workers' wall time, raw or scaled, spread 33% over ten runs, because a
# co-tenant on either vCPU stalls the pair; one worker's scaled time
# spread 1.4%.  The traced run measures thread scaling.
MEASURE_THREADS = 1


def _import_recoval():
    """Import recoval from this checkout's src/, or exit with status 2."""
    if not (SRC / "recoval" / "__init__.py").is_file():
        sys.stderr.write(f"error: no recoval sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import recoval

    if Path(recoval.__file__).resolve().parent != SRC / "recoval":
        sys.stderr.write(f"error: imported recoval from {recoval.__file__}, not {SRC}\n")
        sys.exit(2)
    return recoval


class Calibration:
    """Current machine speed, from fixed kernels that run no recoval code.

    On a shared host, load from other tenants slows interpreted code by
    up to 2x for seconds to minutes at a time.  Each job's latency is
    therefore also reported scaled by ``NOMINAL / measured`` for a
    kernel resembling the job's work, timed just before each job of
    that kind; ``measured`` is the median over the job and its nearest
    same-kind neighbours.  Most jobs are recoval's scalar per-threshold
    code, matched by a loop of Python arithmetic and numpy scalar calls;
    simulate jobs are array work, matched by Monte Carlo-like blocks.
    Scaled latencies read as the time the job takes where the kernels
    take their nominal time.
    """

    NOMINAL = {"scalar": 2e-3, "vector": 20e-3}
    WINDOW = 2  # same-kind samples on each side of a job

    def __init__(self):
        import numpy as np

        self._np = np
        self._xs = np.linspace(-0.5, 0.5, 9)
        self._fs = np.linspace(0.0, 1.0, 9) ** 1.3

    def _scalar(self):
        clip, acc = self._np.clip, 0.0
        for k in range(500):
            x = (k % 97) / 97.0 - 0.5
            acc += float(clip(x + 0.5, 0.0, 1.0)) ** 1.7
        return acc

    def _vector(self):
        np, acc = self._np, 0.0
        for index in range(4):
            rng = np.random.Generator(np.random.Philox(key=7).jumped(index))
            u = rng.random((2, 1 << 16))
            a = np.interp(u[0], self._fs, self._xs)
            acc += float(np.where(u[1] < 0.5, a * a, -a).sum())
        return acc

    @staticmethod
    def kind(job) -> str:
        return "vector" if job.kind == "simulate" else "scalar"

    def time(self, kind) -> float:
        kernel = self._scalar if kind == "scalar" else self._vector
        start = perf_counter()
        kernel()
        return perf_counter() - start

    def scale(self, jobs, latencies, kernel) -> list:
        """Scaled latencies; ``kernel[i]`` is the kernel time taken before job i."""
        kinds = [self.kind(job) for job in jobs]
        out = []
        for i, (kind, latency) in enumerate(zip(kinds, latencies)):
            same = [t for t, k in zip(kernel, kinds) if k == kind]
            at = sum(1 for k in kinds[:i] if k == kind)
            window = same[max(0, at - self.WINDOW): at + self.WINDOW + 1]
            out.append(latency * self.NOMINAL[kind] / statistics.median(window))
        return out


class Runner:
    """Runs jobs in-process and keeps the failure tally."""

    def __init__(self, inputs: workloads.Inputs, workdir: str):
        from recoval import cli

        from perfbench.checks import Checker

        self.calibration = Calibration()
        self._main = cli.main
        self.paths = inputs.write(workdir)
        self.out = os.path.join(workdir, "out.txt")
        self.checker = Checker(inputs)
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def execute(self, job: workloads.Job):
        """Run one job; return (latency in s, output text or None)."""
        argv = [job.cli, "--scenario", self.paths[job.scenario], *job.args, "--out", self.out]
        if os.path.exists(self.out):
            os.remove(self.out)
        start = perf_counter()
        try:
            code = self._main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback escaping the CLI is a failed job
            code = f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        if code != 0:
            self.errors.append(f"{job.name}: exit {code}")
            return latency, None
        with open(self.out, encoding="utf-8") as fh:
            return latency, fh.read()

    def run_pass(self, jobs) -> list:
        """Run the jobs once, check every output; return [(job, raw, scaled)].

        raw is the job's wall time, scaled the same time at the
        calibration kernels' nominal speed (see ``Calibration``).
        """
        kernel, results = [], []
        for job in jobs:
            kernel.append(self.calibration.time(Calibration.kind(job)))
            results.append((job, *self.execute(job)))
        # optimize outputs are compared with the R sweeps of the same pass
        for job, _, text in sorted(results, key=lambda r: r[0].kind == "optimize"):
            self.verify(job, text)
        raw = [latency for _, latency, _ in results]
        scaled = self.calibration.scale(jobs, raw, kernel)
        return list(zip(jobs, raw, scaled))

    def verify(self, job, text) -> bool:
        self.attempted += 1
        error = None
        if text is None:
            error = f"{job.name}: no output"
        elif job.name in self.first:
            if text != self.first[job.name]:
                error = f"{job.name}: output differs from its first run"
        else:
            error = self.checker.check(job, text)
            if error is None:
                self.first[job.name] = text
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        return error is None


def measure(runner: Runner, jobs, seconds: float) -> list:
    """Whole passes until ``seconds`` of job time and MIN_JOBS jobs."""
    for job in jobs:  # warm-up: first-call imports and caches, not counted
        if job.kind == "point":
            runner.execute(job)
    samples, elapsed = [], 0.0
    while elapsed < seconds or len(samples) < MIN_JOBS:
        done = runner.run_pass(jobs)
        samples += done
        elapsed += sum(raw for _, raw, _ in done)
    return samples


def summarize(samples) -> dict:
    """Latency and throughput figures from [(job, latency)].

    Returns name -> {value, unit, samples, ...}.  Throughputs use each
    job's median latency over the passes, so that a burst of machine
    noise during a minority of passes does not move them.
    """
    latencies = [latency for _, latency in samples]
    by_kind: dict = {}
    by_job: dict = {}
    for job, latency in samples:
        by_kind.setdefault(job.kind, []).append(latency)
        by_job.setdefault(job, []).append(latency)
    typical = {job: statistics.median(times) for job, times in by_job.items()}
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    out = {
        "jobs_per_s": {"value": len(typical) / sum(typical.values()), "unit": "1/s",
                       "samples": len(latencies)},
        "job_tail_ms": {"value": 1e3 * tail, "unit": "ms", "samples": len(latencies),
                        "percentile": TAIL_PERCENTILE},
    }
    for kind in ("point", "sweep", "optimize", "region_map", "simulate"):
        if kind in by_kind:
            out[f"{kind}_p50_ms"] = {"value": 1e3 * statistics.median(by_kind[kind]),
                                     "unit": "ms", "samples": len(by_kind[kind])}
    simulate = {job: t for job, t in typical.items() if job.kind == "simulate"}
    if simulate:
        out["mc_samples_per_s"] = {
            "value": sum(job.samples for job in simulate) / sum(simulate.values()),
            "unit": "1/s", "samples": len(by_kind["simulate"])}
    return out


def setup_times(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters that import recoval and generate inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return times


def setup_probe(workload: str, seed: int):
    _import_recoval()
    workdir = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        workloads.generate(workload, seed).write(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_pass(runner: Runner, jobs) -> tuple[dict, float]:
    """One pass with spans installed; (layer metrics, jobs per second)."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    with tracer:
        done = runner.run_pass(jobs)
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers installed: {leftover}")
    rate = len(done) / sum(scaled for _, _, scaled in done)
    return tracing.layer_metrics(tracer), rate


def threaded_rate(runner: Runner, jobs, threads: int) -> float:
    """Raw simulate throughput (samples/s) at ``threads`` workers; 0 without simulate jobs."""
    simulate = [job for job in jobs if job.kind == "simulate"]
    if not simulate:
        return 0.0
    os.environ["RECO_THREADS"] = str(threads)
    try:
        done = runner.run_pass(simulate)
    finally:
        os.environ["RECO_THREADS"] = str(MEASURE_THREADS)
    return sum(job.samples for job, _, _ in done) / sum(raw for _, raw, _ in done)


def trace_figures(runner: Runner, jobs, untraced: dict, raw: dict) -> dict:
    """Per-layer metrics, tracing overhead and Monte Carlo thread scaling."""
    layers, traced_rate = traced_pass(runner, jobs)
    figures = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    figures["trace.overhead"] = {
        "value": untraced["jobs_per_s"]["value"] / traced_rate, "unit": "ratio"}
    rate_1t = raw.get("mc_samples_per_s", {"value": 0.0})["value"]
    rate = threaded_rate(runner, jobs, len(os.sched_getaffinity(0)))
    figures["montecarlo.samples_per_s_1t"] = {"value": rate_1t, "unit": "1/s"}
    figures["montecarlo.thread_speedup"] = {
        "value": rate / rate_1t if rate_1t else 0.0, "unit": "ratio"}
    return figures


def metadata(workload: str, seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = {}
    for path in sorted((SRC / "recoval").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.name] = sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reco_threads": os.environ["RECO_THREADS"],
        "commit": git_commit(),
        "src_lines": {"total": sum(lines.values()), "files": lines},
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared(trace: bool) -> list:
    """Metric names BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (report, result)."""
    os.environ["RECO_THREADS"] = str(MEASURE_THREADS)
    setup = [] if trace else setup_times(workload, seed)
    inputs = workloads.generate(workload, seed)
    workdir = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        runner = Runner(inputs, workdir)
        samples = measure(runner, inputs.jobs, seconds)
        raw = summarize([(job, latency) for job, latency, _ in samples])
        figures = summarize([(job, scaled) for job, _, scaled in samples])
        if trace:
            figures = trace_figures(runner, inputs.jobs, figures, raw)
        else:
            figures["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                                  "samples": len(setup)}
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            figures["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB", "samples": 1}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "meta": metadata(workload, seed),
        "trace": int(trace),
        "fail_ratio": runner.failed / runner.attempted,
        "errors": runner.errors[:20],
        "metrics": figures,
        "raw_metrics": raw,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": figures[name]["value"], "unit": figures[name]["unit"]}
                    for name in declared(trace)},
    }
    return report, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _import_recoval()
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in report["errors"]:
        sys.stderr.write(f"failed: {error}\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
