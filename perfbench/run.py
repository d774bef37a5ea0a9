#!/usr/bin/env python3
"""Benchmark of the subplanck package on three seeded workloads.

    python3 perfbench/run.py --workload phase_space --seed 1 --seconds 31 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and exits 2, printing no result, when that is missing.
One run builds the workload's jobs from the seed, measures set-up in fresh
interpreters, then makes a fixed number of passes over the job list (PASSES).
The count does not follow the host's speed, so the median and the tail rank
always fall on the same kind of job; see NOTES.md for which.  ``--seconds`` is
accepted, as the benchmark command passes it, and only recorded.  Each job's
output is checked against an independent reference after its pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones (see tracing.py).  Every run writes a record with the
environment, per-job timings, failures and output digests under
``.perfbench/records/`` in the checkout, and the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See NOTES.md for the workloads, the metrics and the known defect.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is first imported, here and in the child processes
    os.environ[_var] = str(NPROC)

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("phase_space", "fringe_readout", "jc_oracle")
PASSES = {"phase_space": 4, "fringe_readout": 16, "jc_oracle": 16}
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_CODE = """
import sys
import subplanck.cli
import workloads
workloads.build(sys.argv[1], int(sys.argv[2]))
"""


@dataclass
class JobRun:
    name: str
    seconds: float
    raw: object
    raised: BaseException | None
    stdout: str
    stderr: str
    quad_errors: list
    warnings: int
    failure: str | None = None
    outputs: dict | None = None
    digests: dict = field(default_factory=dict)


@dataclass
class Pass:
    index: int
    traced: bool
    wall: float
    rss_mb: float
    runs: list
    layers: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import subplanck.cli and build
    the workload's inputs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, workload, str(seed)], env=child_env(),
                       cwd=ROOT, check=True, timeout=120)
        samples.append(perf_counter() - start)
    return samples


def import_times() -> dict:
    """Median cumulative import time of subplanck.cli, and of the scipy
    packages it pulls in, from ``python -X importtime``."""
    cli, scipy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import subplanck.cli"], env=child_env(),
                              cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
        total_scipy, stack = 0.0, []
        for depth, name, cumulative in reversed(rows):  # parents precede children
            while stack and stack[-1][0] >= depth:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(s for _, s in stack):
                total_scipy += cumulative
            stack.append((depth, is_scipy))
        cli.append(sum(c for _, name, c in rows if name == "subplanck.cli"))
        scipy.append(total_scipy)
    return {"setup.import_s": statistics.median(cli), "setup.import_scipy_s": statistics.median(scipy)}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def evaluate(job, run: JobRun) -> None:
    """Collect, check and hash one job's output, then delete its files.
    A failure is recorded on the run; it never stops the benchmark."""
    if run.raised is not None:
        run.failure = f"raised {type(run.raised).__name__}: {run.raised}"
    else:
        try:
            run.outputs = job.collect(run.raw, run.stdout, run.quad_errors)
            check_outputs(job, run.outputs)
        except workloads.CheckFailed as exc:
            run.failure = f"check: {exc}"
        except Exception:
            run.failure = "check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
    for name in job.files:
        path = Path(name)
        if path.exists():
            run.digests[name] = sha256_file(path)
            path.unlink()
    run.raw = None


def check_outputs(job, outputs: dict) -> None:
    workloads.check_finite(outputs)
    job.check(outputs)


def run_pass(jobs, index: int, probe, tracer) -> Pass:
    runs = []
    if tracer is not None:
        tracer.counts.clear()
        first_span = len(tracer.spans)
        tracer.install()
    pass_start = perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        probe.errors = []
        call = job.run
        if tracer is not None:
            tracer.job = f"{index}:{job.name}"
            call = tracer.span(job.run, "job", "bench")
        raw, raised = None, None
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                raw = call()
            except (Exception, SystemExit) as exc:
                raised = exc
            seconds = perf_counter() - start
        runs.append(JobRun(job.name, seconds, raw, raised, out.getvalue(), err.getvalue(), probe.errors, len(caught)))
    wall = perf_counter() - pass_start
    rss_mb = peak_rss_mb()  # before the checks below load their own arrays
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracing.layer_totals(tracer.spans[first_span:]), tracer.counts)
    for job, run in zip(jobs, runs):
        evaluate(job, run)
    return Pass(index, tracer is not None, wall, rss_mb, runs, layers)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, counts) -> dict:
    def get(group, key):
        return totals.get(group, {}).get(key, 0)

    m = {}
    for group in ("wigner.field", "wigner.overlap", "cli", "states", "metrology.sweep", "protocol.closed_form",
                  "protocol.generic", "protocol.jc", "estimation.trials"):
        m[f"{group}.calls"] = get(group, "calls")
        m[f"{group}.self_s"] = get(group, "self_s")
    for group in ("metrology.first_zero", "estimation.invert"):
        m[f"{group}.self_s"] = get(group, "self_s")
    for key in ("wigner.field.term_points", "cli.bytes_written", "states.gram_entries", "states.fock_coeffs",
                "metrology.sweep.points", "protocol.jc.fock_dim", "estimation.shots"):
        m[key] = counts.get(key, 0)
    m["wigner.field.ns_per_term_point"] = _ratio(m["wigner.field.self_s"] * 1e9, m["wigner.field.term_points"])
    m["cli.ns_per_byte"] = _ratio(m["cli.self_s"] * 1e9, m["cli.bytes_written"])
    m["estimation.ns_per_shot"] = _ratio(m["estimation.trials.self_s"] * 1e9, m["estimation.shots"])
    return m


def self_test(jobs, last: Pass) -> dict:
    """Re-check the last pass's outputs, then again with one NaN injected
    into the first job that passed: exactly one more job must fail."""
    checked = [(job, run) for job, run in zip(jobs, last.runs) if run.outputs is not None]

    def failures(corrupt_name=None):
        count = 0
        for job, run in checked:
            outputs = workloads.inject_nan(run.outputs) if job.name == corrupt_name else run.outputs
            try:
                check_outputs(job, outputs)
            except Exception:
                count += 1
        return count

    target = next((run.name for job, run in checked if run.failure is None), None)
    if target is None:
        return {"ok": False, "reason": "no job passed its check"}
    before, after = failures(), failures(target)
    return {"ok": after == before + 1, "job": target, "failed_before": before, "failed_after": after}


def environment(seed: int, jobs) -> dict:
    import numpy
    import scipy

    spec = json.dumps([{"name": j.name, **j.spec} for j in jobs], sort_keys=True)
    return {
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "inputs_sha256": hashlib.sha256(spec.encode()).hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(times: list[float]) -> dict:
    """Highest sample with at least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / len(ordered),
            "samples": len(ordered), "beyond": len(ordered) - index - 1}


def import_package():
    sys.path.insert(0, str(SRC))
    import subplanck

    if Path(subplanck.__file__).resolve().parent != (SRC / "subplanck").resolve():
        raise ImportError(f"subplanck imported from {subplanck.__file__}, not from {SRC}")
    for layer in ("states", "wigner", "metrology", "protocol", "estimation", "cli"):
        __import__(f"subplanck.{layer}")


def run_workload(args) -> dict:
    import_package()
    jobs = workloads.build(args.workload, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed, jobs)}
    if args.trace:
        record["import_times"] = import_times()
    else:
        record["setup_samples_s"] = measure_setup(args.workload, args.seed)

    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    probe = workloads.OverlapErrorProbe(sys.modules["subplanck.wigner"])
    tracer = tracing.Tracer() if args.trace else None
    passes: list[Pass] = []
    os.chdir(workdir)
    probe.install()
    try:
        for index in range(PASSES[args.workload]):
            traced = tracer is not None and index % 2 == 1
            passes.append(run_pass(jobs, index, probe, tracer if traced else None))
            if index > 0:  # only the last pass's outputs are kept, for the self-test
                for run in passes[-2].runs:
                    run.outputs = None
        checks = self_test(jobs, passes[-1])
    finally:
        probe.uninstall()
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [(p, r) for p in passes for r in p.runs]
    failed = [(p, r) for p, r in runs if r.failure is not None]
    unexpected = sorted({r.name for _, r in failed} - {j.name for j in jobs if j.known_defect})
    record["jobs"] = {
        job.name: {
            "times_s": [r.seconds for p, r in runs if r.name == job.name],
            "failures": [{"pass": p.index, "reason": r.failure} for p, r in failed if r.name == job.name],
            "sha256": passes[-1].runs[i].digests,
            "sha256_same_every_pass": all(p.runs[i].digests == passes[-1].runs[i].digests for p in passes),
            "warnings": sum(p.runs[i].warnings for p in passes),
            "stderr": passes[-1].runs[i].stderr[-500:],
            "known_defect": job.known_defect,
        }
        for i, job in enumerate(jobs)
    }
    record["passes"] = [{"index": p.index, "traced": p.traced, "wall_s": p.wall, "rss_mb": p.rss_mb} for p in passes]
    record["self_test"] = checks
    record["attempted"], record["failed"] = len(runs), len(failed)
    record["unexpected_failures"] = unexpected
    record["correct"] = checks["ok"] and not unexpected

    if tracer is None:
        times = [r.seconds for _, r in runs]
        record["job_tail"] = tail(times)
        metrics = {
            "setup_s": statistics.median(record["setup_samples_s"]),
            "wall_s": statistics.median(p.wall for p in passes),
            "job_p50_s": statistics.median_low(times),  # a job's own time, not the mean of two kinds of job
            "job_tail_s": record["job_tail"]["value"],
            "peak_rss_mb": passes[0].rss_mb,
        }
        units = E2E_UNITS
    else:
        traced = [p for p in passes if p.traced]
        metrics = {key: statistics.median_low(p.layers[key] for p in traced) for key in traced[0].layers}
        metrics.update(record["import_times"])
        metrics["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                          / statistics.median(p.wall for p in passes if not p.traced) - 1.0)
        metrics["failed_frac"] = len(failed) / len(runs)
        units = LAYER_UNITS
        record["spans"] = f"{OUT.name}/records/{stem(record)}.spans.csv.gz"
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record["failed_frac"] = len(failed) / len(runs)
    record["rss_whole_run_mb"] = peak_rss_mb()

    (OUT / "records").mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(ROOT / record["spans"])
    (OUT / "records" / f"{stem(record)}.json").write_text(json.dumps(record, indent=1, default=str))
    report(record)
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def stem(record: dict) -> str:
    return f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"


def report(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])} jobs={record['attempted']} failed={record['failed']}")
    for name, metric in record["metrics"].items():
        note = ""
        if name == "job_tail_s":
            t = record["job_tail"]
            note = f"  (p{t['percentile']:.1f} of {t['samples']} jobs, {t['beyond']} beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_samples_s'])} fresh interpreters)"
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    if "failed_frac" not in record["metrics"]:
        print(f"  {'failed_frac':34s} {record['failed_frac']:.6g} ratio  ({record['failed']} of {record['attempted']})")
    for name, job in record["jobs"].items():
        for failure in job["failures"][:1]:
            tag = "known defect" if job["known_defect"] else "FAILED"
            print(f"  {tag}: {name}: {failure['reason']}")
    print(f"  self-test (injected NaN fails exactly one more job): {'ok' if record['self_test']['ok'] else 'FAILED'}")
    print(f"  record: {OUT.name}/records/{stem(record)}.json")


def run_all(args) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.rstrip("\n").splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="recorded only; each workload makes a fixed number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subplanck" / "__init__.py").is_file():
        print(f"error: no subplanck package under {SRC}; run from a subplanck checkout", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
