"""modfesh benchmark: closed-loop CLI jobs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload energy_map --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a modfesh checkout; the program is imported from its
src/.  One client runs one job at a time (a closed loop) in a fresh child
interpreter per workload, through modfesh.cli.run(argv) in-process, and checks
every job's output against references independent of modfesh.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
metrics from a separate traced run.  A report goes to stdout, with one JSON
object as its last line; the full record, spans included, goes to
perfbench/out/.  See perfbench/DESIGN.md for why the workloads and metrics
are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("energy_map", "floquet_gap", "grid_tables")
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0
# one BLAS thread: with two, OpenBLAS threads spin and, on a busy two-core
# host, an eigh call ran about 15x slower; cpu_per_job_ms shows any thread a
# change adds
BLAS_THREADS = 1
# printed beside the bounded metrics: wall-clock figures include the time the
# hypervisor steals from this virtual CPU, which cost single 200 ms jobs up to
# 150 ms on the reference host and raised the 10-run spread of job_p90_ms to 0.44
WALL_METRICS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                "fail_ratio": "1"}

# a fresh interpreter's set-up: import modfesh and its CLI, build the parser
PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import modfesh, modfesh.cli
modfesh.cli.build_parser()
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "numpy_s": t1 - t0, "modfesh_s": t2 - t1,
                  "file": modfesh.__file__}))
"""

# environment record of the worker, printed by the same interpreter set-up
ENV_PROBE = """\
import ctypes, glob, json, os, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "*openblas*"))
for lib in libs:
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        try:
            threads = int(getattr(ctypes.CDLL(lib), symbol)())
            break
        except (OSError, AttributeError):
            pass
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas_name": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_threads": threads}))
"""


class BenchError(Exception):
    pass


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_child(args, env, timeout):
    proc = subprocess.run(args, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(env, deadline):
    probes = []
    for _ in range(SETUP_PROBES):
        out = run_child([sys.executable, "-c", PROBE], env, max(1.0, deadline - time.monotonic()))
        probe = json.loads(out.splitlines()[-1])
        if Path(probe["file"]).resolve().parent != (ROOT / "src" / "modfesh").resolve():
            raise BenchError(f"imported modfesh from {probe['file']}, not from src/")
        probes.append(probe)
    return {key: statistics.median(p[key] for p in probes)
            for key in ("setup_s", "numpy_s", "modfesh_s")}


def quantile(values, q):
    ordered = sorted(values)
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1] \
        if len(ordered) > 1 else ordered[0]


def end_to_end(worker, setup):
    jobs = worker["jobs"]
    walls = [w for w, _, _ in jobs]
    cpus = [c for _, c, _ in jobs]
    ok = sum(1 for _, _, cause in jobs if cause is None)
    cpu_p90 = quantile(cpus, 90)
    return {
        "setup_s": setup["setup_s"],
        "job_cpu_p50_ms": statistics.median(cpus) * 1e3,
        "job_cpu_p90_ms": cpu_p90 * 1e3,
        "cpu_per_job_ms": statistics.fmean(cpus) * 1e3,
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "verified_ratio": ok / len(jobs),
        "jobs_per_s": ok / sum(walls),
        "job_p50_ms": statistics.median(walls) * 1e3,
        "job_p90_ms": quantile(walls, 90) * 1e3,
        "fail_ratio": (len(jobs) - ok) / len(jobs),
    }, {"jobs": len(jobs), "beyond_p90": sum(1 for c in cpus if c > cpu_p90),
        "setup_probes": SETUP_PROBES}


def sample_count(name, samples):
    if name in ("setup_s", "import.modfesh_s", "import.numpy_s"):
        return SETUP_PROBES
    return 1 if name == "peak_rss_mb" else samples["jobs"]


def per_layer(worker, setup):
    metrics = dict(worker["layers"])
    metrics["import.modfesh_s"] = setup["modfesh_s"]
    metrics["import.numpy_s"] = setup["numpy_s"]
    traced = worker["jobs"]
    untraced = worker["untraced_jobs"]
    traced_rate = len(traced) / sum(w for w, _, _ in traced)
    untraced_rate = len(untraced) / sum(w for w, _, _ in untraced)
    metrics["trace.jobs"] = len(traced)
    metrics["trace.jobs_per_s"] = traced_rate
    metrics["trace.untraced_jobs_per_s"] = untraced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    return metrics, {"jobs": len(traced), "untraced_jobs": len(untraced),
                     "spans": worker["spans"]}


def run_workload(workload, seed, seconds, trace, spec):
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(BLAS_THREADS)
    OUT.mkdir(exist_ok=True)
    setup = measure_setup(env, deadline)
    environment = json.loads(run_child([sys.executable, "-c", ENV_PROBE], env, 60).splitlines()[-1])
    outdir = OUT / workload
    outdir.mkdir(exist_ok=True)
    (outdir / "worker.json").unlink(missing_ok=True)
    run_child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
               "--outdir", str(outdir)], env, max(1.0, deadline - time.monotonic()))
    worker = json.loads((outdir / "worker.json").read_text())
    environment.update(nproc=len(os.sched_getaffinity(0)), commit=git_commit(),
                       seed=seed, seconds=seconds, trace=trace,
                       warmup_jobs=worker["warmup_jobs"], machine=platform.machine())
    if trace:
        metrics, counts = per_layer(worker, setup)
        jobs = worker["jobs"] + worker["untraced_jobs"]
        wanted = spec["per_layer"]
    else:
        metrics, counts = end_to_end(worker, setup)
        jobs = worker["jobs"]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    causes = {}
    for _, _, cause in jobs:
        if cause is not None:
            causes[cause] = causes.get(cause, 0) + 1
    result = {
        "correct": not any(cause.startswith("wrong output") for cause in causes),
        "attempted": len(jobs),
        "failed": sum(causes.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    wall = {name: {"value": metrics[name], "unit": unit}
            for name, unit in WALL_METRICS.items() if name in metrics}
    record = dict(result, workload=workload, environment=environment, samples=counts,
                  wall_metrics=wall, failure_causes=causes,
                  warmup_failures=worker["warmup_failures"])
    (OUT / f"result-{workload}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result, record


def print_report(record):
    env = record["environment"]
    print(f"== {record['workload']}  seed {env['seed']}  trace {env['trace']}  "
          f"commit {env['commit'][:12]}")
    print(f"   nproc {env['nproc']}, {env['blas_name']} {env['blas_version']} "
          f"({env['blas_threads']} threads), python {env['python']}, numpy {env['numpy']}, "
          f"warm-up {env['warmup_jobs']} jobs")
    print(f"   samples: {json.dumps(record['samples'])}")
    for name, m in list(record["metrics"].items()) + list(record["wall_metrics"].items()):
        n = sample_count(name, record["samples"])
        print(f"   {name:44s} {m['value']:>16.6g} {m['unit']:6s} n={n}")
    print(f"   attempted {record['attempted']}, failed {record['failed']}")
    for cause, count in sorted(record["failure_causes"].items()):
        print(f"   failed x{count}: {cause}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "modfesh" / "__init__.py").is_file():
        print(f"error: no modfesh sources at {ROOT / 'src' / 'modfesh'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], record = run_workload(name, args.seed, args.seconds, args.trace, spec)
            print_report(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
