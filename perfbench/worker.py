"""One workload in a fresh interpreter: warm-up, then the timed or traced phase.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Writes one
JSON result file; the program's own stdout goes to /dev/null and its stderr is
kept per job as the cause of a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from workloads import VERBS, WORKLOADS, CheckFailed, first_jobs, job_blocks

WARMUP_JOBS = 6
MIN_TIMED_JOBS = 100        # the 90th percentile keeps >= 10 samples above it
HARD_STOP_S = 120.0
# a job fails with an error (a raise or a non-zero exit) or with wrong output;
# only wrong output makes a run incorrect
ERROR = "error: "
WRONG = "wrong output: "
# traced runs measure a fixed job list, so work counts repeat exactly; its
# length is run_seconds times these rates, which keep both passes within it
TRACE_JOBS_PER_S = {"energy_map": 2.0, "floquet_gap": 3.0, "grid_tables": 2.5}


class Runner:
    def __init__(self, workload: str, workdir: Path):
        import modfesh.cli
        self.cli = modfesh.cli
        self.spec = WORKLOADS[workload]
        self.workdir = workdir
        self.tracer = None

    def run_job(self, params, job_id: int):
        """Returns (wall_s, cpu_s, cause or None, deferred record)."""
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        job = self.spec.job(params, self.workdir)
        for name, text in job.files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        cause = None
        if self.tracer is not None:
            self.tracer.job = job_id
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(err):
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            for argv in job.calls:
                try:
                    if self.tracer is None:
                        code = self.cli.run(argv)
                    else:
                        code = self.tracer.call(f"cli.{argv[0]}", self.cli.run, argv)
                except Exception as exc:   # a traceback breaks the exit-code contract
                    frames = traceback.extract_tb(exc.__traceback__)
                    where = ([f for f in frames if "modfesh" in Path(f.filename).parts]
                             or frames)[-1]
                    cause = (f"{ERROR}{argv[0]} raised {type(exc).__name__} in "
                             f"{Path(where.filename).name}:{where.lineno} {where.name}: {exc}")
                    break
                if code != 0:
                    last_line = (err.getvalue().strip().splitlines() or [""])[-1]
                    cause = f"{ERROR}{argv[0]} exit {code}: {last_line}"
                    break
            cpu = time.process_time() - cpu0
            wall = time.perf_counter() - wall0
        record = None
        if cause is None:
            try:
                record = job.check()
            except CheckFailed as exc:
                cause = f"{WRONG}{exc}"
            except (OSError, ValueError, KeyError, IndexError) as exc:
                cause = f"{WRONG}unreadable output: {type(exc).__name__}: {exc}"
        return wall, cpu, cause, record

    def run_list(self, params_list, first_id=0):
        return [self.run_job(p, first_id + i) for i, p in enumerate(params_list)]

    def settle(self, results):
        """Apply the deferred check; returns [(wall, cpu, cause)]."""
        settled = [(w, c, cause) for w, c, cause, _ in results]
        if self.spec.deferred is None:
            return settled
        pending = [i for i, r in enumerate(results) if r[2] is None and r[3] is not None]
        causes = self.spec.deferred([results[i][3] for i in pending])
        for i, cause in zip(pending, causes):
            if cause is not None:
                w, c, _ = settled[i]
                settled[i] = (w, c, WRONG + cause)
        return settled


def timed_phase(runner: Runner, workload: str, seed: int, seconds: float):
    """Whole blocks of jobs until both the time and the job floor are met."""
    results = []
    t0 = time.perf_counter()
    for block in job_blocks(workload, seed, "timed"):
        results += runner.run_list(block, len(results))
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and len(results) >= MIN_TIMED_JOBS) or elapsed >= HARD_STOP_S:
            return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()
    outdir = Path(args.outdir)
    runner = Runner(args.workload, outdir / "job")

    warm = runner.run_list(first_jobs(args.workload, args.seed, "warmup", WARMUP_JOBS))
    result = {"warmup_jobs": len(warm),
              "warmup_failures": [c for _, _, c, _ in warm if c is not None]}
    if not args.trace:
        jobs = timed_phase(runner, args.workload, args.seed, args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["jobs"] = runner.settle(jobs)
    else:
        from tracer import Tracer
        n = max(1, round(args.seconds * TRACE_JOBS_PER_S[args.workload]))
        job_list = first_jobs(args.workload, args.seed, "timed", n)
        untraced = runner.run_list(job_list)
        runner.tracer = tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_list(job_list)
        finally:
            tracer.uninstall()
        runner.tracer = None
        tracer.save(outdir / f"spans-{args.workload}.npz")
        result["layers"] = tracer.metrics(VERBS)
        result["spans"] = len(tracer.span_name)
        result["untraced_jobs"] = runner.settle(untraced)
        result["jobs"] = runner.settle(traced)
    shutil.rmtree(outdir / "job", ignore_errors=True)
    (outdir / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
