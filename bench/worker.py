"""One workload's closed loop, run in a process of its own.

A single client runs one job after another until the next job would take
the jobs past ``--seconds`` of job time (at least one job runs, so
``--seconds 0`` gives exactly one).  A job of the workload runs each of its
jobs from ``jobs.py`` in turn.  Each job is timed in wall and CPU time of
this process, so helper threads that burn a core show in ``job_cpu_s``.
``peak_rss_mb`` is the process's peak resident memory once its first job
has ended, so it does not depend on how many jobs fit in the run.  With
``--trace 1`` every measured job records spans; ``--interleave`` runs an
untraced job before each traced one, as the reference for the tracing
overhead; it counts against ``--seconds`` like the traced one.
A traced run also reports ``span_cost_s``, the measured cost of one span
times the spans of a traced job: the part of the tracing overhead that is too
small to show in traced minus untraced job time.

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jobs import JOBS, PARAMS, WORKLOADS  # noqa: E402

REF_ABS_TOL = 1e-9  # log-domain floats; exact values compare equal
SPAN_COST_SAMPLES = 10_000


class Tracer:
    """Spans kept in memory: name, start, end (wall and CPU), parent, job."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "job": self.job,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "cpu_start": time.process_time()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            self._stack.pop()


class JobContext:
    """What a job sees: spans, output checks, the seed and a scratch dir."""

    def __init__(self, index, tracer, seed, reference, record, out_root):
        self.index = index
        self.tracer = tracer
        self.seed = seed
        self.reference = reference
        self.record = record
        self.out_root = out_root
        self.checks = []
        self.recorded = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def check(self, name: str, ok) -> None:
        self.checks.append([name, bool(ok)])

    def ref_float(self, name: str, value) -> None:
        value = float(value)
        if self.record:
            self.recorded[name] = value
            return
        ref = self.reference.get(name)
        self.check("ref." + name, isinstance(ref, (int, float)) and math.isfinite(value)
                   and abs(value - ref) <= REF_ABS_TOL)

    def ref_exact(self, name: str, value) -> None:
        value = json.loads(json.dumps(value))
        if self.record:
            self.recorded[name] = value
            return
        self.check("ref." + name, name in self.reference and self.reference[name] == value)

    def job_dir(self) -> Path:
        path = self.out_root / f"job{self.index}"
        path.mkdir(parents=True, exist_ok=True)
        return path


def span_cost_s(spans_per_job: float) -> float:
    """Wall time a traced job spends in its spans' own bookkeeping, from
    timing empty spans on a scratch tracer."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t0) / SPAN_COST_SAMPLES * spans_per_job


def library_versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def run_job(args, index, tracer, reference) -> dict:
    """One job of the workload: each of its jobs in turn, in one span."""
    seed = args.seed % 2**32  # numpy seeds must be non-negative
    if tracer:
        tracer.job = index
    counts, checks, recorded = Counter(), [], {}
    w0, c0 = time.perf_counter(), time.process_time()
    with tracer.span("job") if tracer else nullcontext():
        for name in WORKLOADS[args.workload]:
            ctx = JobContext(index, tracer, seed, reference.get(name, {}), args.record,
                             Path(args.out))
            try:
                counts.update(JOBS[name](ctx, PARAMS[args.scale][name]))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ctx.check("job.completed", False)
            checks += [[f"{name}.{check}", ok] for check, ok in ctx.checks]
            recorded[name] = ctx.recorded
    return {"index": index, "traced": tracer is not None,
            "job_s": time.perf_counter() - w0, "job_cpu_s": time.process_time() - c0,
            "counts": dict(counts), "checks": checks, "recorded": recorded}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(PARAMS), default="full")
    ap.add_argument("--interleave", action="store_true",
                    help="with --trace 1, run an untraced job before each traced one")
    ap.add_argument("--reference", required=True, help="reference values JSON")
    ap.add_argument("--record", action="store_true",
                    help="record reference values instead of checking them")
    ap.add_argument("--out", required=True, help="scratch directory for job outputs")
    args = ap.parse_args(argv)

    reference = {}
    if not args.record:
        reference = json.loads(Path(args.reference).read_text())[args.scale]
    tracer = Tracer() if args.trace else None
    jobs, rounds = [], []  # a round: the traced job and the untraced one before it
    peak_kb = None
    while True:
        first = len(jobs)
        if args.trace and args.interleave:
            jobs.append(run_job(args, len(jobs), None, reference))
        jobs.append(run_job(args, len(jobs), tracer, reference))
        if peak_kb is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds.append(sum(j["job_s"] for j in jobs[first:]))
        if sum(rounds) + statistics.median(rounds) > args.seconds:
            break
    spans = tracer.spans if tracer else []
    print(json.dumps({"jobs": jobs, "spans": spans,
                      "span_cost_s": span_cost_s(len(spans) / len(rounds)) if tracer else 0.0,
                      "peak_rss_mb": peak_kb * 1024 / 1e6, "env": library_versions()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
