"""Benchmark of the carleman toolkit: four paper jobs in two workloads, end to
end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the toolkit is imported from
``src/``.  Each workload is a closed loop: one client in a worker process of
its own (``worker.py``) runs one complete, output-checked job after another.
A job of ``evolve-sweep-d2`` runs the paper jobs ``evolve-d2`` and
``sweep-d2`` in turn, one of ``exact-z2-d1-suite`` runs ``exact-z2`` and
``d1-suite`` (``jobs.py``).  No thread variables are set, so numpy's BLAS and
the toolkit's thread pool use their defaults.

``--trace 0`` reports the end-to-end metrics:

    setup_s      median wall time of a fresh interpreter running
                 ``import carleman.cli`` (one discarded warm-up, then 5 timed)
    job_s        median wall time of one job
    job_cpu_s    median user+sys CPU time of one job (all threads)
    peak_rss_mb  peak resident memory of the worker process through its first job
    pass_frac    passed output checks / attempted output checks

``--trace 1`` runs traced jobs, each after an untraced one, and reports the
per-layer metrics: span times around each library call (medians over the
traced jobs), the exact work counts (summed over a workload's paper jobs),
layer self times, the import-time split
from ``-X importtime``, and the tracing overhead two ways:
``trace.overhead_s`` is the median of traced minus untraced ``job_s`` over
those pairs (within job-to-job noise, so it may come out negative), and
``trace.span_cost_s`` the measured cost of the spans themselves.  On
``evolve-sweep-d2`` it adds one traced job in a worker with a single BLAS
thread, the plain single-thread baseline.
Every per-layer metric is reported on every workload, so layers a workload
does not call report 0.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  A full record (the
environment, every job, every span) goes to ``bench/out/results/``.

``--record-reference`` re-records ``bench/reference.json`` from the current
code; the reference values are the output gate, so record them only at a
commit whose results are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("evolve-sweep-d2", "exact-z2-d1-suite")  # as in jobs.py
BASELINE_WORKLOAD = "evolve-sweep-d2"
SCALES = ("full", "tiny")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
LAYERS = ("evolution", "fieldio", "experiments", "counterexample", "operators", "bessel")
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "CARLEMAN_THREADS": "1"}


class BenchError(Exception):
    pass


def _child_env(extra=None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def _run(cmd, timeout, env=None) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env or _child_env(), capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {e.timeout:.0f} s: {' '.join(cmd[:4])}")


# --- set-up ------------------------------------------------------------------


def measure_setup(deadline: float) -> list:
    """Wall times of fresh interpreters importing carleman.cli; the first
    (which may compile bytecode) is discarded."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-c", "import carleman.cli"], deadline - time.perf_counter())
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("import carleman.cli failed:\n" + proc.stderr)
        if i:
            times.append(dt)
    return times


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| (\s*)(\S+)")
IMPORT_OWNERS = ("scipy", "numpy", "carleman")


def import_split(importtime_log: str) -> dict:
    """Seconds of ``-X importtime`` self time per owner package.  Whatever
    scipy or numpy import first belongs to them; otherwise a module belongs to
    its own top-level package if that is an owner, else to its importer's
    owner.  So the stdlib and numpy modules only scipy needs count as scipy's,
    and the stdlib modules carleman imports directly count as carleman's."""
    entries = [(len(m.group(2)) // 2, m.group(3), int(m.group(1)))
               for m in _IMPORTTIME.finditer(importtime_log)]
    totals = dict.fromkeys(IMPORT_OWNERS, 0.0)
    owners = [None]  # owner of each ancestor; the log lists children before parents
    for depth, name, self_us in reversed(entries):
        del owners[depth + 1:]
        pkg = name.split(".")[0]
        parent = owners[-1]
        owner = parent if parent in ("scipy", "numpy") else (
            pkg if pkg in totals else parent)
        owners.append(owner)
        if owner:
            totals[owner] += self_us / 1e6
    return totals


def measure_import_split(deadline: float) -> dict:
    """Median over a few fresh interpreters of ``import_split``."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_SAMPLES):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import carleman.cli"],
                    deadline - time.perf_counter())
        if proc.returncode != 0:
            raise BenchError("import carleman.cli failed:\n" + proc.stderr)
        for pkg, sec in import_split(proc.stderr).items():
            samples[pkg].append(sec)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


# --- environment -------------------------------------------------------------


def _cache_sizes() -> dict:
    """Cache sizes in bytes as ``getconf`` reports them (empty if it cannot)."""
    try:
        proc = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    out = {}
    for line in proc.stdout.splitlines():
        name, _, value = line.partition(" ")
        if name.endswith("CACHE_SIZE") and value.strip().isdigit():
            out[name] = int(value)
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(seed: int, worker_env: dict) -> dict:
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), **worker_env,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                           f"unset (OpenBLAS default: {os.cpu_count()})"),
            "toolkit_threads": os.environ.get("CARLEMAN_THREADS", "unset (default)"),
            "caches": _cache_sizes(), "git_commit": _git_commit(), "seed": seed}


# --- workers -----------------------------------------------------------------


def run_worker(args, deadline: float, trace: int, extra_env=None, record=False,
               interleave=False) -> dict:
    scratch = OUT / f"jobs-{os.getpid()}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--scale", args.scale, "--reference", str(args.reference),
           "--out", str(scratch)]
    if record:
        cmd.append("--record")
    if interleave:
        cmd.append("--interleave")
    try:
        proc = _run(cmd, deadline - time.perf_counter(), _child_env(extra_env))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checks_of(result: dict) -> list:
    """Every output check of every job, plus one per job that its exact
    work counts equal the first job's."""
    jobs = result["jobs"]
    out = [c for job in jobs for c in job["checks"]]
    first = jobs[0]["counts"]
    out += [["counts.repeat", job["counts"] == first] for job in jobs[1:]]
    return out


# --- metrics -----------------------------------------------------------------


def end_to_end(setup_times, result, checks) -> dict:
    jobs = result["jobs"]
    failed = sum(1 for _, ok in checks if not ok)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (statistics.median(j["job_s"] for j in jobs), "s"),
        "job_cpu_s": (statistics.median(j["job_cpu_s"] for j in jobs), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "pass_frac": (1.0 - failed / len(checks), "ratio"),
    }


def span_sums(spans, job: int) -> tuple:
    """Per span name: total wall and CPU time in one job; per layer: self
    time (duration minus the time its child spans cover)."""
    wall, cpu, self_t = defaultdict(float), defaultdict(float), defaultdict(float)
    child = defaultdict(float)
    mine = [s for s in spans if s["job"] == job]
    for s in mine:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    for s in mine:
        dur = s["end"] - s["start"]
        wall[s["name"]] += dur
        cpu[s["name"]] += s["cpu_end"] - s["cpu_start"]
        self_t[s["name"].split(".")[0]] += dur - child[s["id"]]
    return wall, cpu, self_t


def _ratio(num, den, scale) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(job: dict, spans) -> dict:
    wall, cpu, self_t = span_sums(spans, job["index"])
    n = job["counts"]
    ce_s = (wall["counterexample.build"] + wall["counterexample.verify"]
            + wall["counterexample.potential_scan"])
    m = {
        "evolution.evolve_s": (wall["evolution.evolve"], "s"),
        "evolution.evolve_cpu_s": (cpu["evolution.evolve"], "s"),
        "evolution.site_steps": (n.get("site_steps", 0), "count"),
        "evolution.ns_per_site_step": (_ratio(wall["evolution.evolve"],
                                              n.get("site_steps", 0), 1e9), "ns"),
        "evolution.stored_mb": (n.get("stored_mb", 0.0), "MB"),
        "evolution.normalize_s": (wall["evolution.normalize"], "s"),
        "fieldio.write_s": (wall["fieldio.write"], "s"),
        "fieldio.files_written": (n.get("files_written", 0), "count"),
        "fieldio.bytes_written": (n.get("bytes_written", 0), "B"),
        "experiments.lambda_scan_s": (wall["experiments.lambda_scan"], "s"),
        "experiments.ring_evals": (n.get("ring_evals", 0), "count"),
        "experiments.logconv_s": (wall["experiments.logconv"], "s"),
        "experiments.beta_time_pairs": (n.get("beta_time_pairs", 0), "count"),
        "experiments.us_per_beta_time_pair": (_ratio(wall["experiments.logconv"],
                                                     n.get("beta_time_pairs", 0), 1e6), "us"),
        "experiments.threshold_s": (wall["experiments.threshold"], "s"),
        "counterexample.build_s": (wall["counterexample.build"], "s"),
        "counterexample.verify_s": (wall["counterexample.verify"], "s"),
        "counterexample.potential_scan_s": (wall["counterexample.potential_scan"], "s"),
        "counterexample.sites_exact": (n.get("sites_exact", 0), "count"),
        "counterexample.us_per_site": (_ratio(ce_s, n.get("sites_exact", 0), 1e6), "us"),
        "operators.carleman_batch_s": (wall["operators.carleman_batch"], "s"),
        "operators.trials": (n.get("trials", 0), "count"),
        "operators.ms_per_trial": (_ratio(wall["operators.carleman_batch"],
                                          n.get("trials", 0), 1e3), "ms"),
        "operators.identity_checks_s": (wall["operators.identity_checks"], "s"),
        "operators.hiding_scan_s": (wall["operators.hiding_scan"], "s"),
        "bessel.kbessel_check_s": (wall["bessel.kbessel_check"], "s"),
        "bessel.kbessel_cpu_s": (cpu["bessel.kbessel_check"], "s"),
        "bessel.k_evals": (n.get("k_evals", 0), "count"),
        "trace.job_self_s": (self_t["job"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_t[layer], "s")
    return m


def per_layer(result, imports, baseline) -> dict:
    untraced = [j for j in result["jobs"] if not j["traced"]]
    traced = [j for j in result["jobs"] if j["traced"]]
    per_job = [layer_metrics(j, result["spans"]) for j in traced]
    m = {name: (statistics.median(pj[name][0] for pj in per_job), unit)
         for name, (_, unit) in per_job[0].items()}
    m["trace.overhead_s"] = (statistics.median(t["job_s"] - u["job_s"]
                                               for u, t in zip(untraced, traced)), "s")
    m["trace.span_cost_s"] = (result["span_cost_s"], "s")
    m["setup.scipy_import_s"] = (imports["scipy"], "s")
    m["setup.numpy_import_s"] = (imports["numpy"], "s")
    m["setup.carleman_import_s"] = (imports["carleman"], "s")
    b_job = baseline["jobs"][-1] if baseline else None
    b_wall, b_cpu, _ = span_sums(baseline["spans"], b_job["index"]) if baseline else ({}, {}, {})
    m["baseline_1t.job_s"] = (b_job["job_s"] if b_job else 0.0, "s")
    m["baseline_1t.job_cpu_s"] = (b_job["job_cpu_s"] if b_job else 0.0, "s")
    m["baseline_1t.evolve_s"] = (b_wall.get("evolution.evolve", 0.0), "s")
    m["baseline_1t.evolve_cpu_s"] = (b_cpu.get("evolution.evolve", 0.0), "s")
    return m


# --- entry points --------------------------------------------------------------


def record_reference(args) -> int:
    ref = {}
    for scale in SCALES:
        ref[scale] = {}
        for workload in WORKLOADS:
            sub = argparse.Namespace(**{**vars(args), "workload": workload, "scale": scale,
                                        "seconds": 0.0})
            res = run_worker(sub, time.perf_counter() + RUN_LIMIT_S, 0, record=True)
            for job, values in res["jobs"][0]["recorded"].items():
                ref[scale][job] = values
                print(f"recorded {scale}/{job}: {len(values)} values")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="feeds only the RNG-driven inputs (the d1-suite trial seeds)")
    ap.add_argument("--seconds", type=float, default=50.0, help="length of the job loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="tiny shrinks every job, for the self-test")
    ap.add_argument("--reference", default=str(REFERENCE), help="reference values JSON")
    ap.add_argument("--record-reference", action="store_true",
                    help=f"re-record {REFERENCE.name} from the current code and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "carleman" / "cli.py").is_file():
        print(f"error: no toolkit source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.record_reference:
            return record_reference(args)
        if not args.workload:
            ap.error("--workload is required")
        return run_benchmark(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run_benchmark(args) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale}
    if args.trace:
        imports = measure_import_split(deadline)
        result = run_worker(args, deadline, 1, interleave=True)
        baseline = None
        if args.workload == BASELINE_WORKLOAD:
            one_job = argparse.Namespace(**{**vars(args), "seconds": 0.0})
            baseline = run_worker(one_job, deadline, 1, SINGLE_THREAD_ENV)
        checks = checks_of(result)
        if baseline:
            checks += checks_of(baseline) + [
                ["counts.repeat", baseline["jobs"][0]["counts"] == result["jobs"][0]["counts"]]]
        metrics = per_layer(result, imports, baseline)
        record["baseline_1t"] = baseline
    else:
        setup_times = measure_setup(deadline)
        result = run_worker(args, deadline, 0)
        checks = checks_of(result)
        metrics = end_to_end(setup_times, result, checks)
        record["setup_times"] = setup_times
    failed = sum(1 for _, ok in checks if not ok)
    summary = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(environment=environment(args.seed, result["env"]), result=result,
                  checks=checks, summary=summary)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(record["environment"], sort_keys=True))
    for name, ok in checks:
        if not ok:
            print(f"FAIL check {name}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
