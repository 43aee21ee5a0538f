"""Self-test of the benchmark itself, at tiny sizes; not part of the tier-1 suite.

    python3 bench/selftest.py

Checks, for every workload and both trace modes, that the result line has
exactly the contract keys and every metric BENCHMARK.json names, with its
unit; that a perturbed reference value makes the output gate fail; and that
run.py exits non-zero, printing no result, without the toolkit source.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TINY = ["--seed", "5", "--scale", "tiny"]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
from jobs import WORKLOADS  # noqa: E402


def run(args, cwd=ROOT) -> tuple:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = spec["command"][1]
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, out, err = run([script, "--workload", w, "--trace", str(trace), *TINY,
                                "--seconds", "1"])
            tag = f"{w} trace={trace}"
            expect(rc == 0, f"{tag}: exit 0" + (f"\n{err}" if rc else ""))
            if rc:
                continue
            res = result_of(out)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: outputs correct ({res['failed']}/{res['attempted']} failed)")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{tag}: every {group} metric emitted with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in res["metrics"].values()), f"{tag}: finite values")

    # A reference value off by more than the tolerance must fail the gate.
    reference = json.loads((BENCH / "reference.json").read_text())
    workload_of = {job: w for w, jobs in WORKLOADS.items() for job in jobs}
    OUT.mkdir(exist_ok=True)
    for job, values in reference["tiny"].items():
        w = workload_of[job]
        key = sorted(values)[0]
        ref = json.loads(json.dumps(reference))
        old = ref["tiny"][job][key]
        ref["tiny"][job][key] = old + 1e-6 if isinstance(old, float) else "perturbed"
        path = OUT / f"perturbed-{job}.json"
        path.write_text(json.dumps(ref))
        rc, out, _ = run([script, "--workload", w, "--trace", "0", *TINY, "--seconds", "0",
                          "--reference", str(path)])
        res = result_of(out) if rc == 0 else {}
        expect(rc == 0 and res["correct"] is False and res["failed"] >= 1
               and res["metrics"]["pass_frac"]["value"] < 1.0,
               f"{w}: perturbed reference {job}/{key} fails the output gate")

    # Without the toolkit source the benchmark must refuse to run.
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    rc, out, _ = run([script, "--workload", spec["workloads"][0]["name"], "--trace", "0",
                      *TINY, "--seconds", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and not out.strip(), "without src/: non-zero exit and no result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
