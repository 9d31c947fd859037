"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

It checks, at tiny input sizes, that
1. each workload, untraced and traced, ends with a correct JSON result that
   carries every metric BENCHMARK.json names for that mode, with its unit;
2. ``--workload all`` prints every metric predictions.json names for each
   workload, with its unit, and reports no failures;
3. a deliberately wrong report value makes the reports_mid gate fail;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def _run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_results(spec, problems):
    for workload in ("corpus6", "reports_mid", "certify"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", str(trace), "--tiny"])
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: not correct: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")


def check_all(predictions, problems):
    proc = _run(["--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "0", "--tiny"])
    if proc.returncode != 0:
        problems.append(f"all: exit {proc.returncode}: {proc.stderr}")
        return
    printed = set()
    for line in proc.stdout.splitlines()[:-1]:
        fields = line.split()
        if len(fields) == 5 and fields[1] == "metric":
            printed.add((fields[0], fields[2], fields[4]))
    for workload, named in predictions["named_metrics"].items():
        for name, unit in named.items():
            if (workload, name, unit) not in printed:
                problems.append(f"all: {workload} does not print metric {name} in {unit}")
    if json.loads(proc.stdout.splitlines()[-1])["failed"]:
        problems.append("all: failures at tiny size")


def check_wrong_value_fails(problems):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from mrbounds import reports
    from workloads import ReportsMid

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workload = ReportsMid(0, 0, True, out_dir)
    if workload.gate(workload.run_pass(time.perf_counter)).failed:
        problems.append("reports_mid gate fails on correct reports")
    key = workload.corpus()[0].graph6()
    original = reports.compute_report

    def wrong_delta(g, **kwargs):
        r = original(g, **kwargs)
        return replace(r, delta=r.delta + 1) if r.graph6 == key else r

    reports.compute_report = wrong_delta
    try:
        workload = ReportsMid(0, 0, True, out_dir)
        gate = workload.gate(workload.run_pass(time.perf_counter))
    finally:
        reports.compute_report = original
    if gate.failed != 1:
        problems.append(f"one report with a wrong delta gave {gate.failed} gate failures, not 1")


def check_bare_directory(problems):
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus6",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    problems: list[str] = []
    check_results(spec, problems)
    check_all(predictions, problems)
    check_wrong_value_fails(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
