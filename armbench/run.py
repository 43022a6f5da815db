#!/usr/bin/env python3
"""Builds the armbench binary and runs its workloads.

One run, in the form BENCHMARK.json declares (the last stdout line is the
result JSON):

    python3 armbench/run.py --workload serve-frappe --seed 1 --seconds 10 --trace 0

Every workload, each in its own process, workload order alternating between
runs; prints every metric as `workload metric value unit` and exits non-zero
if any correctness check fails:

    python3 armbench/run.py sweep --runs 5 [--trace-runs 1] [--seconds 10]
                                  [--out DIR] [--summary FILE]

Smoke test (the `armbench_smoke` ctest): every workload for 1 s with every
correctness check on, serve-frappe traced, then `bench_diff.py --self-test`:

    python3 armbench/run.py smoke [--binary PATH]

The binary is built with CMake into `.bench_build/` at the repository root,
and every scratch file of a run goes to a temporary directory under it.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
from bench_diff import quartiles, self_test  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1
SMOKE_TRACED = "serve-frappe"


def fail(message, code=2):
    print(f"armbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the armbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "armbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                if step[1] == "-S":
                    shutil.rmtree(BUILD, ignore_errors=True)
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "armbench")


def run_one(binary, workload, seed, seconds, traced, keep_dir=None):
    """Runs one workload in its own process; returns (report, stdout lines).

    The report is None when the binary produced none (crash, timeout, bad
    flags). With `keep_dir`, the report (and trace) are copied there.
    """
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{seed}-",
                           dir=os.path.join(BUILD, "tmp"))
    try:
        report_path = os.path.join(tmp, "report.json")
        trace_path = os.path.join(tmp, "trace.json")
        cmd = [binary, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--tmpdir={tmp}",
               f"--json={report_path}"]
        if traced:
            cmd.append(f"--trace={trace_path}")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"armbench: {workload} seed {seed} timed out",
                  file=sys.stderr)
            return None, []
        lines = proc.stdout.splitlines()
        if not os.path.isfile(report_path):
            print(f"armbench: {workload} seed {seed} exited "
                  f"{proc.returncode} without a report", file=sys.stderr)
            return None, lines
        with open(report_path) as f:
            report = json.load(f)
        if keep_dir:
            os.makedirs(keep_dir, exist_ok=True)
            stem = f"{workload}-{seed}" + ("-trace" if traced else "")
            shutil.copy(report_path, os.path.join(keep_dir, stem + ".json"))
            if traced:
                shutil.copy(trace_path,
                            os.path.join(keep_dir, stem + ".trace.json"))
        return report, lines
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def declared_metrics(report, bench):
    """The report's values for the metrics BENCHMARK.json declares."""
    key, section = (("layers", "per_layer") if report["traced"]
                    else ("metrics", "end_to_end"))
    values = report[key]
    out = {}
    for m in bench[section]:
        v = values.get(m["name"])
        if v is None or v["unit"] != m["unit"]:
            return None, m["name"]
        out[m["name"]] = {"value": v["value"], "unit": v["unit"]}
    return out, None


def single(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    binary = build()
    report, lines = run_one(binary, args.workload, args.seed, args.seconds,
                            args.trace == 1)
    if report is None:
        fail("the run produced no report", code=1)
    metrics, missing = declared_metrics(report, bench)
    if metrics is None:
        fail(f"the report lacks declared metric {missing}", code=1)
    for line in lines:
        print(line)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


def report_run(workload, seed, report, lines):
    """Prints a run's metric lines and failed checks; True if it passed."""
    for line in lines:
        print(line, flush=True)
    if report is None:
        return False
    for c in report["checks"]:
        if not c["ok"]:
            print(f"{workload} seed {seed}: check {c['name']} FAILED: "
                  f"{c['detail']}", flush=True)
    return report["correct"]


def sweep(binary, bench, runs, trace_runs, seconds, seed_base, out_dir,
          summary_path):
    names = [w["name"] for w in bench["workloads"]]
    reports = []
    ok = True
    plan = [(i, False) for i in range(runs)]
    plan += [(runs + i, True) for i in range(trace_runs)]
    for index, traced in plan:
        order = names if index % 2 == 0 else names[::-1]
        for workload in order:
            seed = seed_base + index
            report, lines = run_one(binary, workload, seed, seconds, traced,
                                    out_dir)
            ok = report_run(workload, seed, report, lines) and ok
            if report is not None:
                reports.append(report)

    print("\nsummary: median [q1, q3] over untraced runs")
    for workload in names:
        untraced = [r for r in reports
                    if r["workload"] == workload and not r["traced"]]
        traced = [r for r in reports
                  if r["workload"] == workload and r["traced"]]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in untraced]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            line = (f"{workload} {m['name']} {med:.6g} {m['unit']} "
                    f"[{q1:.6g}, {q3:.6g}] n={len(values)}")
            if traced:
                over = [r["metrics"][m["name"]]["value"] - med
                        for r in traced]
                line += f" trace_overhead {statistics.median(over):+.4g}"
            print(line)
    if summary_path:
        env = reports[0]["env"] if reports else {}
        with open(summary_path, "w") as f:
            json.dump({"schema": "armbench-summary/1", "env": env,
                       "seconds": seconds, "runs": runs,
                       "trace_runs": trace_runs, "reports": reports},
                      f, indent=1)
            f.write("\n")
    return ok


def main():
    argv = sys.argv[1:]
    bench = load_benchmark()
    if argv and argv[0] in ("sweep", "smoke"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        p.add_argument("--binary", help="prebuilt armbench binary")
        if argv[0] == "sweep":
            p.add_argument("--runs", type=int, default=5)
            p.add_argument("--trace-runs", type=int, default=0)
            p.add_argument("--seconds", type=int,
                           default=bench["run_seconds"])
            p.add_argument("--seed-base", type=int, default=1)
            p.add_argument("--out", help="directory to keep reports in")
            p.add_argument("--summary", help="write all reports to this file")
        args = p.parse_args(argv[1:])
        binary = args.binary or build()
        if argv[0] == "sweep":
            ok = sweep(binary, bench, args.runs, args.trace_runs,
                       args.seconds, args.seed_base, args.out, args.summary)
            return 0 if ok else 1
        ok = True
        for w in bench["workloads"]:
            traced = w["name"] == SMOKE_TRACED
            report, lines = run_one(binary, w["name"], 1, SMOKE_SECONDS,
                                    traced)
            ok = report_run(w["name"], 1, report, lines) and ok
        return 0 if self_test() == 0 and ok else 1

    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")
    return single(args, bench)


if __name__ == "__main__":
    sys.exit(main())
