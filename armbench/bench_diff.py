#!/usr/bin/env python3
"""Compares two sets of armbench reports, workload by workload.

    python3 armbench/bench_diff.py BASE NEW
    python3 armbench/bench_diff.py --self-test

BASE and NEW are each a directory of armbench report JSONs (`run.py sweep
--out DIR`) or a sweep summary (`run.py sweep --summary FILE`, such as
armbench/baseline/armbench.json). Only untraced runs are compared.

For every workload x end-to-end metric it prints each side's median and
quartiles and one label:

  improved    the change wins at least 9/10 of the run pairs (runs paired in
              order) and the medians differ, in the better direction, by
              more than the base's quartile distance
  worse       the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json
  unresolved  the base's own quartile distance is wider than the bound (and
              not every run of the change is better than every base run)
  unchanged   otherwise

Runs whose host steal share exceeds 0.05, or whose load generator ran more
than 2 ms late at p99, are flagged; unresolved cells list the steal share of
their runs.
"""

import argparse
import io
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MAX_STEAL = 0.05
MAX_LATE_P99_MS = 2.0
GAIN_WIN_SHARE = 0.9


def load_reports(path):
    """Untraced reports from a directory of report files or a summary."""
    if os.path.isdir(path):
        reports = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json") and not name.endswith(".trace.json"):
                with open(os.path.join(path, name)) as f:
                    reports.append(json.load(f))
    else:
        with open(path) as f:
            doc = json.load(f)
        reports = doc["reports"] if "reports" in doc else [doc]
    return [r for r in reports if not r.get("traced")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def classify(base, new, bound, direction):
    """Label for one workload x metric; base and new are run-ordered lists."""
    q1b, mb, q3b = quartiles(base)
    _, mn, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b, direction))
    gain = (pairs and wins >= GAIN_WIN_SHARE * len(pairs)
            and better(mn, mb, direction) and abs(mn - mb) > q3b - q1b)
    change = (mn - mb) / mb if mb else 0.0
    worse = (change > bound) if direction == "lower" else (-change > bound)
    every_new_better = (min(new) > max(base) if direction == "higher"
                        else max(new) < min(base))
    spread = (q3b - q1b) / mb if mb else 0.0
    if gain and (spread <= bound or every_new_better):
        return "improved"
    if spread > bound and not every_new_better:
        return "unresolved"
    if worse:
        return "worse"
    return "unchanged"


def flagged(report):
    extra = report.get("extra", {})
    steal = extra.get("host.steal_frac", 0.0)
    late = extra.get("loadgen.late_p99_ms", 0.0)
    return steal > MAX_STEAL or late > MAX_LATE_P99_MS


def compare(base_reports, new_reports, bench, out=sys.stdout):
    """Prints the comparison; returns {(workload, metric): label}."""
    workloads = [w["name"] for w in bench["workloads"]]
    labels = {}
    unresolved = []
    print(f"{'workload':<20} {'metric':<18} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'wins':>6}  label",
          file=out)
    for workload in workloads:
        base = [r for r in base_reports if r["workload"] == workload]
        new = [r for r in new_reports if r["workload"] == workload]
        if not base or not new:
            continue
        for m in bench["end_to_end"]:
            name, direction = m["name"], m["better"]
            bv = [r["metrics"][name]["value"] for r in base]
            nv = [r["metrics"][name]["value"] for r in new]
            label = classify(bv, nv, m["bound"], direction)
            labels[(workload, name)] = label
            q1b, mb, q3b = quartiles(bv)
            q1n, mn, q3n = quartiles(nv)
            wins = sum(1 for b, n in zip(bv, nv) if better(n, b, direction))
            change = (mn - mb) / mb * 100 if mb else 0.0
            base_s = f"{mb:.5g} [{q1b:.5g}, {q3b:.5g}]"
            new_s = f"{mn:.5g} [{q1n:.5g}, {q3n:.5g}]"
            pairs = f"{wins}/{min(len(bv), len(nv))}"
            print(f"{workload:<20} {name:<18} {base_s:>34} {new_s:>34} "
                  f"{change:>+7.1f}% {pairs:>6}  {label}", file=out)
            if label == "unresolved":
                steal = [r.get("extra", {}).get("host.steal_frac", 0.0)
                         for r in base + new]
                unresolved.append((workload, name, steal))
    for workload, name, steal in unresolved:
        print(f"unresolved: {workload} {name}; steal share per run: "
              + ", ".join(f"{s:.3f}" for s in steal), file=out)
    for side, reports in (("base", base_reports), ("new", new_reports)):
        for r in reports:
            if flagged(r):
                extra = r.get("extra", {})
                print(f"flagged {side} run: {r['workload']} seed {r['seed']} "
                      f"steal {extra.get('host.steal_frac', 0.0):.3f} "
                      f"late_p99 {extra.get('loadgen.late_p99_ms', 0.0):.2f} "
                      f"ms", file=out)
    return labels


def fixture_report(workload, seed, metrics, steal=0.0):
    return {"schema": "armbench/1", "workload": workload, "seed": seed,
            "traced": False, "correct": True,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()},
            "extra": {"host.steal_frac": steal}}


def self_test():
    bench = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "steady", "better": "lower", "bound": 0.1},
            {"name": "faster", "better": "higher", "bound": 0.1},
            {"name": "slower", "better": "lower", "bound": 0.1},
            {"name": "noisy", "better": "lower", "bound": 0.1},
        ],
    }
    wobble = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    noisy = [1.0, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.5, 0.6, 1.0]

    def side(scale, steal_first=0.0):
        return [fixture_report("w", i, {
            "steady": 10 * wobble[i],
            "faster": 100 * wobble[i] * scale["faster"],
            "slower": 5 * wobble[i] * scale["slower"],
            "noisy": 3 * noisy[(i + scale["shift"]) % 10],
        }, steal=steal_first if i == 0 else 0.0) for i in range(10)]

    base = side({"faster": 1.0, "slower": 1.0, "shift": 0})
    new = side({"faster": 1.2, "slower": 1.3, "shift": 3}, steal_first=0.2)
    with tempfile.TemporaryDirectory() as tmp:
        for name, reports in (("base", base), ("new", new)):
            os.mkdir(os.path.join(tmp, name))
            for r in reports:
                with open(os.path.join(tmp, name, f"w-{r['seed']}.json"),
                          "w") as f:
                    json.dump(r, f)
        traced = dict(base[0], traced=True, seed=99)
        with open(os.path.join(tmp, "base", "w-99-trace.json"), "w") as f:
            json.dump(traced, f)
        loaded_base = load_reports(os.path.join(tmp, "base"))
        loaded_new = load_reports(os.path.join(tmp, "new"))
    assert len(loaded_base) == 10, "traced reports must be skipped"

    sink = io.StringIO()
    labels = compare(loaded_base, loaded_new, bench, out=sink)
    text = sink.getvalue()
    expected = {("w", "steady"): "unchanged", ("w", "faster"): "improved",
                ("w", "slower"): "worse", ("w", "noisy"): "unresolved"}
    failures = [f"{k}: got {labels.get(k)}, want {v}"
                for k, v in expected.items() if labels.get(k) != v]
    if "flagged new run: w seed 0 steal 0.200" not in text:
        failures.append("the high-steal run was not flagged")
    if "unresolved: w noisy" not in text:
        failures.append("the unresolved cell was not listed")
    # Pairing rule: a 10% gain that wins only 8 of 10 pairs is no gain.
    if classify([1.0] * 10, [1.1] * 8 + [0.9] * 2, 0.2, "higher") != \
            "unchanged":
        failures.append("8/10 wins must not count as a gain")
    if failures:
        print("bench_diff self-test FAILED:\n  " + "\n  ".join(failures))
        print(text)
        return 1
    print("bench_diff self-test passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", nargs="?")
    p.add_argument("new", nargs="?")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        p.error("BASE and NEW are required")
    with open(BENCHMARK) as f:
        bench = json.load(f)
    compare(load_reports(args.base), load_reports(args.new), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
