#!/usr/bin/env python3
"""Run every workload untraced and twice traced, print all metrics, save them.

    python3 bench/report.py [--seed 1] [--seconds 30] [--out FILE]

For each workload this runs `bench/run.py` three times in fresh processes:
once with tracing off for the end-to-end metrics, and twice with tracing on
for the per-layer metrics. It prints every metric with its unit and sample
count, and the tracing overhead (traced minus untraced `pass_s`). It checks
that the traced verdicts equal the untraced ones and that the two traced
runs give the same counters. The whole result, with machine and build info,
goes to `--out` (default `.bench_out/BENCH_<git sha>.json`).

Exit code 0 when every check holds and `mismatch_frac` is 0 everywhere,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec   # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    detail = os.path.join(ROOT, ".bench_out", f"detail-{workload}-{seed}-{trace}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--detail", detail],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    if not os.path.exists(detail):
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode} without a result")
    with open(detail, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(detail)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    problems = []
    for workload in spec.WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = [run_once(workload, args.seed, args.seconds, 1) for _ in range(2)]
        report.setdefault("machine", plain["machine"])
        if traced[0]["verdicts"] != plain["verdicts"]:
            problems.append(f"{workload}: traced verdicts differ from untraced ones")
        if traced[0]["counters"] != traced[1]["counters"]:
            problems.append(f"{workload}: counters differ between two traced runs")
        for run in [plain] + traced:
            problems += [f"{workload}: {p}" for p in run["mismatches"] + run["problems"]]
        if plain["metrics"]["mismatch_frac"]["value"] > 0:
            problems.append(f"{workload}: mismatch_frac > 0")
        untraced_s = plain["metrics"]["pass_s"]["value"]
        traced_s = traced[0]["metrics"]["traced.pass_s"]["value"]
        report["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced[0]["metrics"],
            "tracing_overhead_s": traced_s - untraced_s,
            "runs": [{k: r[k] for k in ("trace", "machine", "passes", "programs",
                                        "attempted", "failed")} for r in [plain] + traced],
        }

        print(f"== {workload}  ({plain['programs']} programs; "
              f"{plain['passes']} passes untraced, {traced[0]['passes']} traced)")
        for section in ("end_to_end", "per_layer"):
            for name, m in report["workloads"][workload][section].items():
                print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
        print(f"  {'tracing overhead':<30} {traced_s - untraced_s:>14.6g} s      "
              f"({(traced_s - untraced_s) / untraced_s:+.1%} of pass_s)")

    m = report["machine"]
    print(f"machine: nproc {m['nproc']}, python {m['python']}, "
          f"git {m['git_sha'] or 'unknown'}, loadavg at start {m['loadavg']}")
    report["problems"] = problems
    out = args.out or os.path.join(ROOT, ".bench_out",
                                   f"BENCH_{(m['git_sha'] or 'unknown')[:12]}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"written to {out}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
