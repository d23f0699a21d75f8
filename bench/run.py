#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads run warm, in this one process and thread, as a closed loop: the
next program is verified only after the previous verdict is in and has been
checked against its expectation. After one warm-up pass, whole passes over
the workload's programs repeat until `--seconds` have passed and at least
`MIN_SAMPLES` verdicts are timed.

Times are calibrated (see reference.py): each verify call is bracketed by a
fixed unit of reference work, and its wall time is scaled to a host on which
that unit takes `reference.UNIT_S`, which cancels the drift of a shared
host's speed. The uncalibrated wall times are printed too, as `wall.*`.

`--trace 0` measures the end-to-end metrics with nothing wrapped; `setup_s`
is the median of `SETUP_PROBES` fresh processes that import weakmem and build
the inputs, calibrated by units timed just before and just after each. `--trace 1` wraps the pipeline's entry points (see tracer.py),
reports the per-layer metrics per pass and writes the spans to
`.bench_out/spans-<workload>-<seed>.jsonl`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every verdict met its expectation, 1 when one did
not, and 2 when the program under test or its inputs cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference   # noqa: E402
import spec        # noqa: E402
import workloads   # noqa: E402

SETUP_PROBES = 11
UNITS = 5                  # reference units timed around each set-up probe
MIN_SAMPLES = 200          # ten samples beyond the 95th percentile
MAX_SECONDS_FACTOR = 3     # stop at this multiple of --seconds regardless


def machine_info() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
        sha = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "loadavg": list(os.getloadavg())}


def import_weakmem():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "weakmem")):
        raise FileNotFoundError(f"no weakmem package under {src}")
    sys.path.insert(0, src)
    import weakmem.api
    return weakmem.api


def unit_s() -> float:
    """Median wall time of a few reference units, after one to warm up."""
    reference.unit()
    return statistics.median(reference.timed_unit() for _ in range(UNITS))


def setup_probe(workload: str, seed: int) -> None:
    """The set-up a fresh process does before its first verify call; then
    the time of a reference unit, for the parent to calibrate with."""
    import_weakmem()
    workloads.make(workload, ROOT, seed)
    print("ready", flush=True)
    print(unit_s(), flush=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Calibrated and wall times of `SETUP_PROBES` fresh set-ups."""
    times, walls = [], []
    for _ in range(SETUP_PROBES):
        before = unit_s()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            after = proc.stdout.read().strip()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        walls.append(wall)
        times.append(wall * reference.UNIT_S / ((before + float(after)) / 2))
    return times, walls


def p95(samples: list[float]) -> tuple[float, int]:
    """Nearest-rank 95th percentile and the number of samples beyond it."""
    s = sorted(samples)
    k = math.ceil(0.95 * len(s))
    return s[k - 1], len(s) - k


class Loop:
    """Closed-loop passes over a workload, checking every verdict."""

    def __init__(self, api, programs, tracer=None):
        self.api = api
        self.programs = programs
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.verdicts = None          # per-program verdict digest, first pass

    def one_pass(self, pass_no: int) -> tuple[list[float], list[float]]:
        """Calibrated and wall time of each program's verify call."""
        walls = []
        units = [reference.timed_unit()]
        verdicts = []
        for i, prog in enumerate(self.programs):
            if self.tracer is not None:
                self.tracer.prog = (pass_no, i)
            start = time.perf_counter()
            result = self.api.verify_source(prog.source, path=prog.name)
            walls.append(time.perf_counter() - start)
            units.append(reference.timed_unit())
            bad = workloads.mismatches(prog, result)
            self.attempted += 1
            if bad:
                self.failed += 1
                self.mismatches.extend(bad)
            verdicts.append([prog.name, [
                [v.name, v.status, sorted({d.span.line for d in v.diagnostics})]
                for v in result.verdicts]])
        if self.verdicts is None:
            self.verdicts = verdicts
        times = [w * reference.UNIT_S / ((units[i] + units[i + 1]) / 2)
                 for i, w in enumerate(walls)]
        return times, walls


def counters(layer: dict) -> dict:
    """The exactly repeatable entries of a pass's per-layer metrics."""
    return {k: v for k, (v, unit) in layer.items() if unit == "count"}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    info = machine_info()
    setup, setup_walls = ([], []) if trace else measure_setup(workload, seed)
    api = import_weakmem()
    programs = workloads.make(workload, ROOT, seed)
    tracer = None
    if trace:
        from weakmem import frontend
        import tracer as tracing
        tokens = sum(len(frontend.tokenize(p.source)[0]) - 1 for p in programs)
        tracer = tracing.Tracer()
        tracer.install()
    loop = Loop(api, programs, tracer)
    try:
        loop.one_pass(0)                                   # warm-up
        if tracer is not None:
            tracer.spans.clear()
            tracer.take_primitives()
        pass_times: list[float] = []
        pass_walls: list[float] = []
        samples: list[float] = []
        wall_samples: list[float] = []
        per_pass: list[dict] = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if pass_times and elapsed >= seconds * MAX_SECONDS_FACTOR:
                break
            if pass_times and elapsed >= seconds and len(samples) >= MIN_SAMPLES:
                break
            first = len(tracer.spans) if tracer is not None else 0
            times, walls = loop.one_pass(len(pass_times) + 1)
            pass_times.append(sum(times))
            pass_walls.append(sum(walls))
            samples.extend(t * 1000 for t in times)
            wall_samples.extend(w * 1000 for w in walls)
            if tracer is not None:
                per_pass.append(dict(
                    counters(tracing.layer_metrics(tracer.spans[first:], 1, first)),
                    **{"encoder.primitives": tracer.take_primitives()}))
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {"workload": workload, "seed": seed, "trace": int(trace),
           "machine": info, "passes": len(pass_times), "programs": len(programs),
           "pass_times_s": pass_times, "pass_walls_s": pass_walls,
           "attempted": loop.attempted, "failed": loop.failed,
           "mismatches": loop.mismatches, "verdicts": loop.verdicts,
           "problems": [], "warnings": []}
    metrics = {}
    if not trace:
        p95_ms, beyond = p95(samples)
        metrics = {
            "pass_s": (statistics.median(pass_times), "s", len(pass_times)),
            "verdict_ms_p50": (statistics.median(samples), "ms", len(samples)),
            "verdict_ms_p95": (p95_ms, "ms", len(samples)),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB", 1),
            "mismatch_frac": (loop.failed / loop.attempted, "ratio", loop.attempted),
            "wall.pass_s": (statistics.median(pass_walls), "s", len(pass_walls)),
            "wall.verdict_ms_p50": (statistics.median(wall_samples), "ms",
                                    len(wall_samples)),
            "wall.verdict_ms_p95": (p95(wall_samples)[0], "ms", len(wall_samples)),
            "wall.setup_s": (statistics.median(setup_walls), "s", len(setup_walls)),
        }
        out["samples_beyond_p95"] = beyond
        if beyond < 10:
            out["warnings"].append(f"only {beyond} samples beyond the 95th percentile")
    else:
        spans = tracer.spans
        out["problems"] += tracing.check_nesting(spans, tracing.self_times(spans))
        if any(c != per_pass[0] for c in per_pass):
            out["problems"].append("counters differ between passes")
        n = len(pass_times)
        metrics = {k: (v, unit, n) for k, (v, unit) in
                   tracing.layer_metrics(spans, n).items()}
        metrics["frontend.tokens"] = (tokens, "count", n)
        metrics["encoder.primitives"] = (per_pass[0]["encoder.primitives"], "count", n)
        metrics["traced.pass_s"] = (statistics.median(pass_times), "s", n)
        metrics["wall.traced.pass_s"] = (statistics.median(pass_walls), "s", n)
        out["counters"] = per_pass[0]
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        out["spans_file"] = os.path.join(".bench_out", f"spans-{workload}-{seed}.jsonl")
        tracer.write(os.path.join(ROOT, out["spans_file"]))
    out["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                      for k, (v, u, n) in metrics.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--detail", help="also write the full result as JSON to this file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    m = out["machine"]
    print(f"workload {out['workload']}  seed {out['seed']}  trace {out['trace']}  "
          f"{out['programs']} programs x {out['passes']} passes")
    print(f"machine  nproc {m['nproc']}  python {m['python']}  "
          f"git {m['git_sha'] or 'unknown'}  loadavg {m['loadavg']}")
    for name, metric in out["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"n={metric['samples']}")
    for kind, label in (("mismatches", "MISMATCH"), ("problems", "PROBLEM"),
                        ("warnings", "WARNING")):
        for line in out[kind]:
            print(f"{label} {line}", file=sys.stderr)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    names = spec.PER_LAYER if out["trace"] else spec.END_TO_END
    correct = out["failed"] == 0 and not out["problems"]
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {k: {"value": out["metrics"][k]["value"],
                        "unit": out["metrics"][k]["unit"]} for k in names}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
