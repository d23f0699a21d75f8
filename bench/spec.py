"""What the benchmark measures: its workloads, metrics and bounds.

This module is the single source of `BENCHMARK.json`; run it to rewrite that
file from the definitions below. README.md explains each metric and which
workload it should move.

    python3 bench/spec.py
"""

from __future__ import annotations

import json
import os

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

WORKLOADS = {
    "corpus": "the paper's 21-entry evaluation set: verifying, seeded-error and "
              "unsupported entries; the solver takes about 3/4 of its time",
    "lockchain": "clients taking a CAS lock 1-3 times: long path conditions whose "
                 "queries share prefixes, the case an incremental solver targets",
    "manyprocs": "files of long straight-line procedures: parsing, encoding and "
                 "symbolic execution take about 2/3 of the time, short solver queries the rest",
}

# name -> (unit, better, bound). Measured with tracing off; times are
# calibrated to a fixed host speed (reference.py). The run also
# reports mismatch_frac, left out here because it is 0 on a correct run;
# the result's `failed` count carries it.
END_TO_END = {
    "pass_s": ("s", "lower", 0.2),
    "verdict_ms_p50": ("ms", "lower", 0.2),
    "verdict_ms_p95": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

# name -> (unit, better). Measured in the traced run, per pass. The run also
# reports solver.model_value.self_ms, left out here: nothing on the default
# path calls Solver.model_value, so that time is always exactly 0.
PER_LAYER = {
    "frontend.parse.self_ms": ("ms", "lower"),
    "frontend.mode_check.self_ms": ("ms", "lower"),
    "frontend.tokens": ("count", "lower"),
    "speclogic.table.self_ms": ("ms", "lower"),
    "speclogic.table.entries": ("count", "lower"),
    "encoder.self_ms": ("ms", "lower"),
    "encoder.obligations": ("count", "lower"),
    "encoder.primitives": ("count", "lower"),
    "symstate.self_ms": ("ms", "lower"),
    "symstate.obligations": ("count", "lower"),
    "symstate.states_seen": ("count", "lower"),
    "symstate.final_states": ("count", "lower"),
    "solver.self_ms": ("ms", "lower"),
    "solver.feasible.calls": ("count", "lower"),
    "solver.feasible.self_ms": ("ms", "lower"),
    "solver.entailed.calls": ("count", "lower"),
    "solver.entailed.self_ms": ("ms", "lower"),
    "solver.model_value.calls": ("count", "lower"),
    "solver.misses": ("count", "lower"),
    "solver.hit_ratio": ("ratio", "higher"),
    "solver.path_facts.mean": ("count", "lower"),
    "solver.path_facts.max": ("count", "lower"),
    "solver.miss_ms_p50": ("ms", "lower"),
    "solver.miss_ms_p99": ("ms", "lower"),
    "solver.unknown": ("count", "lower"),
    "solver.decided_ratio": ("ratio", "higher"),
    "api.self_ms": ("ms", "lower"),
    "traced.pass_s": ("s", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
