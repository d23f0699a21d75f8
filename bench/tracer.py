"""Spans around weakmem's public entry points, recorded from outside the package.

`Tracer.install()` replaces the pipeline's entry points with wrappers that
record one span per call: a name, a start and an end (`perf_counter_ns`), the
index of the enclosing span and the id of the program being verified. The
spans stay in memory; `layer_metrics` turns them into per-layer self times
and counters, and `write` saves them when the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded and nest, so the self times of one
program's spans add up exactly to the duration of its `api.verify_source`
span.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter_ns

# span name -> layer it is accounted to
LAYER_OF = {
    "api.verify_source": "api",
    "frontend.parse": "frontend.parse",
    "frontend.mode_check": "frontend.mode_check",
    "speclogic.build_invariant_table": "speclogic.table",
    "encoder.build_obligations": "encoder",
    "symstate.run_obligation": "symstate",
    "Solver.is_feasible": "solver.feasible",
    "Solver.assert_entailed": "solver.entailed",
    "Solver.model_value": "solver.model_value",
}

# span fields
NAME, START, END, PARENT, PROG, EXTRA = range(6)


def count_primitives(prims) -> int:
    """Primitives of a list, counting those nested in branches."""
    n = 0
    for p in prims:
        n += 1
        n += count_primitives(getattr(p, "then", ())) + count_primitives(getattr(p, "els", ()))
    return n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.prog = None              # id of the program being verified
        self._stack: list[int] = []
        self._restore: list = []
        self.encoded: list = []       # obligations of the current pass

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, self.prog, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, extra=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                span[EXTRA] = extra(out)
            return out
        return traced

    def _wrap_query(self, name: str, fn, verdict):
        # extra = (facts in the path, queries that missed the cache, unknown?)
        def traced(solver, path, *rest):
            if not isinstance(path, list):
                path = list(path)
            misses = solver.queries
            span = self._open(name)
            try:
                out = fn(solver, path, *rest)
            finally:
                self._close(span)
            span[EXTRA] = (len(path), solver.queries - misses, verdict(out) == "unknown")
            return out
        return traced

    def _encoded(self, obligations):
        self.encoded.extend(obligations)
        return len(obligations)

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        from weakmem import api, encoder, frontend, speclogic, symstate
        from weakmem.solver import Solver

        def patch(owner, attr, wrapper):
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        patch(api, "verify_source", self._wrap("api.verify_source", api.verify_source))
        patch(frontend, "parse", self._wrap("frontend.parse", frontend.parse))
        patch(frontend, "mode_check", self._wrap("frontend.mode_check", frontend.mode_check))
        patch(speclogic, "build_invariant_table", self._wrap(
            "speclogic.build_invariant_table", speclogic.build_invariant_table,
            lambda table: len(table.entries)))
        patch(encoder, "build_obligations", self._wrap(
            "encoder.build_obligations", encoder.build_obligations, self._encoded))
        patch(symstate, "run_obligation", self._wrap(
            "symstate.run_obligation", symstate.run_obligation,
            lambda res: (res.states_seen, len(res.final_states))))
        patch(Solver, "is_feasible", self._wrap_query(
            "Solver.is_feasible", Solver.is_feasible, lambda out: out))
        patch(Solver, "assert_entailed", self._wrap_query(
            "Solver.assert_entailed", Solver.assert_entailed, lambda out: out.verdict))
        patch(Solver, "model_value", self._wrap(
            "Solver.model_value", Solver.model_value))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take_primitives(self) -> int:
        """Primitives of the obligations encoded since the last call."""
        n = sum(count_primitives(b.prims) for ob in self.encoded for b in ob.blocks)
        self.encoded = []
        return n

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent",
                                            "program", "extra"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list, first: int = 0) -> list[int]:
    """Self time of every span, in nanoseconds. `spans` may be the tail of
    the recorded list that starts at index `first`, cut between programs."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT] - first] -= s[END] - s[START]
    return own


def check_nesting(spans: list, own: list) -> list[str]:
    """Problems with the span tree: spans outside any `verify_source`, or
    children that do not fit in their parent."""
    problems = []
    total: dict = {}
    roots: dict = {}
    for i, s in enumerate(spans):
        if own[i] < 0:
            problems.append(f"span {i} ({s[NAME]}) has negative self time")
        if s[PARENT] < 0:
            if s[NAME] != "api.verify_source":
                problems.append(f"span {i} ({s[NAME]}) is outside verify_source")
            roots[s[PROG]] = roots.get(s[PROG], 0) + s[END] - s[START]
        total[s[PROG]] = total.get(s[PROG], 0) + own[i]
    for prog, t in total.items():
        if t != roots.get(prog):
            problems.append(f"program {prog}: self times add up to {t} ns, "
                            f"verify_source took {roots.get(prog)} ns")
    return problems


def _pct(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def layer_metrics(spans: list, passes: int, first: int = 0) -> dict:
    """Per-layer metrics of a traced run, per pass (name -> (value, unit))."""
    own = self_times(spans, first)
    self_ns = dict.fromkeys(set(LAYER_OF.values()), 0)
    calls = dict.fromkeys(self_ns, 0)
    counts = {"speclogic.table.entries": 0, "encoder.obligations": 0,
              "symstate.states_seen": 0, "symstate.final_states": 0,
              "solver.misses": 0, "solver.unknown": 0}
    facts: list[int] = []
    miss_ns: list[int] = []
    for i, s in enumerate(spans):
        layer = LAYER_OF[s[NAME]]
        self_ns[layer] += own[i]
        calls[layer] += 1
        extra = s[EXTRA]
        if extra is None:
            continue
        if layer == "speclogic.table":
            counts["speclogic.table.entries"] += extra
        elif layer == "encoder":
            counts["encoder.obligations"] += extra
        elif layer == "symstate":
            counts["symstate.states_seen"] += extra[0]
            counts["symstate.final_states"] += extra[1]
        else:
            n_facts, missed, unknown = extra
            facts.append(n_facts)
            counts["solver.misses"] += missed
            counts["solver.unknown"] += unknown
            if missed:
                miss_ns.append(s[END] - s[START])
    ms = lambda ns: ns / 1e6 / passes          # noqa: E731
    per = lambda n: n / passes                 # noqa: E731
    queries = calls["solver.feasible"] + calls["solver.entailed"]
    return {
        "frontend.parse.self_ms": (ms(self_ns["frontend.parse"]), "ms"),
        "frontend.mode_check.self_ms": (ms(self_ns["frontend.mode_check"]), "ms"),
        "speclogic.table.self_ms": (ms(self_ns["speclogic.table"]), "ms"),
        "speclogic.table.entries": (per(counts["speclogic.table.entries"]), "count"),
        "encoder.self_ms": (ms(self_ns["encoder"]), "ms"),
        "encoder.obligations": (per(counts["encoder.obligations"]), "count"),
        "symstate.self_ms": (ms(self_ns["symstate"]), "ms"),
        "symstate.obligations": (per(calls["symstate"]), "count"),
        "symstate.states_seen": (per(counts["symstate.states_seen"]), "count"),
        "symstate.final_states": (per(counts["symstate.final_states"]), "count"),
        "solver.self_ms": (ms(self_ns["solver.feasible"] + self_ns["solver.entailed"]
                              + self_ns["solver.model_value"]), "ms"),
        "solver.feasible.calls": (per(calls["solver.feasible"]), "count"),
        "solver.feasible.self_ms": (ms(self_ns["solver.feasible"]), "ms"),
        "solver.entailed.calls": (per(calls["solver.entailed"]), "count"),
        "solver.entailed.self_ms": (ms(self_ns["solver.entailed"]), "ms"),
        "solver.model_value.calls": (per(calls["solver.model_value"]), "count"),
        "solver.model_value.self_ms": (ms(self_ns["solver.model_value"]), "ms"),
        "solver.misses": (per(counts["solver.misses"]), "count"),
        "solver.hit_ratio": (1 - counts["solver.misses"] / queries if queries else 1.0,
                             "ratio"),
        "solver.path_facts.mean": (statistics.fmean(facts) if facts else 0.0, "count"),
        "solver.path_facts.max": (max(facts, default=0), "count"),
        "solver.miss_ms_p50": (_pct(miss_ns, 0.50) / 1e6 if miss_ns else 0.0, "ms"),
        "solver.miss_ms_p99": (_pct(miss_ns, 0.99) / 1e6 if miss_ns else 0.0, "ms"),
        "solver.unknown": (per(counts["solver.unknown"]), "count"),
        "solver.decided_ratio": (1 - counts["solver.unknown"] / queries if queries else 1.0,
                                 "ratio"),
        "api.self_ms": (ms(self_ns["api"]), "ms"),
    }
