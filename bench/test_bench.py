"""Tests of the benchmark itself: generators, expectations, tracing, output.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference   # noqa: E402
import run         # noqa: E402
import spec        # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402
from weakmem import api, cli, frontend  # noqa: E402


def verify_all(programs):
    return [api.verify_source(p.source, path=p.name) for p in programs]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for make in (workloads.lockchain, workloads.manyprocs):
            a, b = make(7), make(7)
            self.assertEqual([p.source for p in a], [p.source for p in b])
            self.assertEqual([(p.expect, p.error_lines, p.proc_status) for p in a],
                             [(p.expect, p.error_lines, p.proc_status) for p in b])
            self.assertNotEqual([p.source for p in a], [p.source for p in make(8)])

    def test_same_amount_of_work_for_every_seed(self):
        for make in (workloads.lockchain, workloads.manyprocs):
            shapes = {(len(progs), sum(len(p.source.splitlines()) for p in progs),
                       sum(p.expect == workloads.FAILED for p in progs))
                      for progs in map(make, (1, 2, 3))}
            self.assertEqual(len(shapes), 1, make.__name__)

    def test_seeded_lines_are_where_the_bug_was_put(self):
        for p in workloads.lockchain(3):
            for line in p.error_lines:
                text = p.source.splitlines()[line - 1].strip()
                self.assertIn(text, ("call unlock(x, j);", "u := [j]_na;"))
            self.assertEqual(p.expect == workloads.FAILED, bool(p.error_lines))
        for p in workloads.manyprocs(3):
            for line in p.error_lines:
                self.assertTrue(p.source.splitlines()[line - 1].startswith("proc p"))

    def test_verifier_meets_the_constructed_expectations(self):
        for programs in (workloads.lockchain(1), workloads.manyprocs(1)[:4],
                         workloads.corpus(ROOT, 1)):
            for prog, result in zip(programs, verify_all(programs)):
                self.assertEqual(workloads.mismatches(prog, result), [], prog.name)

    def test_mismatches_catch_a_wrong_expectation(self):
        prog = workloads.lockchain(1)[0]
        result = api.verify_source(prog.source)
        wrong = workloads.Program(
            name="x", source=prog.source,
            expect=workloads.VERIFIED if prog.expect == workloads.FAILED
            else workloads.FAILED,
            error_lines=frozenset([2]), proc_status={"client": prog.expect})
        self.assertGreaterEqual(len(workloads.mismatches(wrong, result)), 3)

    def test_annotation_count_agrees_with_the_cli(self):
        for prog in workloads.corpus(ROOT, 1):
            program, _ = frontend.parse(prog.source)
            counts = cli.count_annotations(program)
            self.assertEqual(workloads.count_annotations(prog.source),
                             (counts["pp"], counts["li"]), prog.name)


class TracerTest(unittest.TestCase):
    def traced(self, programs):
        t = tracer.Tracer()
        t.install()
        try:
            results = []
            for i, p in enumerate(programs):
                t.prog = (0, i)
                results.append(api.verify_source(p.source))
        finally:
            t.uninstall()
        return t, results

    def test_spans_nest_and_self_times_add_up(self):
        programs = workloads.corpus(ROOT, 1)[:6]
        t, _ = self.traced(programs)
        own = tracer.self_times(t.spans)
        self.assertEqual(tracer.check_nesting(t.spans, own), [])
        names = {s[tracer.NAME] for s in t.spans}
        self.assertTrue({"api.verify_source", "frontend.parse", "symstate.run_obligation",
                         "Solver.assert_entailed"} <= names)
        self.assertEqual(sum(own), sum(s[tracer.END] - s[tracer.START] for s in t.spans
                                       if s[tracer.PARENT] < 0))

    def test_counters_repeat_and_verdicts_match_untraced(self):
        programs = workloads.lockchain(2)[:4]
        plain = verify_all(programs)
        runs = [self.traced(programs) for _ in range(2)]
        counts = [{k: v for k, (v, unit) in tracer.layer_metrics(t.spans, 1).items()
                   if unit == "count"} for t, _ in runs]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(runs[0][0].take_primitives(), runs[1][0].take_primitives())
        digest = lambda rs: [[(v.name, v.status, [d.span.line for d in v.diagnostics])  # noqa: E731
                              for v in r.verdicts] for r in rs]
        self.assertEqual(digest(runs[0][1]), digest(plain))

    def test_uninstall_restores_the_entry_points(self):
        before = (api.verify_source, frontend.parse)
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(frontend.parse, before[1])
        t.uninstall()
        self.assertEqual((api.verify_source, frontend.parse), before)


class CalibrationTest(unittest.TestCase):
    def test_each_call_is_scaled_by_the_units_around_it(self):
        progs = workloads.make("corpus", ROOT, 1)[:3]
        units = iter([0.002, 0.006, 0.004, 0.004])
        saved = reference.timed_unit
        reference.timed_unit = lambda: next(units)
        try:
            times, walls = run.Loop(api, progs).one_pass(0)
        finally:
            reference.timed_unit = saved
        for t, w, around in zip(times, walls, [0.004, 0.005, 0.004]):
            self.assertAlmostEqual(t, w * reference.UNIT_S / around)

    def test_unit_is_the_same_work_every_time(self):
        self.assertEqual(reference.unit(), reference.unit())


class OutputTest(unittest.TestCase):
    def run_bench(self, cwd, *args):
        return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=170)

    def test_last_line_has_exactly_the_listed_metrics(self):
        for trace, names in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
            out = self.run_bench(ROOT, "--workload", "corpus", "--seed", "3",
                                 "--seconds", "0.1", "--trace", trace)
            self.assertEqual(out.returncode, 0, out.stderr)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            self.assertEqual(set(last["metrics"]), set(names))
            for name, m in last["metrics"].items():
                self.assertEqual(m["unit"], names[name][0])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            out = self.run_bench(tmp, "--workload", "corpus", "--seed", "1",
                                 "--seconds", "1", "--trace", "0")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)

    def test_benchmark_json_is_generated_from_spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.assertEqual(json.load(fh), spec.benchmark_json())


if __name__ == "__main__":
    unittest.main()
