"""CLI behaviour: exit codes, reports, dumps, the corpus runner."""

import json
import os
import subprocess
import sys

import pytest
from conftest import CORPUS, MANIFEST, corpus_path
from weakmem import solver
from weakmem.cli import count_annotations, main
from weakmem.frontend import parse


def run_cli(*argv):
    return main(list(argv))


def test_verify_ok_exit_zero(capsys):
    assert run_cli("verify", corpus_path("RelAcqMsgPass.rsl")) == 0
    out = capsys.readouterr().out
    assert "main: ok" in out


def test_verify_failure_exit_one(capsys):
    assert run_cli("verify", corpus_path("RelAcqMsgPass_err.rsl")) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_missing_file_exit_two():
    assert run_cli("verify", "no/such/file.rsl") == 2


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


MALFORMED = {
    "parse": "proc main() requires { true } ensures {",
    "fraction": "proc main() requires { true } ensures { true } "
                "{ alloc_na(a); fence_rel(a |-> 1 @ 2); }",
    # digits outside ASCII are not integers
    "superscript-digit": "proc main() { x := ²; }",
    "arabic-indic-digits": "proc main() { x := ١٢; }",
    # past Python's 4300-digit limit for int(str) on 3.11 and later
    "long-integer": "proc main() { x := " + "9" * 5000 + "; }",
    # nesting past the parser's bound, which every later walk relies on
    "deep-parentheses": "proc main() { x := " + "(" * 600 + "1" + ")" * 600 + "; }",
    "deep-if": "proc main() { " + "if (true) { " * 330 + "skip;" + " }" * 330 + " }",
    "deep-implies": "proc main(x) requires { " + "x == 1 ==> " * 300 + "true } "
                    "ensures { true } { skip; }",
    "long-sum": "proc main() { x := " + " + ".join(["1"] * 1500) + "; }",
    # calls that name no procedure, or pass the wrong number of arguments
    "unknown-callee": "proc main() { call g(1); }",
    "call-arity": "proc f(a) { skip; } proc main() { call f(1, 2); }",
    # an expression passed for a location parameter
    "call-location-literal": "proc f(a) requires { a |-> 1 } ensures { a |-> 1 } { skip; }\n"
                             "proc main() requires { true } ensures { true } { call f(5); }",
    # an annotated loop whose condition is an atomic read
    "annotated-atomic-loop": "invariant Q(V) = V >= 0;\nproc main() requires { true } "
                             "ensures { true } { alloc_acq(l, Q); "
                             "while ([l]_acq == 0) invariant { true } { skip; } }",
    # the rule goes by class: `a` is a location in f's body only
    "call-body-location-literal": "proc f(a) { free(a); }\nproc main() { call f(5); }",
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_input_exit_two(tmp_path, capsys, kind):
    path = write(tmp_path, "bad.rsl", MALFORMED[kind])
    assert run_cli("verify", path) == 2
    assert "SyntaxError" in capsys.readouterr().out
    assert run_cli("verify", path, "--dump-primitives") == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and "Traceback" not in err


def test_undecodable_input_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.rsl"
    path.write_bytes(b"\xff\xfe bad")
    for extra in ([], ["--dump-primitives"], ["--dump-invariants"]):
        assert run_cli("verify", str(path), *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text") and "Traceback" not in err
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"name": "bad", "file": "bad.rsl", "expect": "verified"}]}))
    assert run_cli("corpus", str(manifest)) == 2
    assert f"manifest error: bad: {path}: not UTF-8 text" in capsys.readouterr().err


MOD_GOAL = "proc main(x) requires { x == 8 } ensures { x % 2 == 0 } { skip; }"


def test_unknown_goal_fails_without_solver_cmd(tmp_path, capsys):
    # `%` by a literal is decided; `&` stays an opaque atom
    assert run_cli("verify", write(tmp_path, "mod.rsl", MOD_GOAL)) == 0
    assert "main: ok" in capsys.readouterr().out
    src = MOD_GOAL.replace("x % 2", "(x & 1)")
    assert run_cli("verify", write(tmp_path, "and.rsl", src)) == 1
    out = capsys.readouterr().out
    assert ("IncompleteSolver [postcondition]: cannot establish x & 1 == 0 "
            "(solver returned unknown: the model relies on an opaque atom)" in out)


def test_unknown_goal_names_the_depth_bound(tmp_path, capsys, monkeypatch):
    # 3x + 2y = 1 by two inequalities: the rational model x = 1/3 needs a split
    src = ("proc main(x, y) requires { 3*x + 2*y >= 1 && 3*x + 2*y <= 1 } "
           "ensures { false } { skip; }")
    path = write(tmp_path, "depth.rsl", src)
    assert run_cli("verify", path) == 1
    assert "ExhaleFailure [postcondition]: cannot establish false" in capsys.readouterr().out
    monkeypatch.setattr(solver, "_BRANCH_DEPTH_CAP", 0)
    assert run_cli("verify", path) == 1
    assert ("IncompleteSolver [postcondition]: cannot establish false "
            "(solver returned unknown: branch-and-bound depth 48 reached)"
            in capsys.readouterr().out)
    monkeypatch.setattr(solver, "_SIMPLEX_STEP_CAP", 1)
    assert run_cli("verify", path) == 1
    assert ("IncompleteSolver [postcondition]: cannot establish false "
            "(solver returned unknown: more than 20000 simplex steps)"
            in capsys.readouterr().out)


# (10**1000 - 1)**5 has 5000 digits, past Python's 4300-digit limit for
# str(int) on 3.11 and later; reports render such a number by its length
HUGE = " * ".join(["9" * 1000] * 5)


def test_huge_numbers_render_by_length(tmp_path, capsys):
    path = write(tmp_path, "huge.rsl", f"proc main(x) requires {{ x == {HUGE} }} "
                                       "ensures { x == 0 } { skip; }")
    report = tmp_path / "r.json"
    for extra in ([], ["--json", str(report)], ["--check-soundness-invariants"]):
        assert run_cli("verify", path, *extra) == 1
        out, err = capsys.readouterr()
        assert ("ExhaleFailure [postcondition]: cannot establish x == 0 "
                "(counter: x!0 = <5000-digit number>)") in out, extra
        assert "Traceback" not in err
    (diag,) = json.loads(report.read_text())["files"][0]["procedures"][0]["diagnostics"]
    assert diag["counter_facts"] == "x!0 = <5000-digit number>"
    # the soundness monitor renders a held value the same way
    path = write(tmp_path, "held.rsl", f"proc main(a, x) requires {{ x == {HUGE} && "
                                       "a |-> x } ensures { true } { skip; }")
    assert run_cli("verify", path, "--check-soundness-invariants", "--json", str(report)) == 0
    capsys.readouterr()
    soundness = json.loads(report.read_text())["soundness"]
    assert soundness[-1]["assertion"] == "a ↦¹ <5000-digit number>"


def test_deep_value_is_unsupported(tmp_path, capsys):
    body = "\n".join(["  x := x * y;"] * 1200)
    path = write(tmp_path, "deep.rsl", "proc main(x, y)\n  requires { true }\n"
                                       f"  ensures {{ true }}\n{{\n{body}\n}}\n")
    assert run_cli("verify", path) == 1
    out, err = capsys.readouterr()
    assert "main: unsupported (a value nested more than 256 terms deep)" in out
    assert "Traceback" not in err


def strip_times(obj):
    if isinstance(obj, dict):
        return {k: strip_times(v) for k, v in obj.items() if k != "time_ms"}
    if isinstance(obj, list):
        return [strip_times(v) for v in obj]
    return obj


def test_json_report_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli("verify", corpus_path("RelAcqDblMsgPassSplit.rsl"),
                   "--json", str(out1)) == 0
    assert run_cli("verify", corpus_path("RelAcqDblMsgPassSplit.rsl"),
                   "--json", str(out2)) == 0
    capsys.readouterr()

    r1 = strip_times(json.loads(out1.read_text()))
    r2 = strip_times(json.loads(out2.read_text()))
    assert r1 == r2
    assert r1["schema"] == 1


def test_json_report_includes_diagnostics(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_cli("verify", corpus_path("RelAcqMsgPass_err.rsl"), "--json", str(out))
    capsys.readouterr()
    report = json.loads(out.read_text())
    diags = report["files"][0]["procedures"][0]["diagnostics"]
    assert diags and diags[0]["kind"]
    assert diags[0]["line"] == 17


def test_dump_invariants(capsys):
    assert run_cli("verify", corpus_path("RelAcqDblMsgPassSplit.rsl"),
                   "--dump-invariants") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["index"] for r in rows] == [0, 1, 2]


def test_dump_primitives(capsys):
    assert run_cli("verify", corpus_path("RelAcqMsgPass.rsl"),
                   "--dump-primitives") == 0
    out = capsys.readouterr().out
    assert "inhale" in out and "exhale" in out and "branch" in out


def test_trace_stream(capsys):
    run_cli("verify", corpus_path("RelAcqMsgPass.rsl"), "--trace")
    err = capsys.readouterr().err
    lines = [json.loads(l) for l in err.splitlines() if l.strip()]
    assert lines
    assert {"line", "col", "primitive", "state"} <= set(lines[0])


def test_no_crash_on_error_corpus(capsys):
    # every error-seeded entry terminates with a structured verdict
    for name in os.listdir(CORPUS):
        if name.endswith("_err.rsl"):
            code = run_cli("verify", corpus_path(name))
            assert code in (0, 1)
    capsys.readouterr()


def test_soundness_flag_adds_section(tmp_path, capsys):
    # strict mode checks the invariants too, so it reports them as well
    for flag in ("--check-soundness-invariants", "--strict-invariants"):
        out = tmp_path / "r.json"
        run_cli("verify", corpus_path("RelAcqMsgPass.rsl"), flag, "--json", str(out))
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["soundness"], flag


def manifest_entries():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def run_fresh(*argv, module="weakmem.cli"):
    return run_python("-m", module, *argv)


def run_python(*args):
    # A fresh process, so term ids (and with them column order and the
    # counter-model hints) do not depend on what other tests interned first.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          cwd=CORPUS, env=env, capture_output=True, text=True)


def golden_path(name):
    return os.path.join(os.path.dirname(__file__), name)


def test_corpus_report_matches_golden(tmp_path):
    out = tmp_path / "corpus.json"
    files = [e["file"] for e in manifest_entries()]
    proc = run_fresh("verify", *files, "--json", str(out))
    assert proc.returncode == 1, proc.stderr
    with open(golden_path("corpus_report.golden.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert strip_times(json.loads(out.read_text())) == expected


def test_warm_process_reports_like_a_cold_one(tmp_path):
    # The second run finds every term, and every memoised operation on
    # terms, already built by the first; its report must not change.
    files = [e["file"] for e in manifest_entries()]
    outs = [tmp_path / "cold.json", tmp_path / "warm.json"]
    script = ("import sys\nfrom weakmem.cli import main\n"
              "for out in sys.argv[1:3]:\n    main(sys.argv[3:] + ['--json', out])")
    proc = run_python("-c", script, *map(str, outs), "verify", *files)
    assert proc.returncode == 0, proc.stderr
    cold, warm = (strip_times(json.loads(o.read_text())) for o in outs)
    assert cold == warm
    with open(golden_path("corpus_report.golden.json"), encoding="utf-8") as fh:
        assert cold == json.load(fh)


def test_corpus_dumps_match_golden():
    # the invariant table and primitive sequence of every supported entry
    files = [e["file"] for e in manifest_entries() if e["expect"] != "unsupported"]
    proc = run_fresh("verify", *files, "--dump-invariants", "--dump-primitives")
    assert proc.returncode == 0, proc.stderr
    with open(golden_path("corpus_dumps.golden.txt"), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()


def test_dump_unsupported_entries_report_reason(capsys):
    unsupported = [e["file"] for e in manifest_entries() if e["expect"] == "unsupported"]
    assert unsupported
    for name in unsupported:
        assert run_cli("verify", corpus_path(name), "--dump-primitives") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{corpus_path(name)}: " in err


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------

def test_full_manifest_passes(capsys):
    assert run_cli("corpus", MANIFEST) == 0
    out = capsys.readouterr().out
    assert "expectations met" in out


def test_manifest_mismatch_detected(tmp_path, capsys):
    with open(MANIFEST) as fh:
        entries = json.load(fh)["entries"]
    bad = [dict(e) for e in entries[:1]]
    bad[0]["expect"] = "failed"   # deliberately wrong expectation
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": bad}))
    with open(corpus_path(bad[0]["file"])) as fh:
        (tmp_path / bad[0]["file"]).write_text(fh.read())
    assert run_cli("corpus", str(manifest)) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and bad[0]["name"] in out


def test_manifest_error_exit_two(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    assert run_cli("corpus", str(bad)) == 2


def manifest_of(tmp_path, raw):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(raw))
    return str(path)


CLI_ERRORS = {
    "json-verify": (lambda tmp: ["verify", corpus_path("RelAcqMsgPass.rsl"),
                                 "--json", str(tmp / "no" / "out.json")],
                    "error: [Errno 2] No such file or directory"),
    "json-corpus": (lambda tmp: ["corpus", MANIFEST, "--json", str(tmp / "no" / "out.json")],
                    "error: [Errno 2] No such file or directory"),
    "manifest-list": (lambda tmp: ["corpus", manifest_of(tmp, [])],
                      'manifest error: a manifest is an object with an "entries" list'),
    "manifest-entry-number": (lambda tmp: ["corpus", manifest_of(tmp, {"entries": [1]})],
                              "manifest error: manifest entry is not an object: 1"),
    "manifest-file-number": (lambda tmp: ["corpus", manifest_of(tmp, {"entries": [
        {"name": "a", "file": 5, "expect": "verified"}]})],
        "manifest error: manifest entry {'name': 'a', 'file': 5, 'expect': 'verified'} "
        "lacks a string 'file'"),
    "manifest-budget-string": (lambda tmp: ["corpus", manifest_of(tmp, {"entries": [
        {"name": "a", "file": "a.rsl", "expect": "verified", "pp_max": "2"}]})],
        "'pp_max' is not an integer"),
    "branch-cap-negative": (lambda tmp: ["verify", corpus_path("RelAcqMsgPass.rsl"),
                                         "--branch-cap", "-5"],
                            "argument --branch-cap: '-5' is not a positive integer"),
}


@pytest.mark.parametrize("kind", sorted(CLI_ERRORS))
def test_cli_errors_exit_two(tmp_path, capsys, kind):
    argv, message = CLI_ERRORS[kind]
    assert run_cli(*argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_annotation_counts():
    with open(corpus_path("RSLSpinLock.rsl")) as fh:
        program, diags = parse(fh.read())
    assert not diags
    counts = count_annotations(program)
    assert counts["pp"] == 3
    assert counts["li"] == 1
    with open(corpus_path("RelAcqMsgPass.rsl")) as fh:
        program, _ = parse(fh.read())
    counts = count_annotations(program)
    assert counts["pp"] == 3
    assert counts["li"] == 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "weakmem.cli", "verify",
                           corpus_path("RelAcqMsgPass.rsl")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_package_runs_as_module():
    proc = run_fresh("corpus", MANIFEST, module="weakmem")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr


def test_empty_program_verifies(tmp_path, capsys):
    f = tmp_path / "empty.rsl"
    f.write_text("")
    assert run_cli("verify", str(f)) == 0
    capsys.readouterr()


def test_branch_cap_reported(capsys):
    code = run_cli("verify", corpus_path("RelAcqDblMsgPassSplit.rsl"),
                   "--branch-cap", "1")
    assert code == 1
    out = capsys.readouterr().out
    assert "BranchCapExceeded" in out


def test_branch_cap_reported_at_splitting_statement(tmp_path, capsys):
    path = write(tmp_path, "ifs.rsl", (
        "proc main(x, y) requires { true } ensures { true }\n"
        "{\n"
        "  if (x == 0) { skip; } else { skip; }\n"
        "  if (y == 0) { skip; } else { skip; }\n"
        "}\n"))
    assert run_cli("verify", path, "--branch-cap", "1") == 1
    out = capsys.readouterr().out
    assert "4:3: BranchCapExceeded" in out


def test_strict_invariants_flag(capsys):
    assert run_cli("verify", corpus_path("RelAcqMsgPass.rsl"),
                   "--check-soundness-invariants", "--strict-invariants") == 0
    capsys.readouterr()


FRACTION_OF_V = """invariant Q(V) = V == 0 ? true : j |-> 7 @ V;
proc main(j) requires { j |-> 7 } ensures { true }
{ alloc_rmw(x, Q); [x]_rel := VALUE; }
"""


def test_fraction_dividing_by_zero_is_ill_formed(tmp_path, capsys):
    # a constant fraction is checked with the modes, and exits 2
    path = write(tmp_path, "zero.rsl", "proc f(a) requires { a |-> 1 @ 1/0 } "
                                       "ensures { a |-> 1 @ 1/0 } { skip; }\n")
    assert run_cli("verify", path) == 2
    out = capsys.readouterr().out
    assert "1:22: SyntaxError [well-formedness]: fraction 1 / 0 divides by zero" in out
    assert "unsupported" not in out
    # one that mentions V is checked at the value written, as below
    path = write(tmp_path, "frac.rsl",
                 FRACTION_OF_V.replace("@ V", "@ 1/V").replace("VALUE", "0"))
    assert run_cli("verify", path) == 1
    out = capsys.readouterr().out
    assert "1:34: SyntaxError [well-formedness]: fraction 1 / 0 divides by zero" in out


@pytest.mark.parametrize("value, code, message", [
    (1, 0, None),
    (2, 1, "fraction 2 outside (0, 1]"),
    (0, 1, "fraction 0 outside (0, 1]"),
])
def test_fraction_mentioning_v_is_checked_at_the_written_value(
        tmp_path, capsys, value, code, message):
    # the amount of `j |-> 7 @ V` is known only at the value written
    path = write(tmp_path, "frac.rsl", FRACTION_OF_V.replace("VALUE", str(value)))
    report = tmp_path / "r.json"
    assert run_cli("verify", path) == code
    out = capsys.readouterr().out
    assert run_cli("verify", path, "--json", str(report)) == code
    [proc] = json.loads(report.read_text())["files"][0]["procedures"]
    if message is None:
        assert "main: ok" in out
        assert (proc["status"], proc["diagnostics"]) == ("verified", [])
        return
    assert f"1:34: SyntaxError [well-formedness]: {message}" in out
    assert proc["status"] == "failed"
    assert [(d["line"], d["col"], d["kind"], d["rule"], d["message"])
            for d in proc["diagnostics"]] == [(1, 34, "SyntaxError", "well-formedness", message)]
