"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
"""

import time

import test_properties as props
from conftest import MANIFEST, corpus_path, corpus_text
from weakmem import api
from weakmem.cli import count_annotations, load_manifest
from weakmem.diagnostics import (
    EXHALE_FAILURE, READ_OF_UNINITIALISED, REWRITE_NOT_JUSTIFIED,
)
from weakmem.frontend import parse
from weakmem.monitor import reconstruct_assertion

CORE_ENTRIES = [
    "RSLSpinLock", "RSLLockNoSpin", "RelAcqMsgPass", "RelAcqDblMsgPassSplit",
    "CASModesTest", "FencesDblMsgPass", "FencesDblMsgPassSplit",
    "FencesDblMsgPassAcqRewrite",
]

UNSUPPORTED_ENTRIES = [
    "RustARCOriginal_err", "RustARCStronger", "RelAcqRustARCStronger",
    "FollyRWSpinlock_err", "FollyRWSpinlockStronger",
]

TIME_BUDGET_S = 60.0       # per corpus entry
PROPERTY_BUDGET_S = 300.0  # all property suites together


def _entry(name):
    for e in load_manifest(MANIFEST):
        if e.name == name:
            return e
    raise KeyError(name)


def _verify_entry(name, **kw):
    start = time.monotonic()
    result = api.verify_file(corpus_path(_entry(name).file),
                             opts=api.VerifyOptions(**kw))
    return result, time.monotonic() - start


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_verdict_reproduction():
    """Each core entry verifies; each seeded variant fails at its statement."""
    problems = []
    worst = 0.0
    for name in CORE_ENTRIES:
        result, elapsed = _verify_entry(name)
        worst = max(worst, elapsed)
        if not result.ok:
            problems.append(f"{name} did not verify")
        if elapsed > TIME_BUDGET_S:
            problems.append(f"{name} took {elapsed:.1f}s")
        err = _entry(name + "_err")
        result_err, elapsed_err = _verify_entry(name + "_err")
        worst = max(worst, elapsed_err)
        diags = [d for v in result_err.verdicts for d in v.diagnostics]
        if result_err.ok or not diags:
            problems.append(f"{name}_err did not fail")
        elif err.error_line is not None and not any(
                d.span.line == err.error_line for d in diags):
            problems.append(
                f"{name}_err diagnostics at lines "
                f"{sorted({d.span.line for d in diags})}, seeded at {err.error_line}")
        if elapsed_err > TIME_BUDGET_S:
            problems.append(f"{name}_err took {elapsed_err:.1f}s")
    _report("criterion 1 (verdict reproduction, exact match, <= 60 s/entry)",
            not problems, "; ".join(problems) or f"max {worst:.2f}s")


def test_criterion_2_annotation_budget():
    """Pre/post-pair and loop-invariant counts stay within the table's columns."""
    problems = []
    for name in CORE_ENTRIES:
        for variant in (name, name + "_err"):
            entry = _entry(variant)
            program, diags = parse(corpus_text(entry.file))
            assert not diags
            counts = count_annotations(program)
            if entry.pp_max is not None and counts["pp"] > entry.pp_max:
                problems.append(f"{variant}: PP {counts['pp']} > {entry.pp_max}")
            if entry.li_max is not None and counts["li"] > entry.li_max:
                problems.append(f"{variant}: LI {counts['li']} > {entry.li_max}")
    _report("criterion 2 (annotation-budget parity)", not problems,
            "; ".join(problems))


def test_criterion_3_join_state_assertion():
    """The reconstructed join state of the double message pass is as published."""
    result, _ = _verify_entry("RelAcqDblMsgPassSplit")
    assert result.ok
    main = result.verdict_of("main")
    (state,) = main.obligations[0].final_states
    text = reconstruct_assertion(state, result.solver,
                                 result.checked.info["main"].classes,
                                 result.table)
    needed = ["a ↦¹ 43", "b ↦¹ 8", "Init(l)"]
    missing = [n for n in needed if n not in text]
    _report("criterion 3 (end-to-end join-state assertion)", not missing,
            f"reconstructed: {text}" if missing else text)


def _outcome(result):
    return ([d.format() for d in result.parse_diagnostics],
            [(v.name, v.status, v.reason, [d.format() for d in v.diagnostics])
             for v in result.verdicts])


def test_criterion_4_soundness_sweep():
    """Zero state-invariant violations across every corpus entry, and the
    monitor changes no procedure's status or diagnostics."""
    violations = []
    changed = []
    for entry in load_manifest(MANIFEST):
        plain, _ = _verify_entry(entry.name)
        result, _ = _verify_entry(entry.name, soundness="report")
        assert result.ok or entry.expect != "verified"
        if _outcome(result) != _outcome(plain):
            changed.append(entry.name)
        for report in result.soundness:
            for v in report.violations:
                violations.append(f"{entry.name}/{report.obligation}: {v.format()}")
    _report("criterion 4 (soundness-invariant sweep)", not violations and not changed,
            "; ".join(violations[:3] + [f"{n} changed by the monitor" for n in changed[:3]]))


def test_criterion_5_property_suites():
    """All property suites complete, within five minutes total."""
    start = time.monotonic()
    props.run_permission_algebra(1000)
    props.run_duplicability_matrix()
    props.run_acquire_idempotence()
    props.run_cas_frame_maximization()
    props.run_ghost_modality_invariance()
    elapsed = time.monotonic() - start
    _report("criterion 5 (property suites)", elapsed < PROPERTY_BUDGET_S,
            f"{elapsed:.1f}s")


def test_criterion_6_negative_space():
    """The named diagnostics appear for the canonical failure shapes."""
    problems = []
    rewrite = api.verify_source("""
invariant Q1(V) = V != 0 ==> a |-> 42;
invariant Q2(V) = V != 0 ==> a |-> 43;
proc main() requires { true } ensures { true }
{ alloc_na(a); alloc_acq(x, Q1); rewrite Acq(x, Q1) to Acq(x, Q2); }
""")
    if REWRITE_NOT_JUSTIFIED not in [d.kind for v in rewrite.verdicts
                                     for d in v.diagnostics]:
        problems.append("rewrite of non-entailed invariants")
    fork = api.verify_source("""
proc main() requires { true } ensures { true }
{
  alloc_na(a);
  [a]_na := 5;
  par {
    thread requires { a |-> 5 } ensures { true } { skip; }
    thread requires { a |-> 5 } ensures { true } { skip; }
  }
}
""")
    if EXHALE_FAILURE not in [d.kind for v in fork.verdicts
                              for d in v.diagnostics]:
        problems.append("double full-permission fork")
    uninit = api.verify_source(
        "proc main() requires { true } ensures { true } "
        "{ alloc_na(a); x := [a]_na; }")
    if READ_OF_UNINITIALISED not in [d.kind for v in uninit.verdicts
                                     for d in v.diagnostics]:
        problems.append("non-atomic read before initialisation")
    _report("criterion 6 (negative-space diagnostics)", not problems,
            "; ".join(problems))


def test_criterion_7_out_of_scope_transparency():
    """Counting-permission entries are present and reported as unsupported."""
    problems = []
    manifest_names = {e.name: e for e in load_manifest(MANIFEST)}
    for name in UNSUPPORTED_ENTRIES:
        entry = manifest_names.get(name)
        if entry is None:
            problems.append(f"{name} missing from manifest")
            continue
        if entry.expect != "unsupported":
            problems.append(f"{name} not marked unsupported")
            continue
        result, _ = _verify_entry(name)
        statuses = {v.status for v in result.verdicts}
        if "unsupported" not in statuses:
            problems.append(f"{name} tool verdicts: {sorted(statuses)}")
    _report("criterion 7 (out-of-scope transparency)", not problems,
            "; ".join(problems))
