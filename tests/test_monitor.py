"""Soundness-invariant checks and assertion reconstruction."""

import os
import sys
from fractions import Fraction

import pytest

from conftest import corpus_text, pipeline, verify
from test_symstate import acc, do_exhale, do_inhale, fresh_state, points_to
from weakmem import api, encoder, symstate, syntax as S, terms as T
from weakmem.frontend import NA
from weakmem.monitor import check_state_invariants, reconstruct_assertion
from weakmem.solver import Solver
from weakmem.speclogic import EFieldEq, HeapLabel, WILDCARD, estar
from weakmem.symstate import Chunk, ExecContext, SymState


def hand_state(perm_val, perm_init, init_value=T.TRUE):
    ctx = ExecContext(Solver(), {"a": NA})
    st = SymState()
    ref = ctx.fresh_ref("a", False)
    st.env["a"] = ref
    st.heap[st.key(ref, "val", HeapLabel.REAL)] = Chunk(
        ref, "val", HeapLabel.REAL, T.mk_int(perm_val), ctx.fresh_int("v"))
    st.heap[st.key(ref, "init", HeapLabel.REAL)] = Chunk(
        ref, "init", HeapLabel.REAL, T.mk_int(perm_init), init_value)
    return st


def test_alloc_state_has_no_violations():
    source = "proc main() requires { true } ensures { true } { alloc_na(a); }"
    chk, table, solver = pipeline(source)
    proc = chk.program.procedures[0]
    ob = encoder.build_obligations(chk, table, proc)[0]
    result = symstate.run_obligation(ob, solver)
    (st,) = result.final_states
    assert check_state_invariants(st, solver, ob.var_classes) == []


def test_mismatched_permissions_flagged():
    st = hand_state(Fraction(1, 2), Fraction(1))
    violations = check_state_invariants(st, Solver(), {"a": NA})
    assert violations and "differs" in violations[0].message


def test_positive_permission_uninit_must_be_full():
    st = hand_state(Fraction(1, 2), Fraction(1, 2), init_value=T.FALSE)
    violations = check_state_invariants(st, Solver(), {"a": NA})
    assert violations and "not 1" in violations[0].message


def test_full_corpus_entry_sweep():
    opts = api.VerifyOptions(soundness="report")
    res = api.verify_source(corpus_text("RelAcqDblMsgPassSplit.rsl"), opts=opts)
    assert res.ok
    assert res.soundness, "boundary reports expected"
    assert all(rep.violations == [] for rep in res.soundness)


ROOT = os.path.join(os.path.dirname(__file__), "..")


def bench_workloads():
    """``bench/workloads.py``, imported without writing under ``bench/``."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
        sys.dont_write_bytecode = saved
    return workloads


def outcome(res: api.FileResult) -> tuple:
    """A file's statuses and diagnostics, hints included."""
    return ([d.to_json() for d in res.parse_diagnostics],
            [(v.name, v.status, v.reason, [d.to_json() for d in v.diagnostics])
             for v in res.verdicts])


@pytest.mark.parametrize("workload", ["lockchain", "manyprocs"])
def test_generated_programs_pass_the_monitor(workload):
    # with the monitor on, every generated program of seed 1 gets the same
    # statuses and diagnostics as without it, no boundary report has a
    # violation, and every verdict meets the generator's expectation
    workloads = bench_workloads()
    reports = 0
    for prog in workloads.make(workload, ROOT, 1):
        plain = api.verify_source(prog.source, path=prog.name)
        opts = api.VerifyOptions(soundness="report")
        checked = api.verify_source(prog.source, path=prog.name, opts=opts)
        assert outcome(checked) == outcome(plain), prog.name
        assert [r.violations for r in checked.soundness if r.violations] == [], prog.name
        assert workloads.mismatches(prog, plain) == [], prog.name
        assert workloads.mismatches(prog, checked) == [], prog.name
        reports += len(checked.soundness)
    assert reports > 0


def test_strict_invariants_runs_the_monitor():
    opts = api.VerifyOptions(soundness="strict")
    res = api.verify_source(corpus_text("RelAcqDblMsgPassSplit.rsl"), opts=opts)
    assert res.ok and res.soundness


def test_an_unknown_soundness_setting_is_refused():
    with pytest.raises(ValueError, match="'on'"):
        api.verify_source("proc main() { skip; }", opts=api.VerifyOptions(soundness="on"))


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def final_main_state(source_name: str):
    res = verify(corpus_text(source_name))
    assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]
    main = res.verdict_of("main")
    (st,) = main.obligations[0].final_states
    classes = res.checked.info["main"].classes
    return st, res.solver, classes, res.table


def test_verdict_of_an_unknown_procedure_raises_key_error():
    res = verify("proc main() { skip; }")
    assert res.verdict_of("main").status == api.VERIFIED
    with pytest.raises(KeyError, match="helper"):
        res.verdict_of("helper")


def test_fig4_join_reconstruction():
    st, solver, classes, table = final_main_state("RelAcqDblMsgPassSplit.rsl")
    text = reconstruct_assertion(st, solver, classes, table)
    assert "a ↦¹ 43" in text
    assert "b ↦¹ 8" in text
    assert "Init(l)" in text


def test_an_invariant_index_without_a_table():
    st, solver, classes, _ = final_main_state("RelAcqDblMsgPassSplit.rsl")
    assert reconstruct_assertion(st, solver, classes) == (
        "a ↦¹ 43 ∗ b ↦¹ 8 ∗ Init(l) ∗ Rel(l, #2)")


def test_empty_state_reconstructs_true():
    assert reconstruct_assertion(SymState(), Solver(), {}) == "true"


def test_obliterated_values_rendered():
    source = """
invariant Q(V) = V != 0 ==> a |-> 42;
proc main() requires { true } ensures { true }
{
  alloc_na(a);
  [a]_na := 42;
  alloc_acq(l, Q);
  [l]_rel := 1;
  x := [l]_acq;
}
"""
    res = verify(source)
    assert res.ok
    main = res.verdict_of("main")
    classes = res.checked.info["main"].classes
    rendered = [reconstruct_assertion(st, res.solver, classes, res.table)
                for st in main.obligations[0].final_states]
    assert any("obliterated" in text for text in rendered)


def test_reconstruction_stable_across_runs():
    a = reconstruct_assertion(*final_main_state("RelAcqDblMsgPassSplit.rsl"))
    b = reconstruct_assertion(*final_main_state("RelAcqDblMsgPassSplit.rsl"))
    # pinned, so a run under another hash seed also compares the text
    assert a == b == "a ↦¹ 43 ∗ b ↦¹ 8 ∗ Init(l) ∗ Rel(l, Q1 && Q2)"


def test_uninit_rendering():
    st, solver, classes, table = (None,) * 4
    res = verify("proc main() requires { true } ensures { true } { alloc_na(a); }")
    main = res.verdict_of("main")
    (st,) = main.obligations[0].final_states
    text = reconstruct_assertion(st, res.solver, res.checked.info["main"].classes)
    assert "Uninit(a)" in text


def test_modal_rendering():
    res = verify("""
proc main() requires { true } ensures { true }
{ alloc_na(a); [a]_na := 5; fence_rel(a |-> 5); }
""")
    main = res.verdict_of("main")
    (st,) = main.obligations[0].final_states
    text = reconstruct_assertion(st, res.solver, res.checked.info["main"].classes)
    assert "⇑" in text and "a ↦¹ 5" in text


def test_wildcard_remainder_rendering():
    # pinned text: the constant comes first, then each token in tid order
    classes = {"a": NA, "b": NA, "c": NA}
    ctx = ExecContext(Solver(), classes)
    st = fresh_state(ctx, ("a", "b", "c"))
    st = do_inhale(ctx, st, estar([points_to("a", 7), points_to("b", 5, "1/2"),
                                   points_to("c", 1)]))
    (st,) = do_exhale(ctx, st, acc("a", "val", WILDCARD))
    st = do_inhale(ctx, st, estar(
        [acc("a", f, "1/2", HeapLabel.UP) for f in ("val", "init")]
        + [acc("a", "val", WILDCARD, HeapLabel.UP),
           EFieldEq("a", "val", S.EInt(3), HeapLabel.UP)]))
    assert st.digest() == (
        "real:a.init=1:true; real:a.val=1 + -1*w!6:7; "
        "real:b.init=1/2:true; real:b.val=1/2:5; "
        "real:c.init=1:true; real:c.val=1:1; "
        "up:a.init=1/2:init!8; up:a.val=1/2 + w!9:3")
    assert reconstruct_assertion(st, ctx.solver, classes) == (
        "a ↦[1 + -1*w!6] 7 ∗ b ↦[1/2] 5 ∗ c ↦¹ 1 ∗ ⇑(a ↦[1/2 + w!9] 3)")
    assert [v.format() for v in check_state_invariants(st, ctx.solver, classes)] == [
        "a: val permission 1 + -1*w!6 differs from init permission 1",
        "a under up: val permission 1/2 + w!9 differs from init permission 1/2"]


def test_tmp_heap_rendering():
    ctx = ExecContext(Solver(), {"a": NA})
    st = do_inhale(ctx, fresh_state(ctx), estar(
        [acc("a", f, 1, HeapLabel.TMP) for f in ("val", "init")]
        + [EFieldEq("a", "val", S.EInt(5), HeapLabel.TMP),
           EFieldEq("a", "init", S.TRUE_E, HeapLabel.TMP)]))
    assert reconstruct_assertion(st, ctx.solver, {"a": NA}) == "[tmp](a ↦¹ 5)"


def test_an_infeasible_state_with_a_lone_val_chunk_has_no_violation():
    # no program splits val from init; on a dead path they agree vacuously
    ctx = ExecContext(Solver(), {"a": NA})
    st = do_inhale(ctx, fresh_state(ctx), acc("a", "val", 1))
    st.assume(T.FALSE)
    assert check_state_invariants(st, ctx.solver, {"a": NA}) == []


# A spin loop records its compare constant as a value read; comparing with
# a boolean mixes sorts, which only such a program does.
@pytest.mark.parametrize("rhs,shown", [
    ("true", "true"), ("false", "false"), ("b == 1", "(b!0 + -1 == 0)")])
def test_a_boolean_value_read_renders_as_a_truth_value(rhs, shown):
    res = verify("invariant Q(V) = true;\n"
                 "proc main(b) requires { true } ensures { true }\n"
                 f"{{ alloc_acq(l, Q); [l]_rel := 1; while ([l]_acq == ({rhs})); }}\n")
    st = res.verdict_of("main").obligations[0].final_states[0]
    text = reconstruct_assertion(st, res.solver, res.checked.info["main"].classes, res.table)
    assert f"Acq(l, Q with V in {{{shown}, $spin" in text
