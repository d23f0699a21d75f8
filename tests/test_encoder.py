"""Per-statement encoding tests, driven through the full pipeline."""

import collections
import os
import sys

import pytest

from conftest import (
    CORPUS, MANIFEST, corpus_path, corpus_text, pipeline, single_verdict, verify,
)
from weakmem import api, cli, encoder, speclogic as L, symstate, syntax as S, terms as T
from weakmem.diagnostics import (
    BRANCH_CAP_EXCEEDED, DOWN_IN_LOOP_INVARIANT, EXHALE_FAILURE, FrontendError, INCOMPLETE_SOLVER,
    INSUFFICIENT_PERMISSION, MISSING_LOOP_INVARIANT, MIXED_MODE_ACCESS, MISSING_RMW_PERMISSIONS, NO_ACQ_PERMISSION,
    NO_REL_PERMISSION, READ_OF_UNINITIALISED, REWRITE_AFTER_READ,
    REWRITE_NOT_JUSTIFIED, SPIN_PATTERN_RESOURCE_LEAK, SYNTAX_ERROR, UNINITIALISED,
    UnsupportedFeature,
)
from weakmem.speclogic import EImplies, HeapLabel
from weakmem.solver import OPAQUE_ATOM, Solver


def kinds(verdict):
    return [d.kind for d in verdict.diagnostics]


def run_main(source: str):
    """Run just the 'main' obligation; returns (result, checked, table, solver)."""
    chk, table, solver = pipeline(source)
    proc = next(p for p in chk.program.procedures if p.name == "main")
    obligations = encoder.build_obligations(chk, table, proc)
    result = symstate.run_obligation(obligations[0], solver)
    return result, chk, table, solver


WRAP = "proc main() requires {{ true }} ensures {{ true }} {{ {body} }}"


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------

def test_alloc_na_state():
    result, chk, _, solver = run_main(WRAP.format(body="alloc_na(a);"))
    assert result.verified
    (st,) = result.final_states
    ref = st.env["a"]
    assert st.perm(ref, "val", HeapLabel.REAL) is T.ONE
    assert st.perm(ref, "init", HeapLabel.REAL) is T.ONE
    init = st.heap[st.key(ref, "init", HeapLabel.REAL)]
    assert solver.assert_entailed(st.path, T.not_(init.value)).verdict == "yes"


ALLOC_KINDS = """
invariant Q(V) = true;
proc main() requires { true } ensures { true }
{ ghost_alloc(g); alloc_na(a); [a]_na := 7; free(a); alloc_acq(q, Q); alloc_rmw(r, Q); }
"""

ALLOC_KINDS_DUMP = """\
-- ghostalloc @ 4:3
  g := new() (ghost)
  inhale acc(g.val, 1)@real && acc(g.init, 1)@real && g.init@real == false
-- allocna @ 4:19
  a := new()
  inhale acc(a.val, 1)@real && acc(a.init, 1)@real && a.init@real == false
-- write @ 4:32
  exhale acc(a.val, 1)@real && acc(a.init, 1)@real
  inhale acc(a.val, 1)@real && acc(a.init, 1)@real && a.val@real == 7 && a.init@real == true
-- free @ 4:45
  exhale acc(a.val, 1)@real && acc(a.init, 1)@real
-- allocatomic @ 4:54
  q := new()
  inhale acc(q.rel, wildcard)@real && q.rel@real == 0 && acc(q.acq, wildcard)@real \
&& q.acq@real == true && acc(AcqConjunct(q, 0), 1)@real, valsRead == {}
-- allocatomic @ 4:71
  r := new()
  inhale acc(r.rel, wildcard)@real && r.rel@real == 0 && acc(r.acq, wildcard)@real \
&& r.acq@real == false && acc(AcqConjunct(r, 0), wildcard)@real
"""


def test_each_allocation_kind_and_free_encode():
    # no corpus program uses ghost_alloc or free
    chk, table, _ = pipeline(ALLOC_KINDS)
    (ob,) = encoder.build_obligations(chk, table, chk.program.procedures[0])
    assert ALLOC_KINDS_DUMP in encoder.dump_primitives([ob])
    prims = [p for b in ob.blocks[1:5] for p in b.prims if not isinstance(p, encoder.NewLoc)]
    assert [(p.rule, getattr(p, "kind", None)) for p in prims] == [
        ("ghost allocation", None), ("non-atomic allocation", None),
        ("non-atomic write", INSUFFICIENT_PERMISSION), ("non-atomic write", None),
        ("free", INSUFFICIENT_PERMISSION)]


def test_two_allocs_distinct():
    result, *_ = run_main(WRAP.format(body="alloc_na(a); alloc_na(b);"))
    (st,) = result.final_states
    assert st.env["a"] is not st.env["b"]
    assert len(st.heap) == 4


def test_alloc_exhale_uninit_round_trip():
    # inhale/exhale round trip oracle: allocation then giving Uninit back
    # leaves the heap empty
    source = """
proc take(p) requires { Uninit(p) } ensures { true } { skip; }
proc main() requires { true } ensures { true } { alloc_na(a); call take(a); }
"""
    result, *_ = run_main(source)
    assert result.verified
    (st,) = result.final_states
    assert st.heap == {}


# ---------------------------------------------------------------------------
# Non-atomic accesses
# ---------------------------------------------------------------------------

def test_read_at_half_permission():
    source = """
proc main(p) returns (x)
  requires { p |-> 42 @ 1/2 }
  ensures { x == 42 && p |-> 42 @ 1/2 }
{
  x := [p]_na;
}
"""
    assert single_verdict(source).status == "verified"


def test_read_of_uninitialised():
    v = single_verdict(WRAP.format(body="alloc_na(a); x := [a]_na;"))
    assert v.status == "failed"
    assert READ_OF_UNINITIALISED in kinds(v)


def test_write_requires_permission():
    v = single_verdict("proc main(p) requires { true } ensures { true } { [p]_na := 1; }")
    assert INSUFFICIENT_PERMISSION in kinds(v)


def test_write_after_uninit():
    result, _, _, solver = run_main(WRAP.format(body="alloc_na(a); [a]_na := 7;"))
    assert result.verified
    (st,) = result.final_states
    ref = st.env["a"]
    chunk = st.heap[st.key(ref, "val", HeapLabel.REAL)]
    assert solver.assert_entailed(st.path, T.eq(chunk.value, T.mk_int(7))).verdict == "yes"
    init = st.heap[st.key(ref, "init", HeapLabel.REAL)]
    assert solver.assert_entailed(st.path, init.value).verdict == "yes"


def test_fractional_read_keeps_fraction():
    v = single_verdict("""
proc main(p)
  requires { p |-> 3 @ 1/2 }
  ensures { p |-> 3 @ 1/2 }
{
  x := [p]_na;
}
""")
    assert v.status == "verified"


# ---------------------------------------------------------------------------
# Atomic allocation and invariant splitting
# ---------------------------------------------------------------------------

SPLIT_SRC = """
invariant Q1(V) = V != 0 ==> a |-> 42;
invariant Q2(V) = V != 0 ==> b |-> 7;
proc take(p) requires { Acq(p, Q1) } ensures { true } { skip; }
proc main()
  requires { true }
  ensures { true }
{
  alloc_na(a);
  alloc_na(b);
  alloc_acq(l, Q1 && Q2);
  call take(l);
}
"""


def test_alloc_acq_conjunct_instances():
    result, chk, table, _ = run_main(SPLIT_SRC.replace("call take(l);", "skip;"))
    (st,) = result.final_states
    ref = st.env["l"]
    i1, i2 = table.whole(("Q1",)), table.whole(("Q2",))
    assert st.heap[st.key(ref, i1, HeapLabel.REAL)].value == ()
    assert st.heap[st.key(ref, i2, HeapLabel.REAL)].value == ()


def test_acq_splitting():
    # giving away Acq(l, Q1) leaves exactly the Q2 conjunct
    result, chk, table, _ = run_main(SPLIT_SRC)
    assert result.verified, [d.format() for d in result.diagnostics]
    (st,) = result.final_states
    ref = st.env["l"]
    i1, i2 = table.whole(("Q1",)), table.whole(("Q2",))
    assert st.perm(ref, i1, HeapLabel.REAL) is T.ZERO
    assert st.perm(ref, i2, HeapLabel.REAL) is T.ONE


# ---------------------------------------------------------------------------
# Release writes / acquire reads
# ---------------------------------------------------------------------------

def test_release_write_without_rel():
    v = single_verdict("""
invariant Q(V) = V >= 0;
proc main(l) requires { Init(l) } ensures { true } { [l]_rel := 1; }
""")
    assert NO_REL_PERMISSION in kinds(v)


def test_release_write_vacuous_zero():
    v = single_verdict("""
invariant Q(V) = V != 0 ==> a |-> 42;
proc main() requires { true } ensures { true }
{ alloc_na(a); alloc_acq(l, Q); [l]_rel := 0; }
""")
    assert v.status == "verified"


def test_release_write_transfers_ownership():
    # the middle thread of the message-pass: after the release write the
    # thread no longer owns a
    v = single_verdict("""
invariant Q(V) = V != 0 ==> a |-> 42;
proc main() requires { true } ensures { true }
{
  alloc_na(a);
  alloc_acq(l, Q);
  [a]_na := 42;
  [l]_rel := 1;
  [a]_na := 0;
}
""")
    assert v.status == "failed"
    assert INSUFFICIENT_PERMISSION in kinds(v)


def test_acquire_read_gains_and_idempotence():
    # first read of a nonzero value gains a |-> 42; re-reading the same
    # value gains nothing (so giving a away once is the only option)
    v = single_verdict("""
invariant Q(V) = V != 0 ==> a |-> 42;
proc main(l) returns (x)
  requires { Acq(l, Q) && Init(l) }
  ensures { x != 0 ==> a |-> 42 }
{
  x := [l]_acq;
  y := [l]_acq;
}
""")
    assert v.status == "verified"


def test_acquire_read_requires_acq():
    v = single_verdict("""
invariant Q(V) = V >= 0;
proc main(l) requires { Init(l) && Rel(l, Q) } ensures { true } { x := [l]_acq; }
""")
    assert NO_ACQ_PERMISSION in kinds(v)


def test_acquire_read_requires_init():
    v = single_verdict("""
invariant Q(V) = V >= 0;
proc main() requires { true } ensures { true }
{ alloc_acq(l, Q); x := [l]_acq; }
""")
    assert UNINITIALISED in kinds(v)


def test_acquire_read_on_rmw_instance_defensive():
    # the encoder re-checks the acq flag even when given RMW resources; build
    # the read against an RMW location directly at the primitive level
    chk, table, solver = pipeline("""
invariant Q(V) = V >= 0;
proc main() requires { true } ensures { true }
{ alloc_rmw(l, Q); [l]_rel := 0; t := CAS_rlx(l, 0, 1); }
""")
    proc = chk.program.procedures[0]
    ob = encoder.build_obligations(chk, table, proc)[0]
    ctx = symstate.ExecContext(solver, ob.var_classes)
    states = [symstate.SymState()]
    for blk in ob.blocks[:3]:   # setup, alloc, release write
        states = [s2 for s in states for s2 in symstate.run_seq(ctx, s, blk.prims)]
    assert not ctx.diagnostics
    read_ctx = encoder.EncodeCtx(chk, table, "main")
    prims = encoder.encode_stmt(
        S.SRead(mode="acq", target="t", loc="l"), read_ctx)
    for s in states:
        symstate.run_seq(ctx, s, prims)
    assert NO_ACQ_PERMISSION in [d.kind for d in ctx.diagnostics]


# ---------------------------------------------------------------------------
# Relaxed accesses and fences
# ---------------------------------------------------------------------------

def test_relaxed_read_of_zero_gains_nothing():
    result, chk, table, _ = run_main("""
invariant Q(V) = V != 0 ==> a |-> 42;
proc main(l)
  requires { Acq(l, Q) && Init(l) }
  ensures { true }
{
  x := [l]_rlx;
}
""".replace("proc main(l)", "proc main(l)"))
    finals = result.final_states
    assert result.verified
    # on the x == 0 paths there must be no down-heap chunks
    for st in finals:
        zero = chk.info["main"]
        down = [k for k in st.heap if k[1] == HeapLabel.DOWN.value]
        if down:
            # only reachable when x != 0
            x = st.env["x"]
            s = Solver()
            assert s.is_feasible(list(st.path) + [T.eq(x, T.ZERO)]) == "no"


def test_fence_rel_true_noop():
    v = single_verdict(WRAP.format(body="fence_rel(true);"))
    assert v.status == "verified"


def test_fence_acq_empty_noop():
    result, *_ = run_main(WRAP.format(body="alloc_na(a); fence_acq;"))
    (st,) = result.final_states
    assert all(k[1] == HeapLabel.REAL.value for k in st.heap)
    assert result.verified


RELAXED_CONJUNCT = """
invariant R(V) = V >= 0;
invariant Q(V) = V == 1 ==> Acq(m, R);
proc main() returns (m, r) requires {{ true }} ensures {{ r == 1 ==> Acq(m, R) }}
{{ alloc_acq(m, R); alloc_acq(l, Q); [l]_rel := 1; r := [l]_rlx; {fence} }}
"""


def test_fence_acq_moves_a_conjunct_instance_into_an_empty_real_heap():
    # the relaxed read gains Acq(m, R) under the down modality; the fence
    # moves its conjunct instance to the real heap, which holds none
    v = single_verdict(RELAXED_CONJUNCT.format(fence="fence_acq;"))
    assert v.status == "verified", [d.format() for d in v.diagnostics]
    v = single_verdict(RELAXED_CONJUNCT.format(fence=""))
    assert [d.format() for d in v.diagnostics] == [
        "4:1: ExhaleFailure [postcondition]: no AcqConjunct(m, 0) instance held"]


def test_fence_rel_value_mismatch():
    v = single_verdict("""
proc main() requires { true } ensures { true }
{ alloc_na(a); [a]_na := 41; fence_rel(a |-> 42); }
""")
    assert v.status == "failed"
    assert EXHALE_FAILURE in kinds(v)


def test_fence_round_trip_matches_release_acquire():
    # the fenced corpus pair reproduces the release/acquire pair's final
    # resources (checked end-to-end in the acceptance suite via the monitor)
    rel = verify(corpus_text("RelAcqDblMsgPassSplit.rsl"))
    fen = verify(corpus_text("FencesDblMsgPassSplit.rsl"))
    assert rel.ok and fen.ok


# ---------------------------------------------------------------------------
# CAS and fetch-update
# ---------------------------------------------------------------------------

CAS_SETUP = """
invariant Q(V) = V == 1 ==> a |-> 7;
proc main(l) returns (x)
  requires { a |-> 7 && RMWAcq(l, Q) && Rel(l, Q) && Init(l) }
  ensures { %s }
{
  %s
}
"""


def test_cas_gave_up_resource():
    # success of CAS(l, 0, 1): tmp gains Q(0) (vacuous), the release takes
    # a |-> 7 from the real heap; expected net effect computed by hand from
    # the rule: the thread no longer holds a on the success path
    v = single_verdict(CAS_SETUP % ("x == 0 ==> a |-> 7", "x := CAS_rel_acq(l, 0, 1);"))
    assert v.status == "failed"   # on success x == 0 the resource is gone
    v2 = single_verdict(CAS_SETUP % ("x != 0 ==> a |-> 7", "x := CAS_rel_acq(l, 0, 1);"))
    assert v2.status == "verified"


def test_cas_same_value_zero_net_delta():
    # reading and writing the same value with a nonvacuous invariant keeps
    # the frame with the invariant: no net transfer either way
    v = single_verdict(CAS_SETUP % ("a |-> 7", "x := CAS_rel_acq(l, 1, 1);"))
    assert v.status == "verified"


def test_cas_relaxed_lands_down_and_takes_up():
    # computed from the rule: with tau = rlx the gained part sits under the
    # down modality (unusable before a fence) and the released part must
    # come from the up heap
    gained_unusable = single_verdict("""
invariant Q(V) = V == 1 ==> a |-> 7;
proc main(l)
  requires { RMWAcq(l, Q) && Rel(l, Q) && Init(l) }
  ensures { true }
{
  y := CAS_rlx(l, 1, 2);
  z := [a]_na;
}
""")
    assert gained_unusable.status == "failed"
    assert INSUFFICIENT_PERMISSION in kinds(gained_unusable)
    released_needs_up = single_verdict(CAS_SETUP % ("true", "x := CAS_rlx(l, 0, 1);"))
    assert released_needs_up.status == "failed"


def test_cas_failure_branch_keeps_state():
    # failing the compare (x != 5) changes nothing beyond the havoc of x
    v = single_verdict(CAS_SETUP % ("x != 5 ==> a |-> 7", "x := CAS_rel_acq(l, 5, 1);"))
    assert v.status == "verified"


def test_cas_checks_preconditions():
    v = single_verdict("""
invariant Q(V) = V >= 0;
proc main(l) requires { Init(l) && Rel(l, Q) } ensures { true }
{ x := CAS_rel_acq(l, 0, 1); }
""")
    assert MISSING_RMW_PERMISSIONS in kinds(v)


def test_faa_pure_invariant_noop():
    v = single_verdict("""
invariant Q(V) = true;
proc main(l)
  requires { RMWAcq(l, Q) && Rel(l, Q) && Init(l) }
  ensures { RMWAcq(l, Q) && Rel(l, Q) && Init(l) }
{
  t := FAA_rel_acq(l, 1);
}
""")
    assert v.status == "verified"


def test_faa_case_split():
    # both read-value cases of the never-failing CAS verify
    v = single_verdict("""
invariant Q(V) = V == 1 ==> d |-> _;
proc main(c, d)
  requires { d |-> _ && RMWAcq(c, Q) && Rel(c, Q) && Init(c) }
  ensures { true }
{
  t := FAA_rel_acq(c, -1);
}
""")
    assert v.status == "verified"


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------

def test_rewrite_identity_justified():
    v = single_verdict("""
invariant Q(V) = V != 0 ==> a |-> 42;
proc main() requires { true } ensures { true }
{ alloc_na(a); alloc_acq(x, Q); rewrite Acq(x, Q) to Acq(x, Q); }
""")
    assert v.status == "verified"


def test_rewrite_not_justified():
    v = single_verdict("""
invariant Q1(V) = V != 0 ==> a |-> 42;
invariant Q2(V) = V != 0 ==> a |-> 43;
proc main() requires { true } ensures { true }
{ alloc_na(a); alloc_acq(x, Q1); rewrite Acq(x, Q1) to Acq(x, Q2); }
""")
    assert v.status == "failed"
    assert REWRITE_NOT_JUSTIFIED in kinds(v)


def test_rewrite_after_read_rejected():
    v = single_verdict("""
invariant Q1(V) = V != 0 ==> a |-> 42;
invariant Q2(V) = V != 0 ==> a |-> 42;
proc main() requires { true } ensures { true }
{
  alloc_na(a);
  [a]_na := 42;
  alloc_acq(x, Q1);
  [x]_rel := 1;
  y := [x]_acq;
  rewrite Acq(x, Q1) to Acq(x, Q2);
}
""")
    assert REWRITE_AFTER_READ in kinds(v)


def test_rewrite_splits_for_forking():
    res = verify(corpus_text("FencesDblMsgPassAcqRewrite.rsl"))
    assert res.ok


# ---------------------------------------------------------------------------
# Ghost locations
# ---------------------------------------------------------------------------

def test_ghost_alloc_and_transfer_through_invariant():
    v = single_verdict("""
invariant Q(V) = V != 0 ==> g |-> 5;
proc main() requires { true } ensures { true }
{
  ghost_alloc(g);
  [g]_na := 5;
  alloc_acq(l, Q);
  [l]_rel := 1;
  x := [l]_acq;
}
""")
    assert v.status == "verified"


def test_ghost_fence_identity():
    result, *_ = run_main(WRAP.format(
        body="ghost_alloc(g); [g]_na := 5; fence_rel(g |-> 5);"))
    assert result.verified
    (st,) = result.final_states
    # the chunk never left the real heap
    assert all(k[1] == HeapLabel.REAL.value for k in st.heap)


def test_ghost_exhale_under_modality():
    res = verify("""
proc take(ghost g) requires { Down(g |-> 5) } ensures { true } { skip; }
proc main() requires { true } ensures { true }
{ ghost_alloc(g); [g]_na := 5; call take(g); }
""")
    assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------

def test_spin_loop_gains_ownership():
    res = verify(corpus_text("RelAcqMsgPass.rsl"))
    assert res.ok


def test_while_false_post_equals_pre():
    result, *_ = run_main("""
proc main() requires { true } ensures { true }
{
  alloc_na(a);
  [a]_na := 3;
  while (false) invariant { true } { skip; }
  x := [a]_na;
}
""")
    assert result.verified
    (st,) = result.final_states
    assert st.perm(st.env["a"], "val", HeapLabel.REAL) is T.ONE


def test_annotated_loop_verifies():
    res = verify(corpus_text("RSLSpinLock.rsl"))
    assert res.ok


def test_loop_without_invariant_rejected():
    v = single_verdict(WRAP.format(body="x := 0; while (x < 3) { x := x + 1; }"))
    assert MISSING_LOOP_INVARIANT in kinds(v)


def test_loop_body_cannot_touch_frame():
    v = single_verdict("""
proc main() requires { true } ensures { true }
{
  alloc_na(a);
  [a]_na := 1;
  x := 0;
  while (x != 1) invariant { true } { [a]_na := 2; x := 1; }
}
""")
    assert v.status == "failed"
    assert INSUFFICIENT_PERMISSION in kinds(v)


def test_spin_loop_over_a_non_atomic_read_rejected():
    v = single_verdict(WRAP.format(body="alloc_na(a); [a]_na := 1; while ([a]_na == 0);"))
    assert [(d.kind, d.rule, d.message) for d in v.diagnostics] == [
        (MISSING_LOOP_INVARIANT, "spin loop", "spin loops must read atomically")]


def test_spin_leak_rejected():
    # a spin loop that keeps reading a value which would carry resources
    v = single_verdict("""
invariant Q(V) = V == 0 ==> a |-> 1;
proc main(l, a)
  requires { Acq(l, Q) && Init(l) }
  ensures { true }
{
  while ([l]_acq == 0);
}
""")
    assert SPIN_PATTERN_RESOURCE_LEAK in kinds(v)


SPIN_ON = """
invariant Q(V) = {q};
invariant R(V) = V == 0 ==> b |-> 1;
proc main(l, a, b)
  requires {{ Acq(l, {inv}) && Init(l) }}
  ensures {{ true }}
{{
  while ([l]_acq == 0);
}}
"""


@pytest.mark.parametrize("q, inv, leaks", [
    # a resource in the branch the loop discards leaks, one in the exit does not
    ("V == 0 ? a |-> 1 : true", "Q", True),
    ("V == 0 ? true : a |-> 1", "Q", False),
    # each held conjunct is scanned: Q is clean on V == 0, R is not
    ("V != 0 ==> a |-> 1", "Q && R", True),
    ("V != 0 ==> a |-> 1", "Q", False),
])
def test_spin_leak_scans_each_branch_and_conjunct(q, inv, leaks):
    v = single_verdict(SPIN_ON.format(q=q, inv=inv))
    if leaks:
        assert kinds(v) == [SPIN_PATTERN_RESOURCE_LEAK]
    else:
        assert v.status == "verified", [d.format() for d in v.diagnostics]


SPIN_AFTER = """
invariant Q(V) = V == 0 ==> a |-> 1;
proc give(l) requires {{ Acq(l, Q) }} ensures {{ true }} {{ skip; }}
proc main(l, a, x)
  requires {{ Acq(l, Q) && Init(l){pre} }}
  ensures {{ true }}
{{
  {before}while ([l]_acq == 0);
}}
"""


@pytest.mark.parametrize("pre, before, leaks", [
    ("", "", True),
    # `give` takes the only conjunct instance: no held conjunct to scan
    ("", "call give(l); ", False),
    # on a contradictory path no continue value is feasible
    (" && x == 1 && x == 2", "", False),
])
def test_spin_leak_scans_only_held_conjuncts_on_feasible_values(pre, before, leaks):
    v = verify(SPIN_AFTER.format(pre=pre, before=before)).verdict_of("main")
    if leaks:
        assert kinds(v) == [SPIN_PATTERN_RESOURCE_LEAK]
    else:
        assert v.status == "verified", [d.format() for d in v.diagnostics]


def test_cas_spin_must_exit_on_success():
    v = single_verdict("""
invariant Q(V) = true;
proc main(l)
  requires { RMWAcq(l, Q) && Rel(l, Q) && Init(l) }
  ensures { true }
{
  while (CAS_rel_acq(l, 1, 0) == 1);
}
""")
    assert SPIN_PATTERN_RESOURCE_LEAK in kinds(v)


def test_down_in_loop_invariant_rejected():
    v = single_verdict("""
proc main(a)
  requires { Down(a |-> 1) }
  ensures { true }
{
  x := 0;
  while (x != 0) invariant { Down(a |-> 1) } { x := 0; }
}
""")
    assert DOWN_IN_LOOP_INVARIANT in kinds(v)


# ---------------------------------------------------------------------------
# Par and call
# ---------------------------------------------------------------------------

def test_par_fig4_join_state():
    res = verify(corpus_text("RelAcqDblMsgPassSplit.rsl"))
    assert res.ok
    main = res.verdict_of("main")
    (st,) = main.obligations[0].final_states
    names = {c.ref.name for c in st.heap.values()}
    assert {"a", "b", "l"} <= names


def test_trivial_thread():
    v = single_verdict(WRAP.format(
        body="par { thread requires { true } ensures { true } { skip; } }"))
    assert v.status == "verified"


def test_specs_are_lowered_before_the_body():
    # an unsupported fraction in a postcondition wins over a loop with no
    # invariant in the body, for a procedure as for a thread
    loop = "while (q == 0) { skip; }"
    proc = ("proc main(a, q) requires { a |-> 1 } ensures { a |-> 1 @ q } "
            f"{{ {loop} }}")
    thread = ("proc main(a, q) requires { a |-> 1 } ensures { true } "
              "{ par { thread requires { a |-> 1 } ensures { a |-> 1 @ q } "
              f"{{ {loop} }} }} }}")
    for source in (proc, thread):
        v = single_verdict(source)
        assert v.status == "unsupported" and "symbolic fraction" in v.reason, source
    v = single_verdict(proc.replace(" @ q", ""))
    assert v.status == "failed" and kinds(v) == [MISSING_LOOP_INVARIANT]


def test_fork_two_full_claimants_fails():
    v = single_verdict("""
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
    assert v.status == "failed"
    assert EXHALE_FAILURE in kinds(v)


def test_call_with_logical_variable():
    res = verify("""
proc get(p) returns (r)
  requires { p |-> v }
  ensures { p |-> v && r == v }
{
  r := [p]_na;
}
proc main() requires { true } ensures { true }
{
  alloc_na(a);
  [a]_na := 9;
  y := call get(a);
  [a]_na := y + 1;
}
""")
    assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]


def test_call_insufficient_resources():
    v = verify("""
proc eat(p) requires { p |-> _ } ensures { true } { skip; }
proc main() requires { true } ensures { true }
{ alloc_na(a); [a]_na := 1; call eat(a); call eat(a); }
""").verdict_of("main")
    assert v.status == "failed"


CALL_NO_TARGET = """
proc f(a) returns (r)
  requires {{ a |-> 0 }}
  ensures {{ a |-> 1 && r == 2 }}
{{ [a]_na := 1; r := 2; }}
proc main(a) requires {{ a |-> 0 }} ensures {{ a |-> {post} }}
{{ call f(a); }}
"""


def test_call_without_target_havocs_a_fresh_return():
    ok = CALL_NO_TARGET.format(post=1)
    chk, table, _ = pipeline(ok)
    main = chk.program.procedures[1]
    assert "havoc $ret1" in encoder.dump_primitives(encoder.build_obligations(chk, table, main))
    assert verify(ok).verdict_of("main").status == "verified"
    v = verify(CALL_NO_TARGET.format(post=2)).verdict_of("main")
    assert [(d.kind, d.span.line) for d in v.diagnostics] == [(EXHALE_FAILURE, 6)]


CALL_F = """
proc f(a) requires {{ {pre} }} ensures {{ {post} }} {{ skip; }}
proc main() requires {{ true }} ensures {{ true }}
{{ alloc_na(b); [b]_na := 1; call f(b); }}
"""


@pytest.mark.parametrize("pre, post, kind, message", [
    # the points-to binds v though a pure fact names it first
    ("v == 1 && a |-> v", "a |-> v", None, None),
    ("v == 2 && a |-> v", "a |-> v", EXHALE_FAILURE, "cannot establish $log1 == 2"),
    # a logical variable no points-to binds
    ("x |-> 1", "true", INSUFFICIENT_PERMISSION, "location '$log1' is not bound"),
    ("v == 1", "true", INSUFFICIENT_PERMISSION, "variable '$log1' has no value here"),
    # constant fractions with `-` and `*` add up to the whole
    ("a |-> 1 @ 1 - 1/2 && a |-> 1 @ 2 * 1/4", "a |-> 1", None, None),
])
def test_call_binds_logical_variables_from_points_to(pre, post, kind, message):
    v = verify(CALL_F.format(pre=pre, post=post)).verdict_of("main")
    if kind is None:
        assert v.status == "verified", [d.format() for d in v.diagnostics]
    else:
        (d,) = v.diagnostics
        assert (d.kind, d.message, d.span.line) == (kind, message, 4)


# A callee's spec is instantiated at the call as a define is at its use: a
# diagnostic raised at a node of the instance sits at the call, and a pure
# fact that an argument makes a top-level `&&` splits into facts.
CALL_AT = """proc f({params}) requires {{ {pre} }} ensures {{ {post} }} {{ skip; }}
proc main(y)
{{
  alloc_na(b);
  [b]_na := 1;
  call f({args});
}}
"""
CAP_2 = (BRANCH_CAP_EXCEEDED, "more than 2 branches explored")

CALL_PROBES = {
    "fraction-argument": (
        "a, k", "a |-> _ @ k", "a |-> _ @ k", "b, 2", {},
        {"f": ("unsupported", []),
         "main": ("failed", [("6:3", SYNTAX_ERROR, "fraction 2 outside (0, 1]")])}),
    "branch-cap": (
        "a, x", "(x == 1 ==> a |-> 1) && (x == 2 ==> a |-> 2) && (x == 3 ==> a |-> 3)",
        "true", "b, y", {"branch_cap": 2},
        {"f": ("failed", [("1:50", *CAP_2)]), "main": ("failed", [("6:3", *CAP_2)])}),
    "and-argument": (
        "p", "p", "true", "1 == 1 && y == 2", {},
        {"f": ("verified", []),
         "main": ("failed", [("6:3", EXHALE_FAILURE, "cannot establish y == 2")])}),
}


@pytest.mark.parametrize("params, pre, post, args, opts, expected", CALL_PROBES.values(),
                         ids=CALL_PROBES)
def test_a_callee_spec_is_instantiated_at_the_call(params, pre, post, args, opts, expected):
    res = verify(CALL_AT.format(params=params, pre=pre, post=post, args=args), **opts)
    assert not res.parse_diagnostics, [d.format() for d in res.parse_diagnostics]
    assert {v.name: (v.status, [(str(d.span), d.kind, d.message) for d in v.diagnostics])
            for v in res.verdicts} == expected


def test_invariant_carrying_atomic_resources():
    # a location invariant may hand over the release permission of another
    # location; the chained message pass below moves a |-> 9 through two
    # atomics (spin conditions must match the invariant guards)
    res = verify("""
invariant QM(V) = V == 1 ==> a |-> 9;
invariant QL(V) = V == 1 ==> (Rel(m, QM) && Init(m));

proc main()
  requires { true }
  ensures { true }
{
  alloc_na(a);
  [a]_na := 9;
  alloc_acq(m, QM);
  alloc_acq(l, QL);
  [m]_rel := 0;
  [l]_rel := 1;
  par {
    thread
      requires { Acq(l, QL) && Init(l) && a |-> 9 }
      ensures { true }
    {
      t := [l]_acq;
      if (t == 1) {
        [m]_rel := 1;
      }
    }
    thread
      requires { Acq(m, QM) && Init(m) }
      ensures { a |-> 9 }
    {
      while ([m]_acq != 1);
      z := [a]_na;
    }
  }
}
""")
    assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]


def test_releasing_unowned_resource_fails():
    # the writer to m must own what QM(1) transfers
    v = verify("""
invariant QM(V) = V == 1 ==> a |-> 9;
proc main(m, a)
  requires { Rel(m, QM) && Init(m) }
  ensures { true }
{
  [m]_rel := 1;
}
""").verdict_of("main")
    assert v.status == "failed"
    assert EXHALE_FAILURE in kinds(v)


# ---------------------------------------------------------------------------
# Statement locality / dumps
# ---------------------------------------------------------------------------

def _nested_prims(prims):
    """Every primitive of a list, with those nested in branches and bodies."""
    for p in prims:
        yield p
        if isinstance(p, encoder.Branch):
            yield from _nested_prims(p.then + p.els)
        if isinstance(p, encoder.ForEachHeldConjunct):
            for body in p.bodies.values():
                yield from _nested_prims(body)


def test_encoding_is_state_independent():
    chk, table, solver = pipeline(corpus_text("RelAcqDblMsgPassSplit.rsl"))
    proc = chk.program.procedures[0]
    first = encoder.build_obligations(chk, table, proc)
    second = encoder.build_obligations(chk, table, proc)
    assert first == second
    a = encoder.dump_primitives(first)
    assert a == encoder.dump_primitives(second)
    assert "exhale" in a and "foreach held AcqConjunct" in a
    # primitives are plain data: no field of any corpus primitive is callable
    checked_prims = 0
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".rsl"):
            continue
        front = api.check_source(corpus_text(name), name)
        if front.parse_diagnostics:
            continue
        for proc in front.program.procedures:
            try:
                obligations = encoder.build_obligations(front.checked, front.table, proc)
            except (FrontendError, UnsupportedFeature):
                continue
            for ob in obligations:
                for blk in ob.blocks:
                    for p in _nested_prims(blk.prims):
                        checked_prims += 1
                        assert not hasattr(p, "__dict__"), p   # _fields is all it holds
                        for f in p._fields:
                            assert not callable(getattr(p, f)), (name, p, f)
    assert checked_prims > 1000


DOUBLE_MODALITY_SRC = """\
invariant Q1(V) = V != 0 ==> Up(a |-> 42);
invariant Q2(V) = V != 0 ==> b |-> 7;
proc main() requires { true } ensures { true }
{ alloc_na(b); alloc_na(a); alloc_acq(l, Q2); alloc_acq(m, Q1);
  [m]_rel := 0; x := [m]_rlx; }
"""


VALUE_SITES = """
invariant P(V) = a |-> 1;
invariant Q(V) = V == 1 ==> b |-> V;
proc main(a, b, k) requires { a |-> 1 && b |-> 1 } ensures { true }
{ alloc_rmw(x, P); alloc_rmw(y, Q); [x]_rel := k; [y]_rel := k + 1; c := CAS_rel_acq(y, 1, 2); }
"""


def test_lowered_bodies_carry_the_value_of_v():
    chk, table, _ = pipeline(VALUE_SITES)
    [ob] = encoder.build_obligations(chk, table, chk.program.procedures[0])
    k = S.EVar("k")
    body_rules = ("release write", "compare-and-swap read gain", "compare-and-swap release")
    seen = {}
    for blk in ob.blocks:
        for p in _nested_prims(blk.prims):
            if getattr(p, "take", "own") == "none" or getattr(p, "rule", "") not in body_rules:
                continue
            # Q's body is an implication, P's a points-to to `a`
            body = "Q" if isinstance(p.enc, EImplies) else "P" if "a.val" in L.pp_enc(p.enc) else None
            if body:
                seen.setdefault((p.rule, body), []).append(p.value)
    assert seen == {
        # a body without V leaves the value unset ...
        ("release write", "P"): [None, None],
        ("compare-and-swap read gain", "P"): [None],
        ("compare-and-swap release", "P"): [None],
        # ... one with V carries the site's expression
        ("release write", "Q"): [k, S.EBin("+", k, S.EInt(1))],
        ("compare-and-swap read gain", "Q"): [S.EVar("c")],
        ("compare-and-swap release", "Q"): [S.EInt(2)],
    }
    # each (entry, modality) is lowered once: both writes share Q's body
    q_writes = [p.enc for blk in ob.blocks for p in _nested_prims(blk.prims)
                if isinstance(p, encoder.Exhale) and p.take == "own"
                and isinstance(p.enc, EImplies)]
    assert len(q_writes) == 2 and q_writes[0] is q_writes[1]
    dump = encoder.dump_primitives([ob])
    assert "exhale (k + 1 == 1 ==> acc(b.val, 1)@real" in dump
    assert "exhale[tmp-first] (2 == 1 ==> acc(b.val, 1)@real" in dump


def test_verify_and_dump_agree_on_double_modality(tmp_path, capsys):
    # the read of m runs Q1's body, which cannot be lowered into the down
    # heap; the dump shows the error at that body's branch
    path = tmp_path / "stacked.rsl"
    path.write_text(DOUBLE_MODALITY_SRC, encoding="utf-8")
    assert cli.main(["verify", str(path), "--dump-primitives"]) == 0
    dumped = capsys.readouterr().out
    assert cli.main(["verify", str(path)]) == 1
    verified = capsys.readouterr().out
    line = "1:33: DoubleModality"
    assert line in dumped and "{real->down}" in dumped
    assert line in verified and "{real->down}" in verified


# Each of x and y holds its own invariant; y's body cannot be lowered at a
# write to LOC.  The write branches on the invariant LOC holds, so the body
# fails the write only when it is y's.
TABLE_BODY_ERRORS = {
    "double-modality": (
        "invariant Q1(V) = true;\ninvariant Q2(V) = Up(b |-> 1);\n"
        "proc main(b) requires { true } ensures { true }\n"
        "{ alloc_acq(x, Q1); alloc_acq(y, Q2); [LOC]_rlx := 0; }\n",
        "2:22: DoubleModality [assertion-encoding]: "
        "cannot relabel a up atom with {real->up}"),
    "fraction": (
        "invariant Q1(V) = true;\ninvariant Q2(V) = V == 0 ? true : j |-> 7 @ V;\n"
        "proc main(j) requires { true } ensures { true }\n"
        "{ alloc_acq(x, Q1); alloc_acq(y, Q2); [LOC]_rel := 2; }\n",
        "2:35: SyntaxError [well-formedness]: fraction 2 outside (0, 1]"),
}


@pytest.mark.parametrize("source,failure", TABLE_BODY_ERRORS.values(),
                         ids=TABLE_BODY_ERRORS)
def test_a_table_body_error_fails_only_the_write_that_runs_it(source, failure):
    assert single_verdict(source.replace("LOC", "x")).status == api.VERIFIED
    v = single_verdict(source.replace("LOC", "y"))
    assert v.status == api.FAILED
    assert [d.format() for d in v.diagnostics] == [failure]
    # the dump shows the error in the branch of y's invariant, index 1
    chk, table, _ = pipeline(source.replace("LOC", "x"))
    dump = encoder.dump_primitives(encoder.build_obligations(
        chk, table, chk.program.procedures[0]))
    assert f"branch x.rel == 1 {{\n      exhale error({failure})\n" in dump


# A table-body error fails only the path that runs it, as any failed check
# does: the procedure's other paths and obligations still run and report.
# P4's rewrite runs Q2's body as a star part beside Q1's implication.
UP_B = "invariant Q1(V) = true;\ninvariant Q2(V) = Up(b |-> 1);\n"
RELABEL_UP = ("2:22: DoubleModality [assertion-encoding]: "
              "cannot relabel a up atom with {real->up}")
PATH_LOCAL_ERRORS = {
    "thread-after-error": (
        UP_B + "proc main(b, a) requires { true } ensures { true }\n"
        "{ alloc_acq(x, Q1); alloc_acq(y, Q2); [y]_rlx := 0;\n"
        "  par {\n"
        "    thread requires { true } ensures { a |-> 1 } { skip; }\n"
        "  }\n"
        "}\n",
        [RELABEL_UP,
         "6:5: ExhaleFailure [thread postcondition]: no permission to a.val"]),
    "other-branch-post": (
        UP_B + "proc main(b, c) requires { true } ensures { c == 5 }\n"
        "{ alloc_acq(x, Q1); alloc_acq(y, Q2);\n"
        "  if (c == 0) { [y]_rlx := 0; } else { skip; }\n"
        "}\n",
        [RELABEL_UP,
         "3:1: ExhaleFailure [postcondition]: cannot establish c == 5 (counter: c!0 = 6)"]),
    "earlier-sibling-failure": (
        UP_B + "proc main(b, a, c) requires { true } ensures { true }\n"
        "{ alloc_acq(x, Q1); alloc_acq(y, Q2);\n"
        "  if (c == 0) { [a]_na := 1; } else { [y]_rlx := 0; }\n"
        "}\n",
        ["5:17: InsufficientPermission [non-atomic write]: no permission to a.init",
         RELABEL_UP]),
    "star-part": (
        "invariant Q1(V) = V == 1 ==> c |-> 2;\ninvariant Q2(V) = Up(Down(b |-> 1));\n"
        "proc main(b, a, c) requires { true } ensures { true }\n"
        "{ alloc_acq(x, Q1 && Q2);\n"
        "  rewrite Acq(x, Q1 && Q2) to Acq(x, Q2 && Q1);\n"
        "  par {\n"
        "    thread requires { true } ensures { a |-> 1 } { skip; }\n"
        "  }\n"
        "}\n",
        ["2:22: DoubleModality [assertion-encoding]: "
         "nested up/down modalities are not part of the logic",
         "7:5: ExhaleFailure [thread postcondition]: no permission to a.val"]),
    # the inhale keeps Q1's dead V == 1 case, which reaches Q2's error first
    "star-part-after-dead-case": (
        "invariant Q1(V) = V == 1 ==> V == 2;\ninvariant Q2(V) = Up(Down(b |-> 1));\n"
        "proc main(b) requires { true } ensures { true }\n"
        "{ alloc_acq(x, Q1 && Q2);\n"
        "  rewrite Acq(x, Q1 && Q2) to Acq(x, Q2 && Q1);\n"
        "}\n",
        ["2:22: DoubleModality [assertion-encoding]: "
         "nested up/down modalities are not part of the logic"]),
}


@pytest.mark.parametrize("source,failures", PATH_LOCAL_ERRORS.values(),
                         ids=PATH_LOCAL_ERRORS)
def test_a_table_body_error_leaves_the_other_paths_running(source, failures):
    v = single_verdict(source)
    assert v.status == api.FAILED
    assert [d.format() for d in v.diagnostics] == failures
    chk, table, _ = pipeline(source)
    built = encoder.build_obligations(chk, table, chk.program.procedures[0])
    assert len(v.obligations) == len(built)


SCOPE_SRC = """
invariant Q(V) = V == 1 ==> z |-> 3;
invariant R(V) = V == 1 ==> w |-> 5;
proc main(l) requires { Acq(l, Q) } ensures { true }
{
  par {
    thread requires { Acq(l, R) } ensures { true }
    {
      c := 5;
      i := 0;
      while (i < 2) invariant { i >= 0 } { a := c; i := i + 1; }
    }
  }
}
"""


def _havocs(dump: str, block: str) -> list:
    """The havoc lines of each block of a primitive dump with that title."""
    out, current = [], None
    for line in dump.splitlines():
        if line.startswith("-- "):
            current = [] if line.startswith(f"-- {block} @") else None
            if current is not None:
                out.append(current)
        elif current is not None and line.strip().startswith("havoc "):
            current.append(line.strip()[len("havoc "):])
    return out


def test_scope_havoc_sets():
    # main's own setup havocs what its body and annotations mention, not the
    # `w` of the invariant a thread precondition names; the thread does
    chk, table, _ = pipeline(SCOPE_SRC)
    assert "w" in chk.info["main"].classes
    proc = chk.program.procedures[0]
    dump = encoder.dump_primitives(encoder.build_obligations(chk, table, proc))
    [setup] = _havocs(dump, "setup")
    assert "l" in setup and "z" in setup and "w" not in setup
    [thread_setup] = _havocs(dump, "thread setup")
    assert "w" in thread_setup
    # both arms of the loop havoc exactly what its body assigns
    [loop] = _havocs(dump, "while")
    assert loop == ["a", "i", "a", "i"]


# ---------------------------------------------------------------------------
# free, and the bitwise operators
# ---------------------------------------------------------------------------

def test_free_gives_up_the_location():
    v = single_verdict(WRAP.format(body="alloc_na(x); [x]_na := 1; free(x);"))
    assert v.status == "verified"
    v = single_verdict(WRAP.format(body="alloc_na(x); [x]_na := 1; free(x); free(x);"))
    assert v.status == "failed"
    (d,) = v.diagnostics
    assert (d.kind, d.rule, d.message) == (
        INSUFFICIENT_PERMISSION, "free", "no permission to x.init")


FREE_RMW = """
invariant Q(V) = V >= 0;
proc main() requires {{ true }} ensures {{ true }} {{ alloc_rmw(l, Q); {body} }}
"""


def test_free_of_an_atomic_location():
    # the mode check rejects the program
    res = verify(FREE_RMW.format(body="free(l);"))
    assert [d.kind for d in res.parse_diagnostics] == [MIXED_MODE_ACCESS]


BIT_OPS = (("|", T.bitor, 3), ("^", T.bitxor, 3), (">>", T.shr, 0))
BIT_PROC = "proc main(x, y) requires {{ x == 1 && y == 2 }} ensures {{ {post} }} {{ skip; }}"


def test_bitwise_operators_are_opaque_atoms():
    st = symstate.SymState()
    x, y = T.mk_var("x", T.INT), T.mk_var("y", T.INT)
    st.env.update(x=x, y=y)
    for op, mk, value in BIT_OPS:
        assert symstate.eval_expr(st, S.EBin(op, S.EVar("x"), S.EVar("y"))) is mk(x, y)
        v = single_verdict(BIT_PROC.format(post=f"(x {op} y) == (x {op} y)"))
        assert v.status == "verified", op
        # the value is right for x == 1 and y == 2, but the operator is opaque
        v = single_verdict(BIT_PROC.format(post=f"(x {op} y) == {value}"))
        assert v.status == "failed", op
        (d,) = v.diagnostics
        assert d.kind == INCOMPLETE_SOLVER and OPAQUE_ATOM in d.message, op


SHIFT = "proc main(a) requires {{ a |-> 0 }} ensures {{ a |-> {post} }} {{ [a]_na := 1 << 2; }}"


def test_literal_shift_is_folded():
    assert single_verdict(SHIFT.format(post=4)).status == "verified"
    v = single_verdict(SHIFT.format(post=5))
    assert [(d.kind, d.counter_facts) for d in v.diagnostics] == [(EXHALE_FAILURE, "a.val = 4")]


def test_each_thread_spec_is_lowered_once(monkeypatch):
    # a thread's pre- and postcondition are lowered for the fork and the join,
    # and the thread's own obligation reuses those trees; the corpus forks
    # 30 threads
    callers = collections.Counter()
    lower = encoder.EncodeCtx.lower

    def counted(self, a, *rest):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):   # a comprehension's frame
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return lower(self, a, *rest)

    monkeypatch.setattr(encoder.EncodeCtx, "lower", counted)
    for entry in cli.load_manifest(MANIFEST):
        api.verify_file(corpus_path(entry.file))
    assert callers["_par"] == 60
    assert callers["_obligation"] == 0
