"""Primitive semantics: permission accounting, havoc, transfers, wildcards."""

from fractions import Fraction

from conftest import LOCK_CLIENT, MANIFEST, SQUARE, corpus_path, single_verdict, verify

from weakmem import api, solver as SV, symstate, terms as T
from weakmem.cli import load_manifest
from weakmem.diagnostics import EXHALE_FAILURE, INCOMPLETE_SOLVER
from weakmem.encoder import Exhale, Inhale, pp_primitive
from weakmem.solver import NO, OPAQUE_ATOM, SAT, UNSAT, Solver, YES
from weakmem.speclogic import (
    EAcc, ECond, EFieldEq, EImplies, EPure, FULL, HeapLabel, WILDCARD, estar,
    pp_enc, substitute,
)
from weakmem.symstate import (
    VALUE, Chunk, ExecContext, SymState, exhale, inhale, perm_str,
    run_prim, transfer_heap,
)
from weakmem import syntax as S


def make_ctx(classes=None):
    return ExecContext(Solver(), classes or {})


def fresh_state(ctx, locs=("a",)):
    st = SymState()
    for name in locs:
        st.env[name] = ctx.fresh_ref(name, False)
    return st


def acc(loc, fld, k, label=HeapLabel.REAL):
    return EAcc(loc, fld, Fraction(k) if k != WILDCARD else WILDCARD, label)


def points_to(loc, value, k=1):
    return estar([
        acc(loc, "val", k), acc(loc, "init", k),
        EFieldEq(loc, "val", S.EInt(value)),
        EFieldEq(loc, "init", S.TRUE_E),
    ])


def do_inhale(ctx, st, enc):
    out = inhale(ctx, st, enc)
    assert len(out) == 1
    return out[0]


def do_exhale(ctx, st, enc, expect_fail=False):
    before = len(ctx.diagnostics)
    prim = Exhale(enc, rule="test", kind=EXHALE_FAILURE)
    out = exhale(ctx, st, prim)
    failed = len(ctx.diagnostics) > before
    assert failed == expect_fail, [d.format() for d in ctx.diagnostics[before:]]
    return out


def val_perm(st, ref, fld="val", label=HeapLabel.REAL):
    return st.perm(ref, fld, label)


# ---------------------------------------------------------------------------
# Inhale
# ---------------------------------------------------------------------------

def test_inhale_halves_merge():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, acc("a", "val", "1/2"))
    st = do_inhale(ctx, st, acc("a", "val", "1/2"))
    assert val_perm(st, st.env["a"]) is T.ONE


def test_inhale_true_unchanged():
    ctx = make_ctx()
    st = fresh_state(ctx)
    chunks = dict(st.heap)
    st = do_inhale(ctx, st, EPure(S.TRUE_E))
    assert st.heap == chunks and st.path == []


def test_inhale_conflicting_values_infeasible():
    # two full points-to chunks exceed the field capacity: the path dies
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, points_to("a", 42))
    st = do_inhale(ctx, st, points_to("a", 43))
    assert ctx.solver.is_feasible(st.path) == "no"


WRITES = """
proc main(a, b) requires { a |-> v && b |-> 1 } ensures { true }
{ x := [a]_na; [b]_na := 2; [a]_na := x * x; }
"""


def test_a_known_value_is_inhaled_into_its_chunk():
    # the literal written to b and the value v of a become the chunks'
    # values; only the product goes through a fresh symbol and an equation
    verdict = single_verdict(WRITES)
    (st,) = verdict.obligations[0].final_states
    assert st.digest() == ("real:a.init=1:true; real:a.val=1:val!8; "
                           "real:b.init=1:true; real:b.val=1:2")
    assert [T.pretty(f) for f in st.path] == ["(val!8 + -1*(v!0 * v!0) == 0)"]


def test_a_second_value_of_one_chunk_is_an_equation():
    # the second half's value meets the first's as a fact, so the path dies
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, estar([acc("a", "val", "1/2"), EFieldEq("a", "val", S.EInt(1)),
                                   acc("a", "val", "1/2"), EFieldEq("a", "val", S.EInt(2))]))
    assert st.digest() == "real:a.val=1:1"
    assert st.path == [T.FALSE]


# ---------------------------------------------------------------------------
# Exhale
# ---------------------------------------------------------------------------

def test_exhale_rational_accounting():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, acc("a", "val", 1))
    (st,) = do_exhale(ctx, st, acc("a", "val", "1/2"))
    (st,) = do_exhale(ctx, st, acc("a", "val", "1/2"))
    assert val_perm(st, st.env["a"]) is T.ZERO
    do_exhale(ctx, st, acc("a", "val", "1/2"), expect_fail=True)


def test_exhale_true_unchanged():
    ctx = make_ctx()
    st = fresh_state(ctx)
    (st2,) = do_exhale(ctx, st, EPure(S.TRUE_E))
    assert st2.heap == st.heap


def test_init_wildcard_duplicable():
    # one Init inhale supports any number of Init exhales
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, acc("l", "init", WILDCARD))
    (st,) = do_exhale(ctx, st, acc("l", "init", WILDCARD))
    (st,) = do_exhale(ctx, st, acc("l", "init", WILDCARD))
    assert val_perm(st, st.env["l"], "init") is not T.ZERO


def test_value_dropped_at_zero_permission():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, points_to("a", 42))
    ref = st.env["a"]
    key = st.key(ref, "val", HeapLabel.REAL)
    (st,) = do_exhale(ctx, st, points_to("a", 42))
    assert key not in st.heap  # chunk gone: value havoced with it


def test_exhale_value_mismatch_fails():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, points_to("a", 41))
    do_exhale(ctx, st, points_to("a", 42), expect_fail=True)


# ---------------------------------------------------------------------------
# permOf / havoc
# ---------------------------------------------------------------------------

def test_symbolic_and_spare_demands_fail_with_their_amounts():
    # no source program reaches these: the front end keeps exact demands
    # off the fields and instances that hold wildcard amounts
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, acc("a", "val", 1))
    (st,) = do_exhale(ctx, st, acc("a", "val", WILDCARD))
    # 1 - w covers 1/2 only if w <= 1/2, which this path does not know
    do_exhale(ctx, st.clone(), acc("a", "val", "1/2"), expect_fail=True)
    assert ctx.diagnostics[-1].message == "insufficient permission to a.val: need 1/2"
    st = do_inhale(ctx, fresh_state(ctx), acc("a", "val", 1))
    # the exact part takes all that is held, and a wildcard needs more
    do_exhale(ctx, st, estar([acc("a", "val", 1), acc("a", "val", WILDCARD)]),
              expect_fail=True)
    assert ctx.diagnostics[-1].message == "no spare permission to a.val for a wildcard"


def test_perm_of_absent_chunk_zero():
    ctx = make_ctx()
    st = fresh_state(ctx)
    assert val_perm(st, st.env["a"]) is T.ZERO


def test_havoc_fresh_symbol_semantics():
    ctx = make_ctx({"x": "value"})
    st = fresh_state(ctx)
    from weakmem.encoder import HavocVar
    (st,) = run_prim(ctx, st, HavocVar("x"))
    x = st.env["x"]
    assert ctx.solver.assert_entailed(st.path, T.eq(x, x)).verdict == "yes"
    assert ctx.solver.assert_entailed(st.path, T.eq(x, T.ZERO)).verdict != "yes"


# ---------------------------------------------------------------------------
# Heap transfer
# ---------------------------------------------------------------------------

def test_transfer_down_to_real():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, estar([
        acc("a", "val", 1, HeapLabel.DOWN),
        EFieldEq("a", "val", S.EInt(42), HeapLabel.DOWN),
    ]))
    st = transfer_heap(st, HeapLabel.DOWN, HeapLabel.REAL)
    ref = st.env["a"]
    assert val_perm(st, ref) is T.ONE
    assert val_perm(st, ref, label=HeapLabel.DOWN) is T.ZERO
    chunk = st.heap[st.key(ref, "val", HeapLabel.REAL)]
    assert ctx.solver.assert_entailed(st.path, T.eq(chunk.value, T.mk_int(42))).verdict == "yes"


def test_transfer_empty_identity():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, points_to("a", 1))
    before = {k: (c.perm, c.value) for k, c in st.heap.items()}
    st = transfer_heap(st, HeapLabel.DOWN, HeapLabel.REAL)
    assert {k: (c.perm, c.value) for k, c in st.heap.items()} == before


def test_transfer_merges_and_unifies_values():
    # permission addition oracle: 1/2 + 1/2 = 1, and the two values unify
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, estar([
        acc("a", "val", "1/2", HeapLabel.DOWN),
        EFieldEq("a", "val", S.EInt(7), HeapLabel.DOWN),
    ]))
    st = do_inhale(ctx, st, acc("a", "val", "1/2", HeapLabel.REAL))
    st = transfer_heap(st, HeapLabel.DOWN, HeapLabel.REAL)
    ref = st.env["a"]
    assert val_perm(st, ref) is T.ONE
    chunk = st.heap[st.key(ref, "val", HeapLabel.REAL)]
    assert ctx.solver.assert_entailed(st.path, T.eq(chunk.value, T.mk_int(7))).verdict == "yes"


# ---------------------------------------------------------------------------
# Predicate chunks: duplicability matrix and snapshot preservation
# ---------------------------------------------------------------------------

def test_acq_conjunct_not_duplicable():
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, EAcc("l", 0, Fraction(1), vals_empty=True))
    (st,) = do_exhale(ctx, st, EAcc("l", 0, Fraction(1), vals_empty=True))
    do_exhale(ctx, st, EAcc("l", 0, Fraction(1), vals_empty=True),
              expect_fail=True)


def test_rmw_conjunct_duplicable():
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, EAcc("l", 0, WILDCARD))
    (st,) = do_exhale(ctx, st, EAcc("l", 0, WILDCARD))
    (st,) = do_exhale(ctx, st, EAcc("l", 0, WILDCARD))
    assert st.perm(st.env["l"], 0, HeapLabel.REAL) is not T.ZERO


def test_reinhale_keeps_vals_read():
    # re-inhaling a held conjunct must not reset its snapshot
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, EAcc("l", 0, Fraction(1), vals_empty=True))
    key = st.key(st.env["l"], 0, HeapLabel.REAL)
    st.heap[key].value = (T.mk_int(1),)
    st = do_inhale(ctx, st, EAcc("l", 0, Fraction(1), vals_empty=True))
    assert st.heap[key].value == (T.mk_int(1),)
    assert st.heap[key].perm is T.mk_int(2)


def test_symbolic_full_conjunct_is_held_under_need_full():
    # 1 + w is no num, so the solver decides that it covers a full share
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, EAcc("l", 0, FULL))
    st = do_inhale(ctx, st, EAcc("l", 0, WILDCARD))
    ref = st.env["l"]
    assert st.heap[st.key(ref, 0, HeapLabel.REAL)].perm.kind == "lin"
    assert symstate._held_conjuncts(ctx, st, ref, need_full=True) == [0]


def test_wildcard_conjunct_is_not_held_under_need_full():
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, EAcc("l", 0, WILDCARD))
    ref = st.env["l"]
    assert st.heap[st.key(ref, 0, HeapLabel.REAL)].perm.kind == "var"
    assert symstate._held_conjuncts(ctx, st, ref, need_full=True) == []
    assert symstate._held_conjuncts(ctx, st, ref, need_full=False) == [0]


def test_notread_branch_is_a_disjunction_of_equalities():
    # the snapshot lists values in the order they were read, not by tid
    from weakmem.encoder import BranchCond
    from weakmem.symstate import _branch_cond_term
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, EAcc("l", 0, Fraction(1), vals_empty=True))
    x, v1, v2 = (T.mk_var(n, T.INT) for n in ("nr_x", "nr_v1", "nr_v2"))
    st.env["x"] = x
    cond = BranchCond("notread", loc="l", idx=0, value=S.EVar("x"))
    assert _branch_cond_term(ctx, st, cond) is T.TRUE
    st.heap[st.key(st.env["l"], 0, HeapLabel.REAL)].value = (v2, v1)
    got = _branch_cond_term(ctx, st, cond)
    assert got is T.not_(T.or_(T.eq(x, v1), T.eq(x, v2)))
    assert [T.pretty(a) for a in got.args[0].args] == [
        T.pretty(T.eq(x, v1)), T.pretty(T.eq(x, v2))]


# ---------------------------------------------------------------------------
# Tmp-preferring exhale (the CAS release step)
# ---------------------------------------------------------------------------

def tmp_points_to(loc, value, k=1):
    return estar([
        acc(loc, "val", k, HeapLabel.TMP), acc(loc, "init", k, HeapLabel.TMP),
        EFieldEq(loc, "val", S.EInt(value), HeapLabel.TMP),
        EFieldEq(loc, "init", S.TRUE_E, HeapLabel.TMP),
    ])


def run_prefer_tmp(ctx, st, enc, expect_fail=False):
    before = len(ctx.diagnostics)
    out = exhale(ctx, st, Exhale(enc, rule="test", take="tmp"))
    failed = len(ctx.diagnostics) > before
    assert failed == expect_fail, [d.format() for d in ctx.diagnostics[before:]]
    return out


def test_prefer_tmp_all_from_tmp():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, points_to("a", 7))        # real copy stays
    st = do_inhale(ctx, st, tmp_points_to("a", 7))    # tmp holds 1
    (st,) = run_prefer_tmp(ctx, st, points_to("a", 7))
    ref = st.env["a"]
    assert val_perm(st, ref, label=HeapLabel.TMP) is T.ZERO   # min(1,1) from tmp
    assert val_perm(st, ref) is T.ONE                         # real untouched


def test_prefer_tmp_empty_tmp_falls_back():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, points_to("a", 7))
    (st,) = run_prefer_tmp(ctx, st, points_to("a", 7))
    assert val_perm(st, st.env["a"]) is T.ZERO


def test_prefer_tmp_split_sources_equates_values():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, estar([
        acc("a", "val", "1/2", HeapLabel.TMP), acc("a", "init", "1/2", HeapLabel.TMP),
        EFieldEq("a", "val", S.EInt(7), HeapLabel.TMP),
        EFieldEq("a", "init", S.TRUE_E, HeapLabel.TMP),
    ]))
    st = do_inhale(ctx, st, estar([
        acc("a", "val", "1/2"), acc("a", "init", "1/2"),
        EFieldEq("a", "val", S.EInt(7)), EFieldEq("a", "init", S.TRUE_E),
    ]))
    (st,) = run_prefer_tmp(ctx, st, points_to("a", 7))
    ref = st.env["a"]
    assert val_perm(st, ref) is T.ZERO
    assert val_perm(st, ref, label=HeapLabel.TMP) is T.ZERO


def test_prefer_tmp_insufficient_fails():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, tmp_points_to("a", 7, "1/2"))
    run_prefer_tmp(ctx, st, points_to("a", 7), expect_fail=True)


def test_plain_and_tmp_first_exhales_fail_in_their_own_order():
    # a plain exhale checks values first, against the entry state; a
    # tmp-first exhale takes its demands first, fields sorted (init < val)
    ctx = make_ctx()
    do_exhale(ctx, fresh_state(ctx), points_to("a", 7), expect_fail=True)
    assert ctx.diagnostics[-1].message == "no permission to a.val"
    run_prefer_tmp(ctx, fresh_state(ctx), points_to("a", 7), expect_fail=True)
    assert ctx.diagnostics[-1].message == (
        "insufficient permission to a.init: tmp heap holds 0 "
        "and the fallback heap holds nothing")


def test_prefer_tmp_values_read_failure_names_the_values():
    # the check runs after the demands, on what is left of the instance
    ctx = make_ctx()
    st = fresh_state(ctx, ("l",))
    st = do_inhale(ctx, st, EAcc("l", 0, Fraction(1)))
    st.heap[st.key(st.env["l"], 0, HeapLabel.REAL)].value = (T.mk_int(3),)
    run_prefer_tmp(ctx, st, EAcc("l", 0, Fraction(1, 2), vals_empty=True),
                   expect_fail=True)
    d = ctx.diagnostics[-1]
    assert d.kind == EXHALE_FAILURE
    assert d.message == "values {3} were already read through AcqConjunct(l, 0)"


# ---------------------------------------------------------------------------
# Assert does not consume
# ---------------------------------------------------------------------------

def test_assert_check_preserves_state():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, points_to("a", 42))
    prim = Exhale(points_to("a", 42), rule="test", kind=EXHALE_FAILURE, take="none")
    (st2,) = run_prim(ctx, st, prim)
    assert val_perm(st2, st2.env["a"]) is T.ONE
    assert not ctx.diagnostics


# ---------------------------------------------------------------------------
# Independence groups: every query is sliced to the goal's groups
# ---------------------------------------------------------------------------

gx = T.mk_var("gx", T.INT)
gy = T.mk_var("gy", T.INT)


def assumed(*facts):
    st = SymState()
    for f in facts:
        st.assume(f)
    return st


def test_infeasible_remainder_entails_anything():
    # 4*gy = 3 has no integer solution, so the full path entails gx = 1 even
    # though the goal's own slice is empty
    ctx = make_ctx()
    st = assumed(T.eq(T.scale(4, gy), T.mk_int(3)))
    assert ctx.entailed(st, T.eq(gx, T.ONE)).verdict == "yes"
    assert not ctx.feasible(st)


def test_same_slice_different_remainder_not_leaked_by_cache():
    # both states slice gx = 2 to [gx = 1]; only the first has a dead remainder
    dead = assumed(T.eq(gx, T.ONE), T.eq(T.scale(4, gy), T.mk_int(3)))
    live = assumed(T.eq(gx, T.ONE), T.eq(gy, T.ZERO))
    goal = T.eq(gx, T.mk_int(2))
    ctx = make_ctx()
    assert [ctx.entailed(s, goal).verdict for s in (dead, live, dead)] == ["yes", "no", "yes"]
    ctx = make_ctx()
    res = ctx.entailed(live, goal)
    assert res.verdict == "no" and res.hint == "gx = 1"
    assert ctx.entailed(dead, goal).verdict == "yes"


def test_opaque_remainder_makes_sliced_no_unknown():
    st = assumed(T.eq(gx, T.ONE), T.eq(T.bitand(gy, T.ONE), T.ONE))
    res = make_ctx().entailed(st, T.eq(gx, T.mk_int(2)))
    assert res.verdict == "unknown" and res.hint is None


def test_assume_on_clone_keeps_parent_groups():
    parent = assumed(T.eq(gx, T.ONE), T.eq(gy, T.mk_int(2)))
    before = {a: g.facts for a, g in parent.groups.items()}
    child = parent.clone()
    child.assume(T.lt(gx, gy))
    assert len(child.all_groups()) == 1 and len(parent.all_groups()) == 2
    assert {a: g.facts for a, g in parent.groups.items()} == before
    assert parent.groups[gx.tid].facts == (T.eq(gx, T.ONE),)
    assert child.groups[gx.tid].facts == tuple(child.path)
    ctx = make_ctx()
    assert ctx.entailed(parent, T.lt(gx, gy)).verdict == "yes"
    assert ctx.entailed(parent, T.eq(gy, T.mk_int(2))).verdict == "yes"
    assert ctx.entailed(child, T.eq(gy, T.mk_int(2))).verdict == "yes"


def test_assume_merges_groups_in_one_step():
    gz = T.mk_var("gz", T.INT)
    a, b, c = T.eq(gx, T.ONE), T.eq(gy, T.mk_int(2)), T.eq(gz, T.mk_int(3))
    parent = assumed(a, b, c)
    before = dict(parent.groups)
    child = parent.clone()
    joined = T.eq(T.add(gx, gy, gz), T.mk_int(6))
    child.assume(joined)
    # the touched groups' facts in the order the fact's atoms reach them,
    # then the fact; the parent keeps its groups, objects and all
    first_seen = dict.fromkeys(before[t] for t in T.atom_ids(joined))
    merged = child.groups[gx.tid]
    assert merged.facts == tuple(f for g in first_seen for f in g.facts) + (joined,)
    assert sorted(merged.facts, key=lambda f: f.tid) == sorted([a, b, c, joined],
                                                               key=lambda f: f.tid)
    assert child.groups[gy.tid] is merged and child.groups[gz.tid] is merged
    assert parent.groups == before
    # a fact its one group holds already leaves the state as it is
    for fact in (a, joined):
        child.assume(fact)
        assert child.groups[gx.tid] is merged


def test_prefer_tmp_names_a_wildcard_remainder():
    # a tmp remainder not provably positive sends the wildcard to the fallback
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, tmp_points_to("a", 7))
    (st,) = do_exhale(ctx, st, acc("a", "val", WILDCARD, HeapLabel.TMP))
    run_prefer_tmp(ctx, st, acc("a", "val", WILDCARD), expect_fail=True)
    assert ctx.diagnostics[-1].message == (
        "insufficient permission to a.val: tmp heap holds 1 + -1*w!2 "
        "and the fallback heap holds nothing")


def split_failure(assume=None):
    """The diagnostic of taking 1/2 of a.val from a tmp heap holding a
    wildcard amount, with an optional extra fact over that amount, and the
    amount's name."""
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, acc("a", "val", WILDCARD, HeapLabel.TMP))
    w = val_perm(st, st.env["a"], label=HeapLabel.TMP)
    if assume is not None:
        st.assume(assume(w))
    run_prefer_tmp(ctx, st, acc("a", "val", "1/2"), expect_fail=True)
    return ctx.diagnostics[-1], T.pretty(w)


def test_split_amounts_names_an_uncovered_demand():
    # the solver decides the wildcard amount may be below 1/2, so the whole
    # demand goes to the fallback heap, which holds nothing
    d, w = split_failure()
    assert d.kind == EXHALE_FAILURE
    assert d.message == (
        f"insufficient permission to a.val: tmp heap holds {w} "
        "and the fallback heap holds nothing")


def test_split_amounts_takes_an_uncovered_demand_from_the_fallback():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, acc("a", "val", "1/2"))
    st = do_inhale(ctx, st, acc("a", "val", WILDCARD, HeapLabel.TMP))
    w = val_perm(st, st.env["a"], label=HeapLabel.TMP)
    (st,) = run_prefer_tmp(ctx, st, acc("a", "val", "1/2"))
    assert val_perm(st, st.env["a"]) is T.ZERO
    assert val_perm(st, st.env["a"], label=HeapLabel.TMP) is w


def test_split_amounts_names_the_unknown_bound():
    x, y = T.mk_var("x", T.INT), T.mk_var("y", T.INT)
    d, _ = split_failure(lambda w: T.le(w, T.mul(x, y)))
    assert d.kind == INCOMPLETE_SOLVER
    assert d.message == (
        "cannot split the demand on a.val between the tmp heap and its fallback "
        f"(solver returned unknown: {OPAQUE_ATOM})")


# ---------------------------------------------------------------------------
# Values nest at most T.MAX_HEIGHT terms deep
# ---------------------------------------------------------------------------

def products(n, op="*"):
    body = " ".join([f"x := x {op} y;"] * n)
    return f"proc main(x, y) requires {{ true }} ensures {{ true }} {{ {body} }}"


def test_value_height_bound():
    # x starts as a variable, one term high, and each product adds a level
    (v,) = verify(products(T.MAX_HEIGHT - 1)).verdicts
    assert v.status == "verified"
    reason = f"a value nested more than {T.MAX_HEIGHT} terms deep"
    (v,) = verify(products(T.MAX_HEIGHT)).verdicts
    assert (v.status, v.reason) == ("unsupported", reason)
    # these operators do not flatten, so long chains of them reach the bound
    for op in ("*", "/", "%", "<<", "==", "<"):
        (v,) = verify(products(1200, op)).verdicts
        assert (v.status, v.reason) == ("unsupported", reason), op


# ---------------------------------------------------------------------------
# The pos flag: amounts positive by construction
# ---------------------------------------------------------------------------

def chunk_of(st, fld="val", label=HeapLabel.REAL):
    return st.heap[st.key(st.env["a"], fld, label)]


def test_inhale_sets_pos():
    ctx = make_ctx()
    st = fresh_state(ctx)
    enc = estar([acc("a", "val", "1/2"), acc("a", "init", WILDCARD),
                 EAcc("a", 0, WILDCARD)])
    pkey = st.key(st.env["a"], 0, HeapLabel.REAL)
    st = do_inhale(ctx, st, enc)
    assert chunk_of(st).pos and chunk_of(st, "init").pos and st.heap[pkey].pos
    # inhaling into a held chunk sets it too
    chunk_of(st).pos = chunk_of(st, "init").pos = st.heap[pkey].pos = False
    st = do_inhale(ctx, st, enc)
    assert chunk_of(st).pos and chunk_of(st, "init").pos and st.heap[pkey].pos


def test_takes_keep_or_clear_pos():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, acc("a", "val", 1))
    (st,) = do_exhale(ctx, st, acc("a", "val", WILDCARD))
    # a wildcard take assumes w < 1, so the rest 1 - w stays positive
    (w,) = T.linear_parts(chunk_of(st).perm)[1]
    assert chunk_of(st).perm is T.sub(T.ONE, w) and chunk_of(st).pos
    # the flag answers with no solver to ask
    assert symstate._positive(ExecContext(None, {}), st, chunk_of(st)).verdict == YES
    # an exact take leaving 1/2 - w clears it, though this path bounds w
    st.assume(T.le(w, T.mk_int(Fraction(1, 4))))
    (st,) = do_exhale(ctx, st, acc("a", "val", "1/2"))
    assert chunk_of(st).perm is T.sub(T.mk_int(Fraction(1, 2)), w)
    assert not chunk_of(st).pos
    assert symstate._positive(ctx, st, chunk_of(st)).verdict == YES   # by the solver
    # an exact take whose rest is positive by token positivity alone sets it
    st = do_inhale(ctx, st, acc("a", "init", "1/2"))
    st = do_inhale(ctx, st, acc("a", "init", WILDCARD))
    (st,) = do_exhale(ctx, st, acc("a", "init", "1/2"))
    assert chunk_of(st, "init").pos
    chunk_of(st, "init").pos = False
    (st,) = do_exhale(ctx, st, acc("a", "init", WILDCARD))
    assert chunk_of(st, "init").pos


def test_transfer_merge_ors_pos():
    for src_pos, dst_pos in ((True, False), (False, True), (False, False)):
        ctx = make_ctx()
        st = fresh_state(ctx)
        ref = st.env["a"]
        for label, pos in ((HeapLabel.DOWN, src_pos), (HeapLabel.REAL, dst_pos)):
            w = ctx.fresh_token()
            st.heap[st.key(ref, "val", label)] = Chunk(
                ref, "val", label, w, ctx.fresh_field_value("val"), pos)
            st.heap[st.key(ref, 0, label)] = Chunk(ref, 0, label, w, (), pos)
        st = transfer_heap(st, HeapLabel.DOWN, HeapLabel.REAL)
        assert sorted(k[0] for k in st.heap) == [False, True]
        assert chunk_of(st).pos == (src_pos or dst_pos)
        assert st.heap[st.key(ref, 0, HeapLabel.REAL)].pos == (src_pos or dst_pos)


def test_clone_pos_is_independent():
    ctx = make_ctx()
    st = fresh_state(ctx)
    st = do_inhale(ctx, st, estar([acc("a", "val", 1), EAcc("a", 0, WILDCARD)]))
    copy = st.clone()
    pkey = st.key(st.env["a"], 0, HeapLabel.REAL)
    assert chunk_of(copy).pos and copy.heap[pkey].pos
    chunk_of(copy).pos = copy.heap[pkey].pos = False
    assert chunk_of(st).pos and st.heap[pkey].pos
    copy = st.clone()
    chunk_of(st).pos = st.heap[pkey].pos = False
    assert chunk_of(copy).pos and copy.heap[pkey].pos


def test_pos_flag_agrees_with_the_solver(monkeypatch):
    """Each positivity check the flag answers, the solver also answers yes."""
    answered = []
    flag_or_solver = symstate._positive

    def checked(ctx, state, chunk):
        if chunk.pos:
            res = ctx.entailed(state, T.lt(T.ZERO, chunk.perm))
            assert res.verdict == YES, (perm_str(chunk.perm), state.path)
            answered.append(chunk.perm)
        return flag_or_solver(ctx, state, chunk)

    monkeypatch.setattr(symstate, "_positive", checked)
    entries = load_manifest(MANIFEST)
    assert len(entries) == 21
    for entry in entries:
        for soundness in ("off", "report"):
            api.verify_file(corpus_path(entry.file),
                            opts=api.VerifyOptions(soundness=soundness))
    on_corpus = len(answered)
    assert on_corpus > 0
    for soundness in ("off", "report"):
        res = verify(LOCK_CLIENT, soundness=soundness)
        assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]
    assert len(answered) > on_corpus


def test_shortcuts_agree_with_the_solver(monkeypatch):
    """Each answer given without the split and the simplex, the simplex
    gives too: a fact set decided by syntax, a goal among the facts, and a
    `no` that fail_query records without checking the path's feasibility."""
    seen = {SAT: 0, UNSAT: 0, "goal": 0, "no": 0}
    by_syntax = SV._by_syntax

    def checked_syntax(facts, key):
        out = by_syntax(facts, key)
        if out is not None:
            res, _, reason = SV._sat_conjunction(facts)
            assert (res, reason) == (out, None), facts
            seen[out] += 1
        return out

    entailed = Solver.assert_entailed

    def checked_entailed(self, path, goal):
        path = [f for f in path if f is not T.TRUE]
        if goal is not T.FALSE and goal in path:
            assert SV._sat_conjunction(path + [T.not_(goal)])[0] == UNSAT, (path, goal)
            seen["goal"] += 1
        return entailed(self, path, goal)

    fail_query = symstate.ExecContext.fail_query

    def checked_fail_query(self, state, res, *rest):
        if res.verdict == NO:
            assert SV._sat_conjunction(state.path)[0] == SAT, state.path
            seen["no"] += 1
        return fail_query(self, state, res, *rest)

    monkeypatch.setattr(SV, "_by_syntax", checked_syntax)
    monkeypatch.setattr(Solver, "assert_entailed", checked_entailed)
    monkeypatch.setattr(symstate.ExecContext, "fail_query", checked_fail_query)
    entries = load_manifest(MANIFEST)
    assert len(entries) == 21
    for entry in entries:
        for soundness in ("off", "report"):
            api.verify_file(corpus_path(entry.file),
                            opts=api.VerifyOptions(soundness=soundness))
    for soundness in ("off", "report"):
        res = verify(LOCK_CLIENT, soundness=soundness)
        assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]
        # a product's fresh value meets the post as its own equation
        res = verify(SQUARE, soundness=soundness)
        assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# The value an invariant body's V stands for
# ---------------------------------------------------------------------------

def test_value_binding_acts_as_substitution_for_one_primitive():
    v = S.EInvVal()
    body = EImplies(S.EBin("==", v, S.EInt(1)), estar([
        acc("a", "val", 1), acc("a", "init", 1), EFieldEq("a", "val", v)]))
    value = S.EBin("+", S.EVar("k"), S.EInt(1))
    runs = []
    for prim in (Inhale(body, "test", value=value), Inhale(substitute(body, value), "test")):
        ctx = make_ctx()
        st = fresh_state(ctx)
        st.env["k"] = T.mk_var("k", T.INT)
        out = run_prim(ctx, st, prim)
        runs.append(([s.digest() for s in out], [s.path for s in out],
                     [dict(s.env) for s in out], next(ctx._count)))
        # the binding does not survive the primitive
        assert len(out) == 2 and all(VALUE not in s.env for s in out)
    # same states, facts and environments, and no fresh symbol of its own
    assert runs[0] == runs[1]
    # no program variable or encoder temporary can take the name
    assert not VALUE.isidentifier() and not VALUE.startswith("$")


# ---------------------------------------------------------------------------
# The straight-line path: flat stars and plain-number amounts
# ---------------------------------------------------------------------------

def test_cases_of_a_star_split_at_its_conditional_only():
    # a star's atoms go to the leaf of every case so far, in assertion order;
    # a conditional splits each case, then-cases before else-cases
    ctx = make_ctx()
    st = fresh_state(ctx)
    x = st.env["x"] = ctx.fresh_int("x")
    enc = estar([
        EPure(S.EBin(">=", S.EVar("x"), S.EInt(0))),
        ECond(S.EBin(">", S.EVar("x"), S.EInt(5)), EPure(S.EBin("<", S.EVar("x"), S.EInt(9))),
              EPure(S.EBin("!=", S.EVar("x"), S.EInt(3)))),
        EPure(S.EBin("!=", S.EVar("x"), S.EInt(7))),
    ])
    visits = []

    def leaf(ctx, case, atom):
        visits.append((case, S.pp_expr(atom.expr)))

    start = symstate._Case(st)
    then, els = symstate._cases(ctx, start, enc, leaf)
    assert [(c is start, c is then, c is els, text) for c, text in visits] == [
        (True, False, False, "x >= 0"),
        (False, True, False, "x < 9"),
        (False, False, True, "x != 3"),
        (False, True, False, "x != 7"),
        (False, False, True, "x != 7"),
    ]
    assert ctx.entailed(then.state, T.lt(T.mk_int(5), x)).verdict == YES
    assert ctx.entailed(els.state, T.le(x, T.mk_int(5))).verdict == YES


def amount_texts(one):
    """What atoms whose full amount is ``one`` print as: the encoded
    assertion, its primitive's dump, the state it inhales to and the
    messages of two failed exhales."""
    enc = estar([EAcc("a", "val", one), EAcc("a", "init", one),
                 EAcc("a", 0, one, vals_empty=True)])
    ctx = make_ctx()
    st = do_inhale(ctx, fresh_state(ctx), enc)
    texts = [pp_enc(enc), "\n".join(pp_primitive(Inhale(enc, "test"))), st.digest()]
    st = do_inhale(ctx, fresh_state(ctx), EAcc("a", "val", Fraction(1, 3)))
    for need in (Fraction(1, 2), one):
        do_exhale(ctx, st.clone(), EAcc("a", "val", need), expect_fail=True)
        texts.append(ctx.diagnostics[-1].message)
    return texts


def test_int_and_fraction_amounts_print_alike():
    texts = amount_texts(1)
    assert texts == amount_texts(Fraction(1))
    assert texts[0] == ("acc(a.val, 1)@real && acc(a.init, 1)@real && "
                        "acc(AcqConjunct(a, 0), 1)@real, valsRead == {}")
    assert texts[-2:] == ["insufficient permission to a.val: need 1/2, hold 1/3",
                          "insufficient permission to a.val: need 1, hold 1/3"]
