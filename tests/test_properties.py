"""Property suites: permission algebra, duplicability, idempotence, framing.

The randomised suites are seeded and self-contained so the acceptance module
can re-run them under its time budget.
"""

import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, corpus_text
from weakmem import api, syntax as S, terms as T
from weakmem.diagnostics import EXHALE_FAILURE
from weakmem.encoder import Exhale
from weakmem.solver import Solver, YES
from weakmem.speclogic import (
    EAcc, EFieldEq, EPure, WILDCARD, estar, substitute,
)
from weakmem.symstate import ExecContext, SymState, exhale, inhale

LOCS = ("a", "b", "c")
FRACS = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def make_ctx():
    return ExecContext(Solver(), {})


def fresh_state(ctx, locs=LOCS):
    stt = SymState()
    for name in locs:
        stt.env[name] = ctx.fresh_ref(name, False)
    return stt


def random_assertion(rng: random.Random):
    """A wildcard-free encoded assertion whose per-location totals stay <= 1."""
    budget = {loc: Fraction(1) for loc in LOCS}
    parts = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.random()
        loc = rng.choice(LOCS)
        if kind < 0.7:
            k = rng.choice(FRACS)
            if budget[loc] - k < 0:
                continue
            budget[loc] -= k
            atom = [EAcc(loc, "val", k), EAcc(loc, "init", k)]
            if rng.random() < 0.5:
                atom.append(EFieldEq(loc, "val", S.EInt(rng.randint(0, 5))))
                atom.append(EFieldEq(loc, "init", S.TRUE_E))
            part = estar(atom)
            if rng.random() < 0.3:
                # implications with constant guards stay deterministic
                from weakmem.speclogic import EImplies
                part = EImplies(S.EBool(True), part)
            parts.append(part)
        else:
            n = rng.randint(0, 9)
            parts.append(EPure(S.EBin("==", S.EInt(n), S.EInt(n))))
    return estar(parts)


def perm_map(stt: SymState):
    return {k: c.perm for k, c in stt.heap.items()}


def run_permission_algebra(iterations: int = 1000) -> None:
    """Cap, non-negativity and the inhale/exhale round trip."""
    rng = random.Random(20260808)
    ctx = make_ctx()
    for i in range(iterations):
        enc = random_assertion(rng)
        stt = fresh_state(ctx)
        (stt,) = inhale(ctx, stt, enc)
        for chunk in stt.heap.values():
            assert chunk.perm.kind == "num"
            assert 0 <= chunk.perm.data <= 1
        before = len(ctx.diagnostics)
        out = exhale(ctx, stt, Exhale(enc, rule="prop", kind=EXHALE_FAILURE))
        assert len(ctx.diagnostics) == before, \
            f"round-trip exhale failed on iteration {i}"
        (stt2,) = out
        assert all(p is T.ZERO for p in perm_map(stt2).values())


def run_duplicability_matrix() -> None:
    """Init/Rel/RMWAcq are duplicable; a full Acq conjunct is not."""
    ctx = make_ctx()
    for fld in ("init", "rel", "acq"):
        stt = fresh_state(ctx)
        (stt,) = inhale(ctx, stt, EAcc("a", fld, WILDCARD))
        for _ in range(2):
            before = len(ctx.diagnostics)
            (stt,) = exhale(ctx, stt, Exhale(EAcc("a", fld, WILDCARD),
                                             rule="dup", kind=EXHALE_FAILURE))
            assert len(ctx.diagnostics) == before
    # RMW-mode conjuncts: wildcard instances stay duplicable
    stt = fresh_state(ctx)
    (stt,) = inhale(ctx, stt, EAcc("a", 0, WILDCARD))
    for _ in range(2):
        before = len(ctx.diagnostics)
        (stt,) = exhale(ctx, stt, Exhale(EAcc("a", 0, WILDCARD),
                                         rule="dup", kind=EXHALE_FAILURE))
        assert len(ctx.diagnostics) == before
    # acquire-mode conjuncts: the second full exhale must fail
    stt = fresh_state(ctx)
    (stt,) = inhale(ctx, stt, EAcc("a", 0, Fraction(1)))
    before = len(ctx.diagnostics)
    (stt,) = exhale(ctx, stt, Exhale(EAcc("a", 0, Fraction(1)),
                                     rule="dup", kind=EXHALE_FAILURE))
    assert len(ctx.diagnostics) == before
    out = exhale(ctx, stt, Exhale(EAcc("a", 0, Fraction(1)),
                                  rule="dup", kind=EXHALE_FAILURE))
    assert len(ctx.diagnostics) == before + 1 and out == []


def run_acquire_idempotence() -> None:
    """Re-reading a recorded value through a conjunct yields nothing new."""
    from conftest import verify
    res = verify("""
invariant Q(V) = V != 0 ==> a |-> 42;
proc main(l) returns (x)
  requires { Acq(l, Q) && Init(l) }
  ensures { x != 0 ==> a |-> 42 }
{
  x := [l]_acq;
  y := [l]_acq;
  z := [l]_acq;
}
""")
    assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]


def run_cas_frame_maximization() -> None:
    """A same-value CAS with a nonvacuous invariant has zero net delta."""
    from conftest import verify
    res = verify("""
invariant Q(V) = V == 1 ==> a |-> 7;
proc main(l)
  requires { a |-> 7 && RMWAcq(l, Q) && Rel(l, Q) && Init(l) }
  ensures { a |-> 7 && RMWAcq(l, Q) && Rel(l, Q) && Init(l) }
{
  x := CAS_rel_acq(l, 1, 1);
}
""")
    assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]


def run_ghost_modality_invariance() -> None:
    """Exhaling up/down forms of a ghost points-to works on real chunks."""
    from conftest import verify
    res = verify("""
proc up_take(ghost g) requires { Up(g |-> 5) } ensures { g |-> 5 } { skip; }
proc down_take(ghost g) requires { Down(g |-> 5) } ensures { Up(g |-> 5) } { skip; }
proc main() requires { true } ensures { true }
{
  ghost_alloc(g);
  [g]_na := 5;
  call up_take(g);
  call down_take(g);
}
""")
    assert res.ok, [d.format() for v in res.verdicts for d in v.diagnostics]


# ---------------------------------------------------------------------------
# pytest entry points for the suites
# ---------------------------------------------------------------------------

def test_permission_algebra_1000():
    run_permission_algebra(1000)


def test_duplicability_matrix():
    run_duplicability_matrix()


def test_acquire_read_idempotence():
    run_acquire_idempotence()


def test_cas_frame_maximization():
    run_cas_frame_maximization()


def test_ghost_modality_invariance():
    run_ghost_modality_invariance()


# ---------------------------------------------------------------------------
# Frame property and exhale monotonicity
# ---------------------------------------------------------------------------

def test_frame_property():
    """Executing a primitive under a disjoint frame leaves the frame alone."""
    rng = random.Random(7)
    for _ in range(50):
        ctx = make_ctx()
        enc = random_assertion(rng)
        plain = fresh_state(ctx)
        framed = fresh_state(ctx, LOCS + ("f1", "f2"))
        frame = estar([
            EAcc("f1", "val", Fraction(1)), EAcc("f1", "init", Fraction(1)),
            EAcc("f2", "val", Fraction(1, 2)), EAcc("f2", "init", Fraction(1, 2)),
        ])
        (framed,) = inhale(ctx, framed, frame)
        frame_before = {k: c.perm for k, c in framed.heap.items()}
        (p1,) = inhale(ctx, plain, enc)
        (f1,) = inhale(ctx, framed, enc)
        names = lambda stt: {(k[1], stt_field_name(stt, k), k[3]): c.perm
                             for k, c in stt.heap.items()}
        def stt_field_name(stt, key):
            return stt.heap[key].ref.name
        # frame chunks unchanged, shared part evolves identically by name
        for k, p in frame_before.items():
            assert f1.heap[k].perm == p
        p_view = {(stt_field_name(p1, k), k[3]): c.perm for k, c in p1.heap.items()}
        f_view = {(stt_field_name(f1, k), k[3]): c.perm for k, c in f1.heap.items()
                  if stt_field_name(f1, k) in LOCS}
        assert p_view == f_view


def test_exhale_failure_monotone():
    """An exhale that fails keeps failing with pointwise-smaller permissions."""
    rng = random.Random(99)
    for _ in range(60):
        k_have = rng.choice(FRACS)
        k_want = rng.choice(FRACS)
        if k_want <= k_have:
            continue
        ctx = make_ctx()
        stt = fresh_state(ctx)
        (stt,) = inhale(ctx, stt, estar([EAcc("a", "val", k_have),
                                         EAcc("a", "init", k_have)]))
        want = estar([EAcc("a", "val", k_want), EAcc("a", "init", k_want)])
        before = len(ctx.diagnostics)
        exhale(ctx, stt.clone(), Exhale(want, rule="m", kind=EXHALE_FAILURE))
        assert len(ctx.diagnostics) == before + 1
        # shrink the held amount: must still fail
        smaller = k_have / 2
        ctx2 = make_ctx()
        st2 = fresh_state(ctx2)
        (st2,) = inhale(ctx2, st2, estar([EAcc("a", "val", smaller),
                                          EAcc("a", "init", smaller)]))
        exhale(ctx2, st2, Exhale(want, rule="m", kind=EXHALE_FAILURE))
        assert len(ctx2.diagnostics) == 1


# ---------------------------------------------------------------------------
# Structural properties via hypothesis
# ---------------------------------------------------------------------------

exprs = st.recursive(
    st.one_of(st.integers(-5, 5).map(S.EInt), st.just(S.EInvVal()),
              st.sampled_from(["x", "y"]).map(S.EVar)),
    lambda sub: st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub)
                  .map(lambda t: S.EBin(*t)),
    max_leaves=6)


@st.composite
def assertions(draw, max_depth=2):
    """An assertion nested at most ``max_depth`` connectives deep."""
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        choice = draw(st.integers(0, 1))
        if choice == 0:
            return S.APure(expr=draw(exprs))
        return S.APointsTo(loc=draw(st.sampled_from(["a", "b"])), value=draw(exprs))
    kind = draw(st.integers(0, 2))
    sub = assertions(depth - 1)
    if kind == 0:
        return S.AStar(parts=(draw(sub), draw(sub)))
    if kind == 1:
        return S.AImplies(cond=draw(exprs), body=draw(sub))
    return S.ACond(cond=draw(exprs), then=draw(sub), els=draw(sub))


@given(assertions(), st.integers(-3, 3))
@settings(max_examples=80, deadline=None)
def test_substitute_distributes_over_connectives(a, n):
    value = S.EInt(n)
    out = substitute(a, value)
    if isinstance(a, S.AStar):
        assert out == S.AStar(parts=tuple(substitute(p, value) for p in a.parts))
    elif isinstance(a, S.AImplies):
        assert isinstance(out, S.AImplies)
        assert out.body == substitute(a.body, value)
    elif isinstance(a, S.ACond):
        assert out.then == substitute(a.then, value)
        assert out.els == substitute(a.els, value)


@given(assertions())
@settings(max_examples=80, deadline=None)
def test_identity_rebuild_returns_the_assertion(a):
    assert S.map_assertion(a, lambda e: e) is a
    # an instance at no arguments is rebuilt at its span, but shares every
    # expression
    assert_same_exprs(S.instantiate(a, {}, USE_SPAN)[0], a)


def assert_same_exprs(got, want):
    def exprs(a):
        return [e for x in S.walk_assertion(a)
                for e in (getattr(x, f, None) for f in ("expr", "cond", "value", "frac"))
                if e is not None]
    got, want = exprs(got), exprs(want)
    assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


# Define bodies over the parameters p (a value) and l (a location), with
# every kind of assertion node; arguments may hold `&&`, so that a pure fact
# splits into a star when it is expanded.
macro_exprs = st.recursive(
    st.one_of(st.integers(-2, 2).map(S.EInt), st.sampled_from(["p", "x"]).map(S.EVar)),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["+", "==", "&&"]), sub, sub).map(lambda t: S.EBin(*t)),
        sub.map(lambda e: S.EUn("-", e))),
    max_leaves=5)


@st.composite
def macro_bodies(draw, max_depth=3):
    depth = draw(st.integers(0, max_depth))
    loc = st.sampled_from(["l", "a"])
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return S.APure(expr=draw(macro_exprs))
        if choice == 1:
            frac = draw(st.one_of(st.none(), macro_exprs))
            return S.APointsTo(loc=draw(loc), value=draw(macro_exprs), frac=frac)
        return S.AResource(kind=draw(st.sampled_from(["Init", "Rel"])), loc=draw(loc),
                           inv=("Q",))
    kind = draw(st.integers(0, 3))
    sub = macro_bodies(depth - 1)
    if kind == 0:
        return S.AStar(parts=tuple(draw(st.lists(sub, min_size=2, max_size=3))))
    if kind == 1:
        return S.AImplies(cond=draw(macro_exprs), body=draw(sub))
    if kind == 2:
        return S.ACond(cond=draw(macro_exprs), then=draw(sub), els=draw(sub))
    return S.AModal(kind="Up", body=draw(sub))


def three_walk_expansion(body, mapping, span):
    """A define's expansion as three walks: substitute, take the height of
    the result, then restamp every node with the use's span, splitting a
    pure fact at its top-level `&&`s and flattening stars."""
    def leaf(e):
        return mapping.get(e.name, e) if isinstance(e, S.EVar) else e

    def at_loc(n):
        return n.replace(loc=S.subst_loc(n.loc, mapping)) if hasattr(n, "loc") else n

    substituted = S.map_assertion(body, lambda e: S.map_expr(e, leaf), on_node=at_loc)

    def at_use(n):
        n = n.replace(span=span)
        if isinstance(n, S.APure) and isinstance(n.expr, S.EBin) and n.expr.op == "&&":
            return S.star([at_use(S.APure(expr=e, span=span))
                           for e in (n.expr.left, n.expr.right)])
        return S.star(n.parts) if isinstance(n, S.AStar) else n

    return (S.map_assertion(substituted, None, on_node=at_use),
            S.height(substituted))


def spans(a):
    return [x.span for x in S.walk_assertion(a)]


USE_SPAN = S.Span(9, 4, 9, 11)


@given(macro_bodies(), macro_exprs, st.sampled_from([S.EVar("m"), S.EInt(3)]))
@settings(max_examples=150, deadline=None)
def test_one_walk_expansion_matches_three_walks(body, p_arg, l_arg):
    mapping = {"p": p_arg, "l": l_arg}
    try:
        want, want_height = three_walk_expansion(body, mapping, USE_SPAN)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            S.instantiate(body, mapping, USE_SPAN)
        assert str(got.value) == str(exc)
        return
    got, height = S.instantiate(body, mapping, USE_SPAN)
    # Record equality leaves spans out
    assert got == want and spans(got) == spans(want)
    assert height == want_height


@given(assertions())
@settings(max_examples=80, deadline=None)
def test_walked_locations_are_free_vars(a):
    names = S.assertion_vars(a)
    locs = {x.loc for x in S.walk_assertion(a) if hasattr(x, "loc")}
    assert locs <= names
    renamed = S.assertion_vars(S.instantiate(a, {"a": S.EVar("z")}, USE_SPAN)[0])
    assert "a" not in renamed
    assert ("z" in renamed) == ("a" in names)


def test_frac_symbols_are_not_vars_but_are_substituted():
    pt = S.APointsTo(loc="a", value=S.EVar("x"), frac=S.EVar("k"))
    assert S.assertion_vars(pt) == {"a", "x"}
    assert S.instantiate(pt, {"k": S.EInt(1)}, USE_SPAN)[0].frac == S.EInt(1)
    half_v = S.APointsTo(loc="a", value=S.EInt(0), frac=S.EBin("/", S.EInvVal(), S.EInt(2)))
    assert substitute(half_v, S.EInt(1)).frac == S.EBin("/", S.EInt(1), S.EInt(2))


def test_location_slot_rejects_an_expression():
    for a in (S.AResource(kind="Init", loc="l"), S.APointsTo(loc="l", value=S.EInt(1))):
        with pytest.raises(ValueError):
            S.instantiate(a, {"l": S.EInt(3)}, USE_SPAN)
        assert S.instantiate(a, {"l": S.EVar("m")}, USE_SPAN)[0].loc == "m"


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                          st.integers(-8, 8)), min_size=1, max_size=4),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 8)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-8, 8)))
@settings(max_examples=60, deadline=None)
def test_solver_monotone(path_rows, goal_row, extra_row):
    """Adding facts never turns an entailment yes into no."""
    x = T.mk_var("hx", T.INT)
    y = T.mk_var("hy", T.INT)

    def fact(row):
        a, b, c = row
        return T.le(T.add(T.scale(a, x), T.scale(b, y)), T.mk_int(c))

    solver = Solver()
    path = [fact(r) for r in path_rows]
    goal = fact(goal_row)
    if solver.assert_entailed(path, goal).verdict == YES:
        assert solver.assert_entailed(path + [fact(extra_row)], goal).verdict == YES


def test_inhale_exhale_restores_permissions_once_more():
    # deterministic, wildcard-free round trip on a handpicked nest
    ctx = make_ctx()
    stt = fresh_state(ctx)
    from weakmem.speclogic import ECond, EImplies
    enc = estar([
        EImplies(S.EBool(True), estar([EAcc("a", "val", Fraction(1, 2)),
                                       EAcc("a", "init", Fraction(1, 2))])),
        ECond(S.EBool(False), EPure(S.TRUE_E),
              estar([EAcc("b", "val", Fraction(1)), EAcc("b", "init", Fraction(1))])),
    ])
    (stt,) = inhale(ctx, stt, enc)
    (stt,) = exhale(ctx, stt, Exhale(enc, rule="rt", kind=EXHALE_FAILURE))
    assert all(p is T.ZERO for p in perm_map(stt).values())
    assert not ctx.diagnostics


# ---------------------------------------------------------------------------
# Fuzzing: edited corpus programs never make the verifier raise
# ---------------------------------------------------------------------------

# Inserted by the edits: the language's own symbols, and letters and digits
# outside ASCII, which the lexer must report rather than read.
FUZZ_INSERTS = list("aV0_ ;:=(){}[]<>!&|+-*/@?,\n") + [
    "==>", "|->", "//", "_rlx", "CAS_rel(", "é", "ß", "²", "١٢", "٣"]


def fuzz_edit(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        if rng.random() < 0.6:
            text = text[:k] + rng.choice(FUZZ_INSERTS) + text[k:]
        else:
            text = text[:k] + text[k + rng.randint(1, 4):]
    return text


def test_edited_corpus_programs_never_raise():
    rng = random.Random(11)
    sources = [corpus_text(n) for n in sorted(os.listdir(CORPUS)) if n.endswith(".rsl")]
    for _ in range(300):
        source = fuzz_edit(rng, rng.choice(sources))
        try:
            api.verify_source(source)
        except Exception as exc:  # report the input that broke it
            raise AssertionError(f"{type(exc).__name__} on input:\n{source}") from exc
