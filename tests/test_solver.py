"""Solver tests: entailment, feasibility, sets, fractions, SMT emission."""

import shutil
import sys
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from weakmem import solver as SV, terms as T
from weakmem.solver import (
    CASE_CAP_HIT, DEPTH_CAP_HIT, ExternalSolverError, NO, OPAQUE_ATOM, SAT, Solver,
    UNKNOWN, YES, _sat_conjunction, emit_smtlib, run_external,
)
from weakmem.symstate import ExecContext, SymState

x = T.mk_var("x", T.INT)
y = T.mk_var("y", T.INT)


def test_entailed_disequality(solver):
    assert solver.assert_entailed([T.ne(x, T.ZERO)], T.not_(T.eq(x, T.ZERO))).verdict == YES


def test_entailed_no_with_hint(solver):
    res = solver.assert_entailed([T.eq(x, T.ONE)], T.eq(x, T.mk_int(2)))
    assert res.verdict == NO
    assert res.hint and "x" in res.hint


def brute_force_fraction_entailment(constraints, goal, denominator=64):
    """Oracle: exhaustive search for a counterexample on the 1/denominator grid.

    All constraints here are strict or non-strict linear comparisons over
    (0, 1); if a rational counterexample exists, one exists on a fine grid,
    so finding none on the grid pins the expected verdict for this query.
    """
    grid = [Fraction(n, denominator) for n in range(0, denominator + 1)]
    for w1 in grid:
        for w2 in grid:
            env = {"w1": w1, "w2": w2}
            if all(c(env) for c in constraints) and not goal(env):
                return False, (w1, w2)
    return True, None


def test_wildcard_accounting_entailment(solver):
    # expected value computed by the brute-force oracle below, then asserted
    ok, _ = brute_force_fraction_entailment(
        [lambda e: e["w1"] < 1, lambda e: e["w2"] < e["w1"],
         lambda e: e["w1"] > 0, lambda e: e["w2"] > 0],
        lambda e: e["w1"] + 0 <= 1)
    assert ok, "oracle disagrees with the pinned expectation"
    w1 = T.mk_var("w1", T.FRAC)
    w2 = T.mk_var("w2", T.FRAC)
    path = [T.lt(w1, T.ONE), T.lt(w2, w1), T.gt(w1, T.ZERO), T.gt(w2, T.ZERO)]
    assert solver.assert_entailed(path, T.le(w1, T.ONE)).verdict == YES


def test_feasibility_contradiction(solver):
    assert solver.is_feasible([T.eq(x, T.ZERO), T.ne(x, T.ZERO)]) == NO


def test_feasibility_empty(solver):
    assert solver.is_feasible([]) == YES


def test_feasibility_fraction_split(solver):
    k1 = T.mk_var("k1", T.FRAC)
    k2 = T.mk_var("k2", T.FRAC)
    assert solver.is_feasible([T.eq(T.add(k1, k2), T.ONE), T.eq(k1, k2)]) == YES


def test_integer_gap_infeasible(solver):
    assert solver.is_feasible([T.gt(x, T.ZERO), T.lt(x, T.ONE)]) == NO


def test_integer_parity_infeasible(solver):
    assert solver.is_feasible([T.eq(T.scale(2, x), T.mk_int(3))]) == NO


def test_linear_system_entailment(solver):
    path = [T.eq(T.add(x, y), T.mk_int(10)), T.eq(T.sub(x, y), T.mk_int(4))]
    assert solver.assert_entailed(path, T.eq(x, T.mk_int(7))).verdict == YES


def test_membership_over_literal_set(solver):
    # a values-read check: x is one of 1, 3
    member = T.or_(T.eq(x, T.mk_int(1)), T.eq(x, T.mk_int(3)))
    assert solver.assert_entailed([T.eq(x, T.mk_int(3))], member).verdict == YES
    assert solver.assert_entailed([T.eq(x, T.mk_int(2))],
                                  T.not_(member)).verdict == YES


def test_opaque_modulo_is_unknown(solver):
    res = solver.assert_entailed([T.eq(x, T.mk_int(8))],
                                 T.eq(T.mod_(x, T.mk_int(2)), T.ZERO))
    assert res.verdict == UNKNOWN


def test_unknown_names_its_bound(solver):
    dx, dy, dz = (T.mk_var(n, T.INT) for n in ("udx", "udy", "udz"))
    # dx+dz+3 = 0 |- 3dx+2dy-dz+2 != 0: branch-and-bound on unbounded integers
    res = solver.assert_entailed(
        [T.eq(T.add(dx, dz, T.mk_int(3)), T.ZERO)],
        T.ne(T.add(T.scale(3, dx), T.scale(2, dy), T.neg(dz), T.mk_int(2)), T.ZERO))
    assert (res.verdict, res.reason) == (UNKNOWN, DEPTH_CAP_HIT)
    res = solver.assert_entailed([T.eq(x, T.mk_int(8))], T.eq(T.mul(x, y), T.ZERO))
    assert (res.verdict, res.reason) == (UNKNOWN, OPAQUE_ATOM)
    # 13 two-way splits, every case infeasible, go past the case-split cap
    cs = [T.mk_var(f"uc{i}", T.INT) for i in range(13)]
    facts = [T.or_(T.eq(c, T.ZERO), T.eq(c, T.ONE)) for c in cs]
    res = solver.assert_entailed(facts + [T.gt(T.add(*cs), T.mk_int(13))], T.FALSE)
    assert (res.verdict, res.reason) == (UNKNOWN, CASE_CAP_HIT)
    assert solver.assert_entailed([T.eq(x, T.mk_int(8))], T.eq(x, y)).reason is None


def test_unknown_never_yes_on_opaque_negative(solver):
    # soundness guard: an opaque-atom query cannot come back "yes" unless unsat
    res = solver.assert_entailed([], T.eq(T.bitand(x, y), T.ZERO))
    assert res.verdict in (UNKNOWN, NO)
    assert res.verdict != YES


def test_monotonicity_yes_stays_yes(solver):
    path = [T.ge(x, T.mk_int(5))]
    goal = T.ge(x, T.mk_int(3))
    assert solver.assert_entailed(path, goal).verdict == YES
    assert solver.assert_entailed(path + [T.le(y, x)], goal).verdict == YES


def test_infeasible_path_entails_anything(solver):
    assert solver.assert_entailed([T.FALSE], T.eq(x, T.mk_int(9))).verdict == YES


def test_model_value(solver):
    path = [T.eq(x, T.mk_int(41)), T.eq(y, T.add(x, T.ONE))]
    assert solver.model_value(path, y) == 42
    assert solver.model_value([T.ge(x, T.ZERO)], x) is None


def test_model_value_cached(solver, monkeypatch):
    path = [T.eq(x, T.mk_int(41)), T.eq(y, T.add(x, T.ONE))]
    assert solver.model_value(path, y) == 42
    assert solver.model_value([T.ge(x, T.ZERO)], x) is None
    calls = []
    monkeypatch.setattr(SV, "_sat_conjunction", lambda facts: calls.append(facts))
    assert solver.model_value(list(reversed(path)), y) == 42
    assert solver.model_value([T.TRUE, T.ge(x, T.ZERO)], x) is None
    assert calls == []


def cache_queries():
    w1 = T.mk_var("w1", T.FRAC)
    w2 = T.mk_var("w2", T.FRAC)
    wildcards = [T.gt(w1, T.ZERO), T.lt(w1, T.ONE), T.gt(w2, T.ZERO), T.lt(w2, w1)]
    parity = T.mod_(x, T.mk_int(2))
    return [
        ("feasible", [T.gt(x, T.ZERO), T.lt(x, T.ONE)], None),
        ("feasible", [T.eq(T.scale(2, x), T.add(y, T.ONE)), T.ne(x, y)], None),
        ("feasible", wildcards + [T.eq(T.add(w1, w2), T.ONE)], None),
        ("entailed", [T.ge(x, T.mk_int(5))], T.ne(x, T.mk_int(3))),
        ("entailed", [T.eq(x, T.ONE)], T.ne(x, T.ONE)),
        ("entailed", [T.lt(x, y), T.lt(y, T.add(x, T.mk_int(2)))],
         T.eq(y, T.add(x, T.ONE))),
        ("entailed", [T.lt(x, y), T.le(T.add(x, y), T.mk_int(4))],
         T.ne(T.add(x, y), T.mk_int(3))),
        ("entailed", wildcards, T.lt(T.add(w1, w2), T.mk_int(2))),
        ("entailed", wildcards, T.le(T.add(w1, w2), T.ONE)),
        ("entailed", [T.eq(x, T.mk_int(8))], T.eq(parity, T.ZERO)),
        ("entailed", [T.ne(parity, T.ZERO)], T.ne(x, T.ZERO)),
    ]


def ask(solver, query):
    method, path, goal = query
    if method == "feasible":
        return solver.is_feasible(path)
    return solver.assert_entailed(path, goal)


def test_solver_tables_carry_no_query_state():
    # Every answer from one long-lived Solver, asked in reverse order, equals
    # the answer of a fresh Solver: the per-Solver tables of compiled literals
    # and negations change how fast a query is answered, never the answer.
    queries = cache_queries()
    fresh = [ask(Solver(), q) for q in queries]
    shared = Solver()
    reused = [ask(shared, q) for q in reversed(queries)][::-1]
    assert reused == fresh
    verdicts = [r if isinstance(r, str) else r.verdict for r in fresh]
    assert {YES, NO, UNKNOWN} <= set(verdicts)
    assert any(not isinstance(r, str) and r.verdict == NO and r.hint for r in fresh)


# ---------------------------------------------------------------------------
# Oracle: random linear queries against brute-force enumeration
# ---------------------------------------------------------------------------
#
# Facts and goals are comparisons of small linear forms over two or three
# int- or frac-sorted variables, goals combined with and/or/not.  A `yes` must
# hold at every point of a small box that satisfies the facts; a `no` must
# come with a model that satisfies the facts and falsifies the goal, exactly;
# an infeasible path must have no point in the box.  `unknown` is allowed; each
# answer is counted as a hypothesis event (see --hypothesis-show-statistics).

ORACLE_INTS = range(-3, 4)
ORACLE_FRACS = [Fraction(n, 2) for n in range(-4, 5)]
ORACLE_COEFFS = [-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 3]
ORACLE_CMPS = [T.eq, T.ne, T.le, T.lt, T.ge, T.gt]


@st.composite
def oracle_vars(draw):
    sorts = draw(st.lists(st.sampled_from([T.INT, T.FRAC]), min_size=2, max_size=3))
    return [T.mk_var(f"o{i}{s}", s) for i, s in enumerate(sorts)]


def oracle_comparison(variables):
    form = st.lists(st.tuples(st.sampled_from(variables), st.sampled_from(ORACLE_COEFFS)),
                    min_size=1, max_size=3)
    const = st.sampled_from(ORACLE_FRACS)
    return st.builds(
        lambda cmp, parts, k: cmp(T.add(*[T.scale(c, v) for v, c in parts]), T.mk_frac(k)),
        st.sampled_from(ORACLE_CMPS), form, const)


def oracle_goal(variables):
    return st.recursive(
        oracle_comparison(variables),
        lambda inner: st.one_of(
            st.builds(T.not_, inner),
            st.builds(lambda a, b: T.and_(a, b), inner, inner),
            st.builds(lambda a, b: T.or_(a, b), inner, inner)),
        max_leaves=3)


def evaluate(t, env):
    """The exact value of a term at a point (missing atoms read as 0)."""
    k = t.kind
    if k == "num":
        return t.data
    if k == "boollit":
        return t.data
    if k == "var":
        return env.get(t, 0)
    if k == "lin":
        const, pairs = t.data
        return const + sum(c * evaluate(a, env) for a, c in pairs)
    if k in ("eq0", "le0", "lt0"):
        v = evaluate(t.args[0], env)
        return v == 0 if k == "eq0" else v <= 0 if k == "le0" else v < 0
    if k == "not":
        return not evaluate(t.args[0], env)
    if k == "and":
        return all(evaluate(a, env) for a in t.args)
    if k == "or":
        return any(evaluate(a, env) for a in t.args)
    raise AssertionError(k)


def box(variables):
    points = [{}]
    for v in variables:
        values = ORACLE_INTS if v.sort == T.INT else ORACLE_FRACS
        points = [{**p, v: n} for p in points for n in values]
    return points


@st.composite
def oracle_queries(draw):
    variables = draw(oracle_vars())
    facts = draw(st.lists(oracle_comparison(variables), min_size=1, max_size=3))
    return variables, facts, draw(oracle_goal(variables))


@settings(max_examples=120, deadline=None)
@given(oracle_queries())
def test_solver_agrees_with_brute_force(query):
    variables, facts, goal = query
    solver = Solver()
    points = [p for p in box(variables) if all(evaluate(f, p) for f in facts)]
    feasible = solver.is_feasible(facts)
    if feasible == NO:
        assert points == []
    res = solver.assert_entailed(facts, goal)
    if res.verdict == YES:
        assert all(evaluate(goal, p) for p in points)
    elif res.verdict == NO:
        sat, model, _ = _sat_conjunction(facts + [T.not_(goal)])
        assert sat == SAT
        assert all(model[v].denominator == 1 for v in model if v.sort == T.INT)
        assert all(evaluate(f, model) for f in facts)
        assert not evaluate(goal, model)
    event(f"feasible: {feasible}")
    event(f"entailed: {res.verdict}")


# ---------------------------------------------------------------------------
# SMT-LIB emission and the external backend
# ---------------------------------------------------------------------------

def test_emit_smtlib_structure():
    script = emit_smtlib([T.ne(x, T.ZERO)], T.not_(T.eq(x, T.ZERO)))
    assert script.startswith("(set-logic")
    assert "(check-sat)" in script
    assert script.count("(assert") == 2
    assert "declare-const" in script


def test_emit_smtlib_goal_false_is_sat_shape():
    # an entailment of false from an empty path must leave the script satisfiable
    script = emit_smtlib([], T.FALSE)
    assert "(assert (not false))" in script


def test_emit_smtlib_bitwise_uses_uninterpreted():
    script = emit_smtlib([T.eq(T.bitand(x, y), T.ZERO)], T.FALSE, negate_goal=False)
    assert "declare-fun" in script


def test_emit_smtlib_fractions_real():
    w = T.mk_var("w", T.FRAC)
    script = emit_smtlib([T.lt(w, T.ONE)], T.gt(w, T.ZERO))
    assert "Real" in script


def test_external_stub_unsat():
    cmd = f"{sys.executable} -c \"print('unsat')\""
    assert run_external("(check-sat)", cmd, 5000) == "unsat"


def test_external_stub_sat():
    cmd = f"{sys.executable} -c \"print('sat')\""
    assert run_external("(check-sat)", cmd, 5000) == "sat"


def test_external_error_on_bad_exit():
    cmd = f"{sys.executable} -c \"import sys; sys.exit(3)\""
    with pytest.raises(ExternalSolverError):
        run_external("(check-sat)", cmd, 5000)


def test_external_error_on_garbage():
    cmd = f"{sys.executable} -c \"print('maybe')\""
    with pytest.raises(ExternalSolverError):
        run_external("(check-sat)", cmd, 5000)


def test_external_backend_resolves_unknown():
    # an always-unsat stub lets the external path upgrade unknown to yes
    cmd = f"{sys.executable} -c \"print('unsat')\""
    s = Solver(solver_cmd=cmd)
    res = s.assert_entailed([T.eq(x, T.mk_int(8))],
                            T.eq(T.mod_(x, T.mk_int(2)), T.ZERO))
    assert res.verdict == YES


HAVE_Z3 = shutil.which("z3") is not None


@pytest.mark.skipif(not HAVE_Z3, reason="no external SMT solver installed")
def test_differential_builtin_vs_external(solver):
    # on the shared fragment, every builtin "yes" must be unsat externally
    queries = [
        ([T.ne(x, T.ZERO)], T.not_(T.eq(x, T.ZERO))),
        ([T.ge(x, T.mk_int(5))], T.ge(x, T.mk_int(3))),
        ([T.eq(T.add(x, y), T.mk_int(10)), T.eq(T.sub(x, y), T.mk_int(4))],
         T.eq(x, T.mk_int(7))),
    ]
    for path, goal in queries:
        if solver.assert_entailed(path, goal).verdict == YES:
            script = emit_smtlib(path, goal)
            assert run_external(script, "z3 -in", 10000) == "unsat"


@settings(max_examples=120, deadline=None)
@given(oracle_queries())
def test_grouped_queries_agree_with_full_path(query):
    # Sliced to independence groups, feasibility and entailment give the
    # full-path answer whenever that answer is decided; in particular
    # grouping never turns a full-path `no` into `yes`.
    variables, facts, goal = query
    state = SymState()
    for f in facts:
        state.assume(f)
    ctx = ExecContext(Solver(), {})
    full = Solver()
    feasible = full.is_feasible(facts)
    if feasible != UNKNOWN:
        assert ctx.feasible(state) == (feasible == YES)
    res = full.assert_entailed(facts, goal)
    grouped = ctx.entailed(state, goal)
    if res.verdict != UNKNOWN:
        assert grouped.verdict == res.verdict
    event(f"groups: {len(state.all_groups())}")
