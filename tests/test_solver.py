"""Solver tests: entailment, feasibility, fractions, integer arithmetic
with Euclidean `%` and `/`, and oracles against brute force."""

import itertools
import random
from collections import Counter
from fractions import Fraction

from hypothesis import event, given, settings, strategies as st

from conftest import MANIFEST, corpus_path, corpus_text
from weakmem import api, solver as SV, terms as T
from weakmem.cli import load_manifest
from weakmem.solver import (
    CASE_CAP_HIT, DEPTH_CAP_HIT, NO, OPAQUE_ATOM, SAT, STEP_CAP_HIT, Solver, UNKNOWN, UNSAT,
    YES, _sat_conjunction,
)
from weakmem.symstate import ExecContext, SymState

x = T.mk_var("x", T.INT)
y = T.mk_var("y", T.INT)


def test_entailed_disequality(solver):
    assert solver.assert_entailed([T.ne(x, T.ZERO)], T.not_(T.eq(x, T.ZERO))).verdict == YES


def test_every_yes_is_the_one_shared_result_and_stays_as_built(solver):
    assert solver.assert_entailed([T.eq(x, T.ONE)], T.eq(x, T.ONE)) is SV.RESULT_YES
    assert solver.assert_entailed([T.lt(x, T.ZERO), T.lt(T.ZERO, x)], T.FALSE) is SV.RESULT_YES
    entries = load_manifest(MANIFEST)
    assert len(entries) == 21
    for entry in entries:
        api.verify_source(corpus_text(entry.file), path=entry.file)
    yes = SV.RESULT_YES
    assert (yes.verdict, yes.hint, yes.reason) == ("yes", None, None)


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


def test_feasibility_builds_no_model(monkeypatch):
    # strict bounds and an equality on frac tokens only: the witness declines
    # the equality, and the simplex answers with its infinitesimal
    # unresolved, since nothing reads a model of the facts
    w1, w2 = T.mk_var("w1", T.FRAC), T.mk_var("w2", T.FRAC)
    facts = [T.lt(T.ZERO, w1), T.lt(T.ZERO, w2), T.eq(T.add(w1, w2), T.ONE)]

    def no_model(sx):
        raise AssertionError("a model was built")

    monkeypatch.setattr(SV._Simplex, "concrete_model", no_model)
    solver = Solver()
    assert solver.is_feasible(facts) == YES
    assert Solver().assert_entailed(facts, T.FALSE).verdict == NO
    assert solver.queries == 1
    # a hint reads the model, so it is built then
    monkeypatch.undo()
    res = solver.assert_entailed(facts, T.lt(w1, T.mk_frac(Fraction(1, 2))))
    assert (res.verdict, res.hint) == (NO, "w1 = 1/2, w2 = 1/2")


def test_token_bounds_are_decided_without_the_simplex(monkeypatch):
    # strict bounds on frac tokens only: the witness orders w1 and w2 as
    # infinitesimals, so neither the simplex nor a model is needed
    w1, w2 = T.mk_var("w1", T.FRAC), T.mk_var("w2", T.FRAC)
    facts = [T.lt(T.ZERO, w1), T.lt(T.ZERO, w2), T.lt(T.add(w1, w2), T.ONE)]
    monkeypatch.setattr(SV, "_sat_conjunction", None)
    solver = Solver()
    assert solver.is_feasible(facts) == YES
    assert Solver().assert_entailed(facts, T.FALSE).verdict == NO
    assert solver.queries == 0
    # an entailment of any other goal still takes the simplex, and its hint
    # reads the model
    monkeypatch.undo()
    res = solver.assert_entailed(facts, T.lt(w1, T.mk_frac(Fraction(1, 2))))
    assert (res.verdict, res.hint) == (NO, "w1 = 1/2, w2 = 1/4")
    assert solver.queries == 1


def test_integral_feasibility_builds_no_model(monkeypatch):
    # every integer column of the simplex's answer is already an integer, so
    # branch-and-bound has nothing to test and no model is built
    facts = [T.ge(x, T.ONE), T.le(T.add(x, y), T.mk_int(5)), T.lt(y, x)]
    calls = []
    check = SV._check_linear
    monkeypatch.setattr(SV, "_check_linear",
                        lambda lits, depth=0: calls.append(depth) or check(lits, depth))

    def no_model(sx):
        raise AssertionError("a model was built")

    monkeypatch.setattr(SV._Simplex, "concrete_model", no_model)
    assert Solver().is_feasible(facts) == YES and calls == [0]
    monkeypatch.undo()
    res = Solver().assert_entailed(facts, T.ge(y, x))
    assert (res.verdict, res.hint) == (NO, "x = 1, y = 0")


def test_branch_and_bound_answers(monkeypatch):
    # the simplex's first vertex of these facts is not integral, so
    # feasibility and the `no` take branch-and-bound, which reads a model at
    # every node
    depths = []
    check = SV._check_linear
    monkeypatch.setattr(SV, "_check_linear",
                        lambda lits, depth=0: depths.append(depth) or check(lits, depth))
    facts = [T.ge(T.add(T.scale(3, x), T.scale(2, y)), T.mk_int(4)),
             T.le(T.add(T.scale(3, x), T.scale(2, y)), T.mk_int(5)),
             T.le(x, y), T.ge(x, T.ZERO)]
    solver = Solver()
    assert solver.is_feasible(facts) == YES and depths == [0, 1]
    res = solver.assert_entailed(facts, T.ge(y, T.mk_int(2)))
    assert (res.verdict, res.hint) == (NO, "x = 1, y = 1") and max(depths[2:]) == 1
    assert solver.assert_entailed(facts, T.le(y, T.mk_int(2))).verdict == YES
    assert solver.model_value(facts, x) is None
    assert solver.model_value(facts + [T.eq(x, T.ONE)], y) == 1


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
    # only a nonzero integer literal divisor gives `%` a meaning
    for goal in (T.eq(T.mod_(x, y), T.ZERO), T.eq(T.bitand(x, T.ONE), T.ZERO)):
        res = solver.assert_entailed([T.eq(x, T.mk_int(8)), T.eq(y, T.mk_int(2))], goal)
        assert (res.verdict, res.reason) == (UNKNOWN, OPAQUE_ATOM)


def test_unknown_names_its_bound(solver, monkeypatch):
    dx, dy, dz = (T.mk_var(n, T.INT) for n in ("udx", "udy", "udz"))
    # dx+dz+3 = 0 |- 3dx+2dy-dz+2 != 0 ran branch-and-bound into its depth cap
    # on unbounded integers; solving dz away leaves 4dx+2dy+5 = 0, no solution
    res = solver.assert_entailed(
        [T.eq(T.add(dx, dz, T.mk_int(3)), T.ZERO)],
        T.ne(T.add(T.scale(3, dx), T.scale(2, dy), T.neg(dz), T.mk_int(2)), T.ZERO))
    assert (res.verdict, res.reason) == (YES, None)
    # 3dx+2dy = 1 by two inequalities: the rational model dx = 1/3 needs a split
    form = T.add(T.scale(3, dx), T.scale(2, dy))
    split = [T.ge(form, T.ONE), T.le(form, T.ONE)]
    assert solver.assert_entailed(split, T.FALSE).verdict == NO
    monkeypatch.setattr(SV, "_BRANCH_DEPTH_CAP", 0)
    res = Solver().assert_entailed(split, T.FALSE)
    assert (res.verdict, res.reason) == (UNKNOWN, DEPTH_CAP_HIT)
    # dx+dy >= 1 with dx >= 0 needs one pivot before the tableau is checked
    # again; dx+dy >= 1 alone is one free literal, decided without the simplex
    monkeypatch.setattr(SV, "_SIMPLEX_STEP_CAP", 1)
    res = Solver().assert_entailed([T.ge(T.add(dx, dy), T.ONE), T.ge(dx, T.ZERO)], T.FALSE)
    assert (res.verdict, res.reason) == (UNKNOWN, STEP_CAP_HIT)
    res = Solver().assert_entailed([T.ge(T.add(dx, dy), T.ONE)], T.FALSE)
    assert (res.verdict, res.reason) == (NO, None)
    monkeypatch.undo()
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
    parity = T.bitand(x, T.ONE)
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
    # the answer of a fresh Solver: the tables of compiled literals, of
    # negations and of earlier answers change how fast a query is answered,
    # never the answer.
    queries = cache_queries()
    fresh = [ask(Solver(), q) for q in queries]
    shared = Solver()
    reused = [ask(shared, q) for q in reversed(queries)][::-1]
    assert reused == fresh
    verdicts = [r if isinstance(r, str) else r.verdict for r in fresh]
    assert {YES, NO, UNKNOWN} <= set(verdicts)
    assert any(not isinstance(r, str) and r.verdict == NO and r.hint for r in fresh)


def test_every_query_is_counted_by_the_entry_that_decides_it(monkeypatch):
    # on every corpus entry, each is_feasible and assert_entailed call,
    # model_value's own entailments among them, and each model that
    # _model_value asks for is answered once: by the table or by one entry
    # of _DECIDERS; `queries` is the split's count
    calls = []
    for method in ("is_feasible", "assert_entailed", "_model_value"):
        def counted(self, *args, _method=getattr(Solver, method)):
            calls.append(self)
            return _method(self, *args)
        monkeypatch.setattr(Solver, method, counted)
    totals = Counter()
    entries = load_manifest(MANIFEST)
    assert len(entries) == 21
    for entry in entries:
        for soundness in ("off", "report"):
            calls.clear()
            solver = api.verify_file(corpus_path(entry.file),
                                     opts=api.VerifyOptions(soundness=soundness)).solver
            assert all(s is solver for s in calls), entry.file
            assert sum(solver.decided.values()) == len(calls), (entry.file, solver.decided)
            assert solver.queries == solver.decided["split"]
            totals.update(solver.decided)
    assert set(totals) == {"table", *(name for name, _ in SV._DECIDERS)}
    assert all(totals.values()), totals


# ---------------------------------------------------------------------------
# Oracle: random linear queries against brute-force enumeration
# ---------------------------------------------------------------------------
#
# Facts and goals are comparisons of small linear forms over two or three
# int-, frac- or token-sorted variables, goals combined with and/or/not.  The
# box gives a token only positive values, a frac negative ones too.  A `yes`
# must hold at every point of a small box that satisfies the facts; a `no`
# must come with a model that satisfies the facts and falsifies the goal,
# exactly, and gives every token a positive value; an infeasible path must
# have no point in the box.  The input is linear, so `unknown` is a failure;
# each answer is counted as a hypothesis event (see
# --hypothesis-show-statistics).

ORACLE_INTS = range(-3, 4)
ORACLE_FRACS = [Fraction(n, 2) for n in range(-4, 5)]
ORACLE_TOKENS = [v for v in ORACLE_FRACS if v > 0]
ORACLE_COEFFS = [-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2, 3]
ORACLE_CMPS = [T.eq, T.ne, T.le, T.lt, T.ge, T.gt]


@st.composite
def oracle_vars(draw):
    sorts = draw(st.lists(st.sampled_from([T.INT, T.FRAC, T.TOKEN]), min_size=2, max_size=3))
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
        values = {T.INT: ORACLE_INTS, T.FRAC: ORACLE_FRACS, T.TOKEN: ORACLE_TOKENS}[v.sort]
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
    assert UNKNOWN not in (feasible, res.verdict)
    if res.verdict == YES:
        assert all(evaluate(goal, p) for p in points)
    elif res.verdict == NO:
        sat, model, _ = _sat_conjunction(facts + [T.not_(goal)])
        assert sat == SAT
        model = model()
        assert all(model[v].denominator == 1 for v in model if v.sort == T.INT)
        assert all(model[v] > 0 for v in model if v.sort == T.TOKEN)
        assert all(evaluate(f, model) for f in facts)
        assert not evaluate(goal, model)
    event(f"feasible: {feasible}")
    event(f"entailed: {res.verdict}")


def test_solved_equalities_agree_with_brute_force():
    # The oracle's queries seldom reach `_solve_equalities`, which runs only
    # when an int column of the rational model is not integral; here 600
    # seeded conjunctions of 1-4 comparisons over the oracle's sorts, one of
    # them an equality, go to it directly.  A SAT model must satisfy them,
    # exactly, with ints integral and tokens positive; UNSAT must leave no
    # point of the box.
    rng = random.Random(37)
    answers = Counter()
    for _ in range(600):
        variables = [T.mk_var(f"o{i}{s}", s) for i, s in
                     enumerate(rng.choices([T.INT, T.FRAC, T.TOKEN], k=rng.randint(2, 3)))]

        def comparison(cmps):
            form = T.add(*[T.scale(rng.choice(ORACLE_COEFFS), v)
                           for v in rng.sample(variables, rng.randint(1, len(variables)))])
            return rng.choice(cmps)(form, T.mk_frac(rng.choice(ORACLE_FRACS)))

        facts = [comparison([T.eq])] + [comparison([T.eq, T.le, T.lt, T.ge, T.gt])
                                         for _ in range(rng.randint(0, 3))]
        if any(f.kind == "boollit" for f in facts):
            continue
        res, model = SV._solve_equalities([(f.kind, SV._compiled(f.args[0])) for f in facts])
        answers[res] += 1
        if res == SAT:
            model = model()
            assert all(model[v].denominator == 1 for v in model if v.sort == T.INT), facts
            assert all(model[v] > 0 for v in model if v.sort == T.TOKEN), facts
            assert all(evaluate(f, model) for f in facts), (facts, model)
        else:
            assert res == UNSAT, facts
            assert not any(all(evaluate(f, p) for f in facts) for p in box(variables)), facts
    assert answers[SAT] > 100 and answers[UNSAT] > 50, answers


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


# ---------------------------------------------------------------------------
# Oracle: the decisions made by syntax against the split and the simplex
# ---------------------------------------------------------------------------
#
# Single facts over int and frac atoms: comparisons of forms that may hold
# `%` and `/` by a literal or a product, and boolean vars, with the `not`
# of each; sets of them, some with a fact beside its own negation.  Every
# answer of the Solver, whether the table, the syntax or the simplex gave
# it, must be the one `_sat_conjunction` gives on the same facts.

SYNTAX_INTS = [T.mk_var(f"s{i}", T.INT) for i in range(2)]
SYNTAX_FRACS = [T.mk_var(f"sw{i}", T.FRAC) for i in range(2)]
SYNTAX_BOOLS = [T.mk_var(f"sp{i}", T.BOOL) for i in range(2)]


def syntax_atom():
    divisor = st.sampled_from([-3, -2, 2, 3]).map(T.mk_int)
    ints = st.sampled_from(SYNTAX_INTS)
    return st.one_of(
        ints, st.sampled_from(SYNTAX_FRACS),
        st.builds(T.mod_, ints, divisor), st.builds(T.div_, ints, divisor),
        st.builds(T.mul, ints, ints))


@st.composite
def syntax_fact(draw):
    kind = draw(st.sampled_from(["cmp", "cmp", "cmp", "bool"]))
    if kind == "bool":
        fact = draw(st.sampled_from(SYNTAX_BOOLS))
    else:
        parts = draw(st.lists(st.tuples(syntax_atom(), st.sampled_from(ORACLE_COEFFS)),
                              min_size=1, max_size=2))
        form = T.add(*[T.scale(c, a) for a, c in parts])
        fact = draw(st.sampled_from(ORACLE_CMPS))(form, T.mk_frac(draw(
            st.sampled_from(ORACLE_FRACS))))
    return T.not_(fact) if draw(st.booleans()) else fact


@st.composite
def syntax_facts(draw):
    facts = draw(st.lists(syntax_fact(), min_size=1, max_size=3))
    if draw(st.booleans()):
        facts.append(T.not_(draw(st.sampled_from(facts))))
    return [f for f in facts if f is not T.TRUE] or [T.TRUE]


def entailment_verdict(facts, goal):
    """What `assert_entailed(facts, goal)` must answer, by `_sat_conjunction`."""
    sat, _, reason = _sat_conjunction(facts + [T.not_(goal)])
    return YES if sat == UNSAT else NO if reason is None else UNKNOWN


@settings(max_examples=300, deadline=None)
@given(syntax_facts())
def test_syntax_decisions_agree_with_the_simplex(facts):
    sat, _, _ = _sat_conjunction(facts)
    feasible = {SAT: YES, UNSAT: NO, UNKNOWN: UNKNOWN}[sat]
    decided = entailment_verdict(facts, T.FALSE)
    # the shared table, filled first by either entry point
    first_feasible, first_decided = Solver(), Solver()
    assert first_feasible.is_feasible(facts) == feasible
    assert first_feasible.assert_entailed(facts, T.FALSE).verdict == decided
    assert first_decided.assert_entailed(facts, T.FALSE).verdict == decided
    assert first_decided.is_feasible(facts) == feasible
    for f in facts:
        assert Solver().assert_entailed(facts, f).verdict == entailment_verdict(facts, f)
    event(f"feasible: {feasible}, decided: {decided}")
    event(f"simplex runs: {first_feasible.queries}")


def test_syntax_decides_without_the_simplex():
    s, w, p = SYNTAX_INTS[0], SYNTAX_FRACS[0], SYNTAX_BOOLS[0]
    sum3 = T.add(T.scale(3, s), T.scale(2, SYNTAX_INTS[1]))
    decided = [
        ([T.eq(sum3, T.ONE)], YES),
        ([T.lt(T.add(s, w), T.ZERO)], YES),
        ([T.le(s, T.mk_int(-4))], YES),
        ([T.ne(s, T.ZERO)], YES),
        ([T.not_(T.le(s, T.ONE))], YES),
        ([p], YES),
        ([T.not_(p)], YES),
        ([T.ge(s, T.ONE), T.not_(T.ge(s, T.ONE)), T.le(w, T.ONE)], NO),
        ([p, T.le(w, T.ONE), T.not_(p)], NO),
        ([T.FALSE, T.le(w, T.ONE)], NO),
    ]
    for facts, feasible in decided:
        solver = Solver()
        assert solver.is_feasible(facts) == feasible, facts
        assert solver.assert_entailed(facts, T.FALSE).verdict == (NO if feasible == YES else YES)
        assert solver.assert_entailed(facts, facts[-1]).verdict == YES
        assert solver.queries == 0, facts
    # `%`, `/` and products can make one literal unsatisfiable or opaque
    for fact in (T.eq(T.mod_(s, T.mk_int(3)), T.mk_int(5)), T.eq(T.div_(s, T.mk_int(2)), s),
                 T.eq(T.mul(s, s), T.ONE), T.not_(T.eq(T.mul(s, s), T.ONE))):
        solver = Solver()
        solver.is_feasible([fact])
        assert solver.queries == 1, fact


# ---------------------------------------------------------------------------
# The infinitesimal witness for bounds over wildcard tokens
# ---------------------------------------------------------------------------

WITNESS_TOKENS = [T.mk_var(f"ww{i}", T.FRAC) for i in range(5)]


def witness_holds(facts, order):
    """Whether the witness's order is a model: with the i-th atom of the
    order d**(i+1), each other atom a higher power still, and d = 2**-k for
    some k <= 64, every fact holds."""
    atoms = sorted({a for f in facts for a in T.linear_parts(f.args[0])[1]},
                   key=lambda a: a.tid)
    ranks = {a: i + 1 for i, a in enumerate(order)}
    for a in atoms:
        ranks.setdefault(a, len(ranks) + 1)
    for k in range(1, 65):
        d = Fraction(1, 2 ** k)
        env = {a: d ** r for a, r in ranks.items()}
        if all(evaluate(f, env) for f in facts):
            return True
    return False


def test_the_witness_answers_only_satisfiable_token_bounds():
    # 3000 conjunctions of 1-5 comparisons (<, <=, ==, >=, >) over 1-5 frac
    # tokens, with coefficients -2..3 and small constants: whenever the
    # witness answers, the simplex says SAT and the order is a model
    rng = random.Random(34)
    answered = 0
    for _ in range(3000):
        tokens = WITNESS_TOKENS[:rng.randint(1, 5)]

        def comparison():
            form = T.add(*[T.scale(rng.choice([-2, -1, 1, 2, 3]), a)
                           for a in rng.sample(tokens, rng.randint(1, len(tokens)))])
            const = T.mk_frac(rng.choice([0, 0, 0, Fraction(1, 2), 1, 2, -1]))
            return rng.choice([T.lt, T.le, T.eq, T.ge, T.gt])(form, const)

        facts = [f for f in (comparison() for _ in range(rng.randint(1, 5)))
                 if f is not T.TRUE]
        order = SV._by_witness(facts)
        if order is None:
            continue
        answered += 1
        sat, _, reason = _sat_conjunction(facts)
        assert (sat, reason) == (SAT, None), facts
        assert witness_holds(facts, order), (facts, order)
        solver = Solver()
        assert solver.is_feasible(facts) == YES and solver.queries == 0
    assert answered > 300


def test_the_witness_declines_and_the_simplex_decides():
    w, v = WITNESS_TOKENS[:2]
    positive = T.lt(T.ZERO, w)
    declined = [
        ([positive, T.eq(T.add(w, v), T.ONE)], YES),                   # an equality
        ([positive, T.lt(T.add(w, x), T.ONE)], YES),                   # an int atom
        ([positive, SYNTAX_BOOLS[0]], YES),                            # a bool atom
        ([positive, T.lt(T.add(w, T.mul(x, y)), T.ONE)], YES),         # a product
        ([positive, T.lt(T.add(w, T.mod_(x, T.mk_int(3))), T.ONE)], YES),   # a `%`
        ([positive, T.not_(T.lt(w, T.ONE))], YES),                     # a negation
        ([positive, T.or_(T.lt(w, v), T.lt(v, w))], YES),              # a disjunction
        ([T.ge(w, T.ONE), T.lt(v, w)], YES),                           # 1 - w <= 0
        ([positive, T.le(T.add(T.ONE, w), T.ONE)], NO),                # overfull
    ]
    for facts, feasible in declined:
        assert SV._by_witness(facts) is None, facts
        sat = _sat_conjunction(facts)[0]
        assert {SAT: YES, UNSAT: NO}[sat] == feasible, facts
        solver = Solver()
        assert solver.is_feasible(facts) == feasible and solver.queries == 1, facts


# ---------------------------------------------------------------------------
# Wildcard tokens: positive by their sort, with no path fact saying so
# ---------------------------------------------------------------------------
#
# Each probe fails without one piece of that: the strict lower bound 0 on a
# token's column, the syntax rule's decline of a literal over a token, the
# positivity kept when an equality is solved for a token (and the value 1
# for one the solving leaves unconstrained), or a form over tokens being
# frac-sorted, which keeps `terms._cmp`'s integer tests off it.

PW1, PW2 = T.mk_var("pw1", T.TOKEN), T.mk_var("pw2", T.TOKEN)


def test_tokens_that_sum_to_at_most_zero_are_infeasible():
    facts = [T.le(T.add(PW1, PW2), T.ZERO)]
    solver = Solver()
    assert solver.is_feasible(facts) == NO
    assert solver.decided["syntax"] == 0
    assert Solver().assert_entailed(facts, T.FALSE) is SV.RESULT_YES


def test_a_token_equation_entails_the_bound_positivity_gives():
    facts = [T.eq(PW1, T.sub(PW2, T.ONE))]
    assert Solver().assert_entailed(facts, T.lt(T.ONE, PW2)) is SV.RESULT_YES
    assert Solver().assert_entailed(facts, T.lt(T.mk_int(2), PW2)).verdict == NO


def test_no_facts_entail_that_a_token_is_positive():
    solver = Solver()
    assert solver.assert_entailed([], T.lt(T.ZERO, PW1)) is SV.RESULT_YES
    assert solver.assert_entailed([], T.le(T.ONE, PW1)).verdict == NO
    assert solver.is_feasible([T.le(PW1, T.ZERO)]) == NO


def test_a_token_may_be_a_fraction_of_an_integer():
    half = T.eq(T.scale(2, PW1), T.ONE)
    assert half is not T.FALSE and T.scale(2, PW1).sort == T.FRAC
    solver = Solver()
    assert solver.is_feasible([half]) == YES
    assert solver.model_value([half], PW1) == Fraction(1, 2)


def test_a_no_hint_gives_every_token_a_positive_value():
    # hx is not integral in the rational model, so the equalities are solved
    # away: hw for hx - 1/2, which must stay positive, and hf for hu + 1,
    # which leaves the token hu unconstrained
    hx, hf = T.mk_var("hx", T.INT), T.mk_var("hf", T.FRAC)
    hu, hw = T.mk_var("hu", T.TOKEN), T.mk_var("hw", T.TOKEN)
    facts = [T.eq(T.scale(2, hx), T.add(T.scale(2, hw), T.ONE)), T.eq(hf, T.add(hu, T.ONE))]
    res = Solver().assert_entailed(facts, T.eq(hx, T.mk_int(-3)))
    assert (res.verdict, res.hint) == (NO, "hx = 1, hf = 2, hu = 1, hw = 1/2")
    sat, model, _ = _sat_conjunction(facts + [T.le(T.mk_int(-2), hx)])
    model = model()
    assert sat == SAT and model[hu] > 0 and model[hw] > 0
    assert all(evaluate(f, model) for f in facts)


# ---------------------------------------------------------------------------
# Integer completeness: a seeded trial, and `%` and `/` by a literal
# ---------------------------------------------------------------------------

def test_random_integer_queries_are_decided():
    # 1500 queries over three int variables, 1-3 facts and a goal, each a
    # comparison of a form with coefficients +-1..3 against a constant -4..4.
    # Branch-and-bound alone left a few of these unknown at its depth cap.
    rng = random.Random(13)
    ints = [T.mk_var(f"r{i}", T.INT) for i in range(3)]
    points = [dict(zip(ints, p)) for p in itertools.product(range(-4, 5), repeat=3)]

    def comparison():
        form = T.add(*[T.scale(rng.choice([-3, -2, -1, 1, 2, 3]), v)
                       for v in rng.sample(ints, rng.randint(1, 3))])
        return rng.choice(ORACLE_CMPS)(form, T.mk_int(rng.randint(-4, 4)))

    verdicts = []
    for _ in range(1500):
        facts = [comparison() for _ in range(rng.randint(1, 3))]
        goal = comparison()
        res = Solver().assert_entailed(facts, goal)
        verdicts.append(res.verdict)
        if res.verdict == YES:
            assert all(evaluate(goal, p) for p in points if all(evaluate(f, p) for f in facts))
        elif res.verdict == NO:
            sat, model, reason = _sat_conjunction(facts + [T.not_(goal)])
            assert (sat, reason) == (SAT, None)
            model = model()
            assert all(type(model[v]) is int for v in model)
            assert all(evaluate(f, model) for f in facts) and not evaluate(goal, model)
    assert verdicts.count(UNKNOWN) == 0
    assert verdicts.count(YES) > 100 and verdicts.count(NO) > 100


def euclid(v, c):
    """SMT-LIB's integer division: v = c*q + r with 0 <= r < |c|."""
    r = v % abs(c)
    return (v - r) // c, r


def test_literal_divisor_is_euclidean(solver):
    for v in range(-12, 13):
        path = [T.eq(x, T.mk_int(v))]
        for c in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
            q, r = euclid(v, c)
            assert solver.model_value(path, T.div_(x, T.mk_int(c))) == q, (v, c)
            assert solver.model_value(path, T.mod_(x, T.mk_int(c))) == r, (v, c)
        nested = T.mod_(T.mod_(x, T.mk_int(4)), T.mk_int(2))
        assert solver.model_value(path, nested) == euclid(euclid(v, 4)[1], 2)[1]
    # over all x, not just at a point
    assert solver.assert_entailed([], T.lt(T.mod_(x, T.mk_int(-3)), T.mk_int(3))).verdict == YES
    half = T.div_(x, T.mk_int(2))
    assert solver.assert_entailed([T.gt(x, T.ZERO)], T.le(half, x)).verdict == YES
    res = solver.assert_entailed([], T.eq(T.mod_(x, T.mk_int(2)), T.ZERO))
    assert (res.verdict, res.hint) == (NO, "x = 1, (x % 2) = 1")


def test_equalities_are_solved_before_branching(monkeypatch):
    z = T.mk_var("z", T.INT)
    solved = []
    solve = SV._solve_equalities
    monkeypatch.setattr(SV, "_solve_equalities", lambda lits: solved.append(1) or solve(lits))
    # the example of Pugh's Omega test paper: two equalities without a unit
    # coefficient, and bounds
    facts = [T.eq(T.add(T.scale(7, x), T.scale(12, y), T.scale(31, z)), T.mk_int(17)),
             T.eq(T.add(T.scale(3, x), T.scale(5, y), T.scale(14, z)), T.mk_int(7)),
             T.ge(x, T.ONE), T.le(x, T.mk_int(40)),
             T.ge(y, T.mk_int(-50)), T.le(y, T.mk_int(50))]
    sat, model, reason = _sat_conjunction(facts)
    model = model()
    assert (sat, reason, set(model)) == (SAT, None, {x, y, z})
    assert all(type(v) is int for v in model.values())
    assert all(evaluate(f, model) for f in facts)
    # 3x + 5y = 1 has no solution with 0 <= x <= 1
    facts = [T.eq(T.add(T.scale(3, x), T.scale(5, y)), T.ONE), T.ge(x, T.ZERO), T.le(x, T.ONE)]
    assert Solver().assert_entailed(facts, T.FALSE).verdict == YES
    # 12x - 18y + 27z = 6: y is left free, and the model still names it
    facts = [T.eq(T.add(T.scale(12, x), T.scale(-18, y), T.scale(27, z)), T.mk_int(6))]
    sat, model, _ = _sat_conjunction(facts)
    model = model()
    assert sat == SAT and set(model) == {x, y, z} and evaluate(facts[0], model)
    assert len(solved) == 3
