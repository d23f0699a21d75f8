"""Hash-consing and canonical linear forms."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from weakmem import solver as SV
from weakmem import terms as T
from weakmem.terms import _div

x = T.mk_var("tx", T.INT)
y = T.mk_var("ty", T.INT)


def test_interning_identity():
    assert T.mk_int(5) is T.mk_int(5)
    assert T.mk_var("tx", T.INT) is x
    assert T.add(x, T.ONE) is T.add(T.ONE, x)


def test_linear_normalisation():
    assert T.add(x, T.neg(x)) is T.ZERO
    assert T.sub(T.add(x, y), y) is x
    assert T.scale(2, T.scale(Fraction(1, 2), x)) is x


def test_mk_int_takes_an_exact_number_of_either_type():
    assert T.mk_int(Fraction(4, 2)) is T.mk_int(2)
    assert T.mk_int(2).sort == T.INT and T.mk_int(2).data == 2
    assert type(T.mk_int(Fraction(4, 2)).data) is int
    assert T.mk_int(Fraction(1, 2)).sort == T.FRAC
    assert T.mk_int(Fraction(1, 2)) is T.mk_frac(Fraction(2, 4))


def test_sub_interns_only_its_result():
    b = T.add(T.scale(3, T.mk_var("tsub", T.INT)), T.mk_frac(Fraction(1, 3)))
    before = len(T._pool)
    d = T.sub(x, b)
    assert len(T._pool) == before + 1     # no separate -b term
    assert d is T.add(x, T.neg(b))


def test_comparison_canonical():
    assert T.eq(x, y) is T.eq(y, x)
    assert T.le(x, y) is T.le(x, y)
    # constant folding
    assert T.lt(T.ZERO, T.ONE) is T.TRUE
    assert T.eq(T.ONE, T.mk_int(2)) is T.FALSE


def test_integer_tightening():
    # x < 1 over integers becomes x <= 0
    assert T.lt(x, T.ONE) is T.le(x, T.ZERO)


def test_integer_equality_with_fraction_scales():
    # x == 1/2 over ints scales to 2x - 1 == 0, which the GCD test folds
    from weakmem.solver import Solver
    e = T.eq(x, T.mk_frac(Fraction(1, 2)))
    assert e is T.FALSE
    assert Solver().is_feasible([e]) == "no"


def test_gcd_test_folds_unsolvable_integer_equations():
    o1 = T.mk_var("o1", T.INT)
    assert T.eq(T.scale(4, o1), T.mk_int(3)) is T.FALSE
    assert T.eq(T.add(T.scale(2, x), T.scale(2, y)), T.ONE) is T.FALSE
    # solvable ones are kept in canonical form
    assert T.eq(T.scale(4, o1), T.mk_int(8)) is T.eq(o1, T.mk_int(2))
    assert T.eq(T.add(T.scale(2, x), T.scale(3, y)), T.ONE).kind == "eq0"
    # the test is for integers only: 2f == 1 has the solution f = 1/2
    f = T.mk_var("tf", T.FRAC)
    assert T.eq(T.scale(2, f), T.ONE).kind == "eq0"


def test_memo_keys_keep_every_operand():
    # fresh atoms, so each first call below computes its result
    a, b, c = (T.mk_var(n, T.INT) for n in ("ma", "mb", "mc"))
    assert len({T.le(a, b), T.lt(a, b), T.eq(a, b)}) == 3
    assert T.le(a, c) is not T.le(c, a)
    assert T.sub(a, b) is not T.sub(b, a)
    assert T.sub(a, a) is T.ZERO
    assert len({T.add(a, b), T.add(a, c), T.add(c, b)}) == 3
    t = T.add(a, T.ONE)
    assert T.scale(2, t) is not T.scale(3, t)
    assert T.scale(2, a) is not T.scale(2, b)
    assert T.scale(Fraction(2), t) is T.scale(2, t)
    # a repeat from freshly built operands finds every term already interned
    first = T.le(T.add(a, T.ONE), T.scale(2, b))
    before = len(T._pool)
    assert T.le(T.add(T.ONE, a), T.scale(Fraction(4, 2), b)) is first
    assert len(T._pool) == before


def test_bool_structure():
    a = T.mk_var("ba", T.BOOL)
    assert T.and_(a, T.TRUE) is a
    assert T.or_(a, T.FALSE) is a
    assert T.and_(a, T.FALSE) is T.FALSE
    assert T.or_(a, T.TRUE) is T.TRUE
    assert T.not_(T.not_(a)) is a
    # nested connectives of one kind are flattened
    b, c = T.mk_var("bb", T.BOOL), T.mk_var("bc", T.BOOL)
    assert T.and_(T.and_(a, b), c) is T.and_(a, b, c)
    assert T.or_(a, T.or_(b, c)) is T.or_(a, b, c)


# ---------------------------------------------------------------------------
# Exact numbers: an int when integral, else a non-integral Fraction
# ---------------------------------------------------------------------------

def exact(v):
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def stored_numbers(t):
    """Every constant and coefficient held by ``t`` and its subterms."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if u.kind == "num":
            out.append(u.data)
        elif u.kind == "lin":
            const, pairs = u.data
            out.append(const)
            out.extend(c for _, c in pairs)
        stack.extend(u.args)
    return out


def test_integral_values_are_ints():
    assert T.mk_int(Fraction(4, 2)) is T.mk_int(2)
    assert type(T.mk_int(Fraction(4, 2)).data) is int
    assert type(T.mk_frac(Fraction(3, 3)).data) is int
    half = T.mk_frac(Fraction(1, 2))
    assert T.add(half, half) is T.ONE
    assert T.linear_parts(x) == (0, {x: 1})
    assert all(type(v) is int for v in stored_numbers(T.scale(Fraction(2, 2), T.add(x, y))))
    assert str(T.mk_int(Fraction(4, 2)).data) == str(Fraction(2))


def test_exact_division():
    assert _div(1, 3) == Fraction(1, 3)
    assert _div(6, 3) == 2 and type(_div(6, 3)) is int
    assert _div(-7, 2) == Fraction(-7, 2)
    assert type(_div(Fraction(1, 2), Fraction(1, 4))) is int


NUM_ATOMS = [T.mk_var("nx", T.INT), T.mk_var("ny", T.INT),
             T.mk_var("nv", T.FRAC), T.mk_var("nw", T.FRAC)]
rationals = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-4, max_value=4, max_denominator=4))
numeric = st.recursive(
    st.one_of(st.sampled_from(NUM_ATOMS), rationals.map(T.mk_frac), rationals.map(T.mk_int)),
    lambda inner: st.one_of(st.builds(T.add, inner, inner), st.builds(T.sub, inner, inner),
                            st.builds(T.scale, rationals, inner)),
    max_leaves=6)
# a sum of scaled atoms: rows that share columns, so pivots meet fractions
weighted_sum = st.lists(st.tuples(rationals, st.sampled_from(NUM_ATOMS)), min_size=2,
                        max_size=3).map(lambda ps: T.add(*[T.scale(k, a) for k, a in ps]))
comparisons = st.builds(lambda op, a, b: op(a, b), st.sampled_from([T.eq, T.lt]),
                        st.one_of(numeric, weighted_sum), numeric)


def check_stored_numbers(facts):
    """No constant, coefficient, solver bound, tableau entry or model value
    is a float, and none that is integral is a Fraction."""
    for f in facts:
        assert all(exact(v) for v in stored_numbers(f))
    lits = [(f.kind, SV._compile(f.args[0])) for f in facts if f.kind in ("eq0", "le0", "lt0")]
    for _, lit in lits:
        assert all(exact(d) for b in (lit.bound, lit.strict) for d in (b.real, b.eps))
        assert all(exact(c) for _, c in lit.pairs)
    sx = SV._Simplex()
    for kind, lit in lits:
        sx.add_literal(kind, lit)
    if sx.check() == SV.SAT:
        assert all(exact(v) for v in sx.concrete_model().values())
    bounds = [*sx.lower.values(), *sx.upper.values(), *sx.assign.values()]
    assert all(exact(d.real) and exact(d.eps) for d in bounds)
    assert all(exact(c) for row in sx.tableau.values() for c in row.values())
    _, model, _ = SV._sat_conjunction(facts)
    assert all(exact(v) for v in (model() if model else {}).values())


@settings(max_examples=80, deadline=None)
@given(st.lists(comparisons, min_size=1, max_size=4))
def test_no_float_is_ever_stored(facts):
    check_stored_numbers(facts)


def test_pivots_keep_integral_entries_int():
    # pivoting these rows divides by 2 and 3, and later products come back
    # integral: each must be stored as an int
    p, q, r = (T.mk_var(n, T.FRAC) for n in ("pp", "pq", "pr"))
    check_stored_numbers([
        T.le(T.add(T.scale(2, p), T.scale(3, r), T.mk_int(2)), T.ZERO),
        T.lt(r, q),
        T.eq(T.add(p, T.scale(3, q), T.scale(3, r), T.mk_int(3)), T.ZERO),
    ])


def test_num_str_bounds_the_digits():
    limit = 10 ** T.MAX_NUM_DIGITS
    assert T.num_str(limit - 1) == "9" * T.MAX_NUM_DIGITS
    assert T.num_str(limit) == f"<{T.MAX_NUM_DIGITS + 1}-digit number>"
    assert T.num_str(-7 ** 9000) == "-<7606-digit number>"
    assert T.num_str(Fraction(-3, 4)) == "-3/4"
    assert T.num_str(Fraction(1, 10 ** 5000)) == "1/<5001-digit number>"
    assert T.pretty(T.mk_int(limit)) == f"<{T.MAX_NUM_DIGITS + 1}-digit number>"


def test_bitwise_operators_fold_literals():
    lit = T.mk_int
    pairs = [(12, 10), (-1, 6), (-7, 3), (0, -5), (5, 0), (-12, -10)]
    for mk, op in ((T.bitand, int.__and__), (T.bitor, int.__or__), (T.bitxor, int.__xor__)):
        for a, b in pairs:
            assert mk(lit(a), lit(b)) is lit(op(a, b)), (mk, a, b)
    assert T.shl(T.ONE, lit(2)) is lit(4)
    assert T.shl(lit(-3), lit(4)) is lit(-48)
    assert T.shr(lit(-7), T.ONE) is lit(-4)
    assert T.shr(lit(7), lit(10 ** 12)) is T.ZERO
    assert T.shl(T.ZERO, lit(10 ** 12)) is T.ZERO
    # the widest left shift that folds, and the ones that stay atoms
    widest = 10 ** T.MAX_NUM_DIGITS
    n = widest.bit_length() - 1
    assert T.shl(T.ONE, lit(n)) is lit(1 << n) and len(str(1 << n)) == T.MAX_NUM_DIGITS
    x = T.mk_var("x", T.INT)
    for t in (T.shl(T.ONE, lit(n + 1)), T.shl(T.ONE, lit(10 ** 12)),
              T.shl(lit(3), lit(-1)), T.shr(lit(3), lit(-1)), T.bitand(x, T.ONE),
              T.shl(T.ONE, x), T.bitor(lit(Fraction(1, 2)), T.ONE)):
        assert t.kind in T.OPAQUE_KINDS, T.pretty(t)


def test_pretty_renders_each_kind_of_term():
    w = T.mk_var("tw", T.FRAC)
    le, lt = T.le(x, y), T.lt(w, T.ONE)
    rendered = {
        T.add(x, T.scale(-2, y), T.mk_int(3)): "tx + -2*ty + 3",
        T.scale(2, x): "2*tx",
        T.add(w, T.mk_frac(Fraction(1, 2))): "tw + 1/2",
        T.eq(x, y): "(tx + -1*ty == 0)",
        le: "(tx + -1*ty <= 0)",
        lt: "(tw + -1 < 0)",
        T.and_(le, lt): "((tx + -1*ty <= 0) && (tw + -1 < 0))",
        T.or_(T.eq(x, T.ZERO), T.lt(y, x)): "((tx == 0) || (-1*tx + ty + 1 <= 0))",
        T.not_(T.eq(x, y)): "!(tx + -1*ty == 0)",
        T.mod_(x, T.mk_int(3)): "(tx % 3)",
        T.FALSE: "false",
    }
    assert [T.pretty(t) for t in rendered] == list(rendered.values())
