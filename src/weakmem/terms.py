"""Interned logical terms used in path conditions and solver queries.

Terms are hash-consed: structurally identical terms are the *same* Python
object, so equality is identity and terms can be used as dict keys without
deep comparisons.  Numeric terms are kept in a linear canonical form
(rational constant plus a sorted coefficient list over atoms), which makes
``x + 1`` and ``1 + x`` identical and lets the solver read off linear
constraints without re-walking trees.  Non-linear operations (general
products, modulo, division, bitwise) are kept as atoms; the solver gives
``%`` and ``/`` by a nonzero integer literal their Euclidean meaning and
treats the rest as uninterpreted, which preserves soundness of "unsat"
verdicts.

Operations on interned terms are pure functions of their operands, so
``add``, ``sub``, ``scale`` and the comparisons (and with them ``neg``,
``eq``, ``le``, ``lt``, ``ge`` and ``gt``) are memoised by operand tid.  The
process-global tables keyed by term or by exact number, none of them ever
freed, are:

* ``_pool``, the intern pool;
* ``_ints``, the term ``mk_int`` gives each exact number;
* ``_memo``, the arithmetic and comparison results;
* ``_atom_ids``, each term's atom set;
* ``solver._compiled_forms`` and ``solver._negations``, each linear form
  compiled for the simplex and each rewritten negation.

So a long-lived process grows with the distinct terms and numbers it has
seen.

Sorts: ``int`` (program values and integral amounts), ``bool``, ``frac``
(wildcard tokens and fractional amounts) and ``ref`` (heap locations).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

INT = "int"
BOOL = "bool"
FRAC = "frac"
REF = "ref"

_ids = itertools.count()
_pool: dict[tuple, "Term"] = {}
_memo: dict[tuple, "Term"] = {}  # (op, operand tids or scale factor) -> result


# The term walks recurse, so terms stay well below the recursion limit: the
# verifier reports a program value higher than this as unsupported.
MAX_HEIGHT = 256


class Term:
    """One interned node.  Never construct directly; use the mk_* helpers."""

    __slots__ = ("kind", "sort", "data", "args", "tid", "height")

    def __init__(self, kind: str, sort: str, data, args: tuple["Term", ...]):
        self.kind = kind
        self.sort = sort
        self.data = data
        self.args = args
        self.tid = next(_ids)
        self.height = 1 + max([a.height for a in args]) if args else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{pretty(self)}>"

    def __hash__(self) -> int:
        return self.tid

    # identity equality is intentional: the pool guarantees canonicity


def _intern(kind: str, sort: str, data, args: tuple[Term, ...]) -> Term:
    key = (kind, sort, data, tuple(a.tid for a in args))
    t = _pool.get(key)
    if t is None:
        # setdefault keeps identity canonical even under concurrent misses
        t = _pool.setdefault(key, Term(kind, sort, data, args))
    return t


# ---------------------------------------------------------------------------
# Exact numbers: an int when the value is integral, else a Fraction
# ---------------------------------------------------------------------------
#
# Constants, coefficients and (in the solver) bounds and model values are
# held this way.  An int and the equal Fraction hash and compare alike, so
# interning stays canonical; the point is that int arithmetic is much cheaper.

def _q(x):
    """``x`` as an int when it is an integral Fraction, else unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _div(a, b):
    """The exact quotient ``a / b`` in normal form (never a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return _q(a / b)


# A number longer than this renders as its length: Python 3.11+ refuses to
# turn an int of over 4300 digits into text, and a folded product can be that
# long however short the literals are.
MAX_NUM_DIGITS = 1000
_NUM_LIMIT = 10 ** MAX_NUM_DIGITS


def num_str(x) -> str:
    """An exact number as text, the same on every Python version."""
    if type(x) is Fraction and x.denominator != 1:
        return f"{num_str(x.numerator)}/{num_str(x.denominator)}"
    n = abs(int(x))
    if n < _NUM_LIMIT:
        return str(x)
    digits = int((n.bit_length() - 1) * 0.30102999566398120)   # log10(2)
    while n >= 10 ** digits:
        digits += 1
    return f"{'-' if x < 0 else ''}<{digits}-digit number>"


# ---------------------------------------------------------------------------
# Literals and variables
# ---------------------------------------------------------------------------

_ints: dict = {}   # exact number -> its num term


def mk_int(value) -> Term:
    t = _ints.get(value)
    if t is None:
        value = _q(value)
        t = _ints[value] = _intern("num", INT if value.denominator == 1 else FRAC,
                                   value, ())
    return t


def mk_frac(value) -> Term:
    return _intern("num", FRAC, _q(value), ())


def mk_bool(value: bool) -> Term:
    return _intern("boollit", BOOL, bool(value), ())


TRUE = mk_bool(True)
FALSE = mk_bool(False)
ZERO = mk_int(0)
ONE = mk_int(1)


def mk_var(name: str, sort: str) -> Term:
    return _intern("var", sort, name, ())


def mk_ref(ref_id: int, name: str, ghost: bool = False) -> Term:
    """A concrete allocated location.  Distinct ids denote distinct locations."""
    return _intern("ref", REF, (ref_id, name, ghost), ())


def is_ghost_ref(t: Term) -> bool:
    return t.kind == "ref" and t.data[2]


def ref_name(t: Term) -> str:
    if t.kind == "ref":
        return t.data[1]
    return t.data if t.kind == "var" else pretty(t)



# ---------------------------------------------------------------------------
# Linear arithmetic canonical form
# ---------------------------------------------------------------------------
#
# Every numeric term is either a constant ("num"), an atom (var / opaque op)
# or a "lin" node with data (const, coeffs: tuple[(atom, coeff)]), where the
# constant and coefficients are exact numbers (int or Fraction, as above).
# Coefficient lists are sorted by atom id and never contain zero coefficients.

def linear_parts(t: Term) -> tuple[int | Fraction, dict[Term, int | Fraction]]:
    """Decompose a numeric term into (constant, {atom: coeff})."""
    if t.kind == "num":
        return t.data, {}
    if t.kind == "lin":
        const, pairs = t.data
        return const, dict(pairs)
    return 0, {t: 1}


def mk_linear(const, coeffs: dict[Term, int | Fraction]) -> Term:
    const = _q(const)
    coeffs = {a: _q(c) for a, c in coeffs.items() if c != 0}
    if not coeffs:
        return mk_int(const) if const.denominator == 1 else mk_frac(const)
    if const == 0 and len(coeffs) == 1:
        (atom, c), = coeffs.items()
        if c == 1:
            return atom
    pairs = tuple(sorted(coeffs.items(), key=lambda ac: ac[0].tid))
    sort = INT
    if const.denominator != 1 or any(
        c.denominator != 1 or a.sort == FRAC for a, c in pairs
    ):
        sort = FRAC
    return _intern("lin", sort, (const, pairs), tuple(a for a, _ in pairs))


def add(*ts: Term) -> Term:
    key = ("add", *[t.tid for t in ts])
    r = _memo.get(key)
    if r is None:
        const = 0
        coeffs: dict[Term, int | Fraction] = {}
        for t in ts:
            c, parts = linear_parts(t)
            const += c
            for a, k in parts.items():
                coeffs[a] = coeffs.get(a, 0) + k
        r = _memo[key] = mk_linear(const, coeffs)
    return r


def neg(t: Term) -> Term:
    return scale(-1, t)


def sub(a: Term, b: Term) -> Term:
    key = ("sub", a.tid, b.tid)
    r = _memo.get(key)
    if r is None:
        const, coeffs = linear_parts(a)
        c, parts = linear_parts(b)
        for t, k in parts.items():
            coeffs[t] = coeffs.get(t, 0) - k
        r = _memo[key] = mk_linear(const - c, coeffs)
    return r


def scale(k, t: Term) -> Term:
    k = _q(k)
    key = ("scale", k, t.tid)
    r = _memo.get(key)
    if r is None:
        const, coeffs = linear_parts(t)
        r = _memo[key] = mk_linear(const * k, {a: c * k for a, c in coeffs.items()})
    return r


def mul(a: Term, b: Term) -> Term:
    if a.kind == "num":
        return scale(a.data, b)
    if b.kind == "num":
        return scale(b.data, a)
    x, y = (a, b) if a.tid <= b.tid else (b, a)
    return _intern("mul", INT, None, (x, y))


def _opaque(kind: str, a: Term, b: Term) -> Term:
    return _intern(kind, INT, None, (a, b))


def mod_(a: Term, b: Term) -> Term:
    return _opaque("mod", a, b)


def div_(a: Term, b: Term) -> Term:
    return _opaque("div", a, b)


def bitand(a: Term, b: Term) -> Term:
    return _opaque("bitand", a, b)


def bitor(a: Term, b: Term) -> Term:
    return _opaque("bitor", a, b)


def bitxor(a: Term, b: Term) -> Term:
    return _opaque("bitxor", a, b)


def shl(a: Term, b: Term) -> Term:
    return _opaque("shl", a, b)


def shr(a: Term, b: Term) -> Term:
    return _opaque("shr", a, b)


OPAQUE_KINDS = frozenset({"mul", "mod", "div", "bitand", "bitor", "bitxor", "shl", "shr"})


def _int_valued(const, coeffs: dict[Term, int | Fraction]) -> bool:
    return const.denominator == 1 and all(
        c.denominator == 1 and a.sort == INT for a, c in coeffs.items()
    )


def _norm_scale(const, coeffs: dict[Term, int | Fraction]):
    """Scale so coefficients are integral with gcd 1 (stable canonical form)."""
    denom = const.denominator
    for c in coeffs.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    const = _q(const * denom)
    coeffs = {a: _q(c * denom) for a, c in coeffs.items()}
    g = 0
    for c in coeffs.values():
        g = gcd(g, c)
    g = gcd(g, const)
    if g > 1:
        const = _div(const, g)
        coeffs = {a: _div(c, g) for a, c in coeffs.items()}
    return const, coeffs


# ---------------------------------------------------------------------------
# Comparisons: canonicalised to  t = 0,  t <= 0,  t < 0
# ---------------------------------------------------------------------------

def _cmp(kind: str, t: Term) -> Term:
    key = (kind, t.tid)
    r = _memo.get(key)
    if r is None:
        r = _memo[key] = _cmp_build(kind, t)
    return r


def _cmp_build(kind: str, t: Term) -> Term:
    const, coeffs = linear_parts(t)
    if not coeffs:
        if kind == "eq0":
            return mk_bool(const == 0)
        if kind == "le0":
            return mk_bool(const <= 0)
        return mk_bool(const < 0)
    const, coeffs = _norm_scale(const, coeffs)
    if kind == "eq0":
        # orient: first (lowest-id) coefficient positive
        first = min(coeffs, key=lambda a: a.tid)
        if coeffs[first] < 0:
            const = -const
            coeffs = {a: -c for a, c in coeffs.items()}
        # GCD test: _norm_scale left gcd(coefficients, const) = 1, so the
        # coefficients' gcd divides const only when it is 1
        if _int_valued(const, coeffs) and gcd(*coeffs.values()) > 1:
            return FALSE
    elif _int_valued(const, coeffs):
        if kind == "lt0":
            # integer tightening:  t < 0  <=>  t + 1 <= 0
            kind, const = "le0", const + 1
        # and by the coefficients' gcd g:  g*s + c <= 0  <=>  s + ceil(c/g) <= 0
        g = gcd(*coeffs.values())
        if g > 1:
            const = -(-const // g)
            coeffs = {a: c // g for a, c in coeffs.items()}
    lin = mk_linear(const, coeffs)
    return _intern(kind, BOOL, None, (lin,))


def eq(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a.sort == BOOL or b.sort == BOOL:
        return iff(a, b)
    if a.sort == REF or b.sort == REF:
        return eq_ref(a, b)
    return _cmp("eq0", sub(a, b))


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def le(a: Term, b: Term) -> Term:
    return _cmp("le0", sub(a, b))


def lt(a: Term, b: Term) -> Term:
    return _cmp("lt0", sub(a, b))


def ge(a: Term, b: Term) -> Term:
    return le(b, a)


def gt(a: Term, b: Term) -> Term:
    return lt(b, a)


def eq_ref(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    if a.kind == "ref" and b.kind == "ref":
        return mk_bool(a.data[0] == b.data[0])
    x, y = (a, b) if a.tid <= b.tid else (b, a)
    return _intern("eqref", BOOL, None, (x, y))


# ---------------------------------------------------------------------------
# Boolean structure
# ---------------------------------------------------------------------------

def and_(*ts: Term) -> Term:
    flat: list[Term] = []
    for t in ts:
        if t is TRUE:
            continue
        if t is FALSE:
            return FALSE
        if t.kind == "and":
            flat.extend(t.args)
        else:
            flat.append(t)
    uniq = sorted({t.tid: t for t in flat}.values(), key=lambda t: t.tid)
    if not uniq:
        return TRUE
    if len(uniq) == 1:
        return uniq[0]
    return _intern("and", BOOL, None, tuple(uniq))


def or_(*ts: Term) -> Term:
    flat: list[Term] = []
    for t in ts:
        if t is FALSE:
            continue
        if t is TRUE:
            return TRUE
        if t.kind == "or":
            flat.extend(t.args)
        else:
            flat.append(t)
    uniq = sorted({t.tid: t for t in flat}.values(), key=lambda t: t.tid)
    if not uniq:
        return FALSE
    if len(uniq) == 1:
        return uniq[0]
    return _intern("or", BOOL, None, tuple(uniq))


def not_(t: Term) -> Term:
    if t.kind == "boollit":
        return mk_bool(not t.data)
    if t.kind == "not":
        return t.args[0]
    return _intern("not", BOOL, None, (t,))


def iff(a: Term, b: Term) -> Term:
    if a is b:
        return TRUE
    return or_(and_(a, b), and_(not_(a), not_(b)))


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

_atom_ids: dict[int, frozenset[int]] = {}


def atom_ids(t: Term) -> frozenset[int]:
    """The tids of the variable, ref and opaque leaves occurring in the term,
    memoised by tid: terms are interned, so each term is scanned once however
    many facts share it."""
    ids = _atom_ids.get(t.tid)
    if ids is None:
        ids = frozenset().union(*map(atom_ids, t.args))
        if t.kind in ("var", "ref") or t.kind in OPAQUE_KINDS:
            ids |= {t.tid}
        _atom_ids[t.tid] = ids
    return ids


# ---------------------------------------------------------------------------
# Pretty printing (debugging, traces, counter-model hints)
# ---------------------------------------------------------------------------

_OP_SYMBOL = {
    "mul": "*", "mod": "%", "div": "/", "bitand": "&", "bitor": "|",
    "bitxor": "^", "shl": "<<", "shr": ">>",
}


def pretty(t: Term) -> str:
    k = t.kind
    if k == "num":
        return num_str(t.data)
    if k == "boollit":
        return "true" if t.data else "false"
    if k == "var":
        return t.data
    if k == "ref":
        return f"{t.data[1]}#{t.data[0]}"
    if k == "lin":
        const, pairs = t.data
        bits = []
        for a, c in pairs:
            bits.append(f"{num_str(c)}*{pretty(a)}" if c != 1 else pretty(a))
        if const != 0 or not bits:
            bits.append(num_str(const))
        return " + ".join(bits)
    if k in ("eq0", "le0", "lt0"):
        op = {"eq0": "==", "le0": "<=", "lt0": "<"}[k]
        return f"({pretty(t.args[0])} {op} 0)"
    if k == "and":
        return "(" + " && ".join(pretty(a) for a in t.args) + ")"
    if k == "or":
        return "(" + " || ".join(pretty(a) for a in t.args) + ")"
    if k == "not":
        return f"!{pretty(t.args[0])}"
    if k == "eqref":
        return f"({pretty(t.args[0])} === {pretty(t.args[1])})"
    if k in _OP_SYMBOL:
        return f"({pretty(t.args[0])} {_OP_SYMBOL[k]} {pretty(t.args[1])})"
    return f"<{k}>"  # pragma: no cover
