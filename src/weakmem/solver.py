"""Decision procedures for path conditions.

The built-in procedure decides conjunctions of:

* linear (in)equalities over integer-sorted terms,
* linear constraints over rational permission amounts (wildcard tokens),
* ``x % c`` and ``x / c`` for a nonzero integer literal ``c``, with SMT-LIB's
  Euclidean meaning: ``x = c*(x / c) + x % c`` and ``0 <= x % c <= |c| - 1``,
* boolean combinations of the above (with bounded case splitting).

It is a standard two-layer design: a splitting layer reduces formulas to
conjunctions of literals, and a simplex over exact rationals, held as int when
integral (general simplex with infinitesimals for strict bounds), decides each
conjunction.  Integer-sorted atoms need more: when the rational model is not
integral, the conjunction's integer equalities are solved away first (the
equality step of Pugh's Omega test), and branch-and-bound decides the
inequalities that remain.  Each query builds its own tableau, but from
literals prepared once per process: the first time any query sees a linear
form its column or slack row and its bounds are recorded, and the first time
a negated comparison is split its rewrite is.

A query reaches the splitting layer only when none of three cheaper steps
decides it.  First the Solver's tables of earlier answers: one
satisfiability table, keyed by the fact set, serves both feasibility and the
decided-satisfiability check ``assert_entailed(facts, FALSE)``.  Then the
syntax of the query (KLEE's query elimination, "reduce before you solve" in
Green): a goal among the facts is entailed, a fact beside its own negation
makes the facts unsatisfiable, and one literal that no ``%``, ``/`` or
opaque atom constrains has a model.  Last, for a satisfiability query, a
witness: bounds over wildcard tokens alone have a model when the tokens can
be positive infinitesimals of distinct orders (the simplex's own
infinitesimal, Dutertre and de Moura), ordered so that each bound's leading
term is negative.  The witness only ever answers "satisfiable".

Other non-linear atoms (general products, bitwise operations, division by a
non-literal) are uninterpreted, so "unsat" answers remain sound; a query
whose verdict would depend on their meaning comes back ``unknown`` with the
reason ``OPAQUE_ATOM``, as does one that reaches a resource bound.

``unknown`` is never treated as success by callers: the verifier turns it
into a verification failure tagged ``incomplete-solver``.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Iterable, NamedTuple, Optional

from . import terms
from .syntax import Record
from .terms import Term, _div, _q

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

SAT = "sat"
UNSAT = "unsat"

_CASE_CAP = 4096
_SIMPLEX_STEP_CAP = 20000
_BRANCH_DEPTH_CAP = 48

# why a query came back unknown
CASE_CAP_HIT = f"more than {_CASE_CAP} case splits"
STEP_CAP_HIT = f"more than {_SIMPLEX_STEP_CAP} simplex steps"
DEPTH_CAP_HIT = f"branch-and-bound depth {_BRANCH_DEPTH_CAP} reached"
OPAQUE_ATOM = "the model relies on an opaque atom"


class Result(Record):
    __slots__ = ("verdict",    # yes | no | unknown
                 "hint", "reason")
    _defaults = {"hint": None,      # counter-model sketch for "no"
                 "reason": None}    # why the verdict is "unknown"


# the one "yes": it carries nothing else, and no caller mutates a Result
RESULT_YES = Result(YES)


# ---------------------------------------------------------------------------
# Delta numbers: rationals extended with an infinitesimal for strict bounds
# ---------------------------------------------------------------------------

class Delta:
    __slots__ = ("real", "eps")

    def __init__(self, real, eps=0):
        self.real = real
        self.eps = eps

    def __add__(self, o: "Delta") -> "Delta":
        return Delta(_q(self.real + o.real), _q(self.eps + o.eps))

    def __sub__(self, o: "Delta") -> "Delta":
        return Delta(_q(self.real - o.real), _q(self.eps - o.eps))

    def scaled(self, k) -> "Delta":
        return Delta(_q(self.real * k), _q(self.eps * k))

    def __lt__(self, o: "Delta") -> bool:
        return (self.real, self.eps) < (o.real, o.eps)

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.real}{'+' if self.eps >= 0 else ''}{self.eps}e"


_D0 = Delta(0)


# ---------------------------------------------------------------------------
# Compiled literals: what the simplex needs of a linear form
# ---------------------------------------------------------------------------
#
# A literal ``lin kind 0`` (kind one of eq0, le0, lt0) constrains one simplex
# variable v:  ``v kind bound``, with the direction reversed when ``flip``.
# v is the column of ``atom`` for a single-atom form, the slack row of
# ``pairs`` for a longer one, and the constant 0 when the form has no atoms.
# Each linear form is compiled once per process, on first sight.  ``pairs``
# are the row's (atom, coefficient) pairs in tid order and ``key`` identifies
# the row (ints only, so it hashes fast); ``bound`` and ``strict`` are the
# bounds of the non-strict and of the strict literal.  ``defs`` are the
# definitions of the form's ``x % c`` and ``x / c`` atoms, which every case
# that mentions one of them adds once.


class _Compiled(NamedTuple):
    atom: Optional[Term]        # single-atom form
    pairs: tuple                # multi-atom form: the slack row
    key: Optional[tuple]
    bound: Delta
    strict: Delta
    flip: bool
    opaque: bool                # mentions an uninterpreted atom
    lin: Term                   # the form itself
    defs: tuple


def _euclidean(atom: Term) -> bool:
    """Whether the atom is ``x % c`` or ``x / c`` for an integer ``x`` and a
    nonzero integer literal ``c``."""
    if atom.kind not in ("mod", "div"):
        return False
    x, c = atom.args
    return x.sort == terms.INT and c.kind == "num" and c.sort == terms.INT and c.data != 0


def _definition(atom: Term) -> Term:
    """``x = c*q + r`` and ``0 <= r <= |c| - 1`` for ``q = x / c`` and
    ``r = x % c``: SMT-LIB's Euclidean division, one term for both atoms."""
    x, c = atom.args
    q, r = terms.div_(x, c), terms.mod_(x, c)
    return terms.and_(terms.eq(x, terms.add(terms.scale(c.data, q), r)),
                      terms.ge(r, terms.ZERO), terms.le(r, terms.mk_int(abs(c.data) - 1)))


def _compile(lin: Term) -> _Compiled:
    const, coeffs = terms.linear_parts(lin)
    defs = tuple(_definition(a) for a in coeffs if _euclidean(a))
    opaque = any(a.kind in terms.OPAQUE_KINDS and not _euclidean(a) for a in coeffs)
    if len(coeffs) == 1:
        (atom, c), = coeffs.items()
        flip = c < 0
        bound = _div(-const, c)
        return _Compiled(atom, (), None, Delta(bound), Delta(bound, 1 if flip else -1),
                         flip, opaque, lin, defs)
    pairs = tuple(coeffs.items())
    key = tuple(n for a, c in pairs for n in (a.tid, c.numerator, c.denominator))
    return _Compiled(None, pairs, key, Delta(-const), Delta(-const, -1), False, opaque,
                     lin, defs)


# Both tables are pure functions of interned terms, so like ``terms._pool``
# and ``terms._memo`` they are process-global and never freed.
_compiled_forms: dict[int, _Compiled] = {}   # linear form tid -> entry
_negations: dict[int, Term] = {}             # negated term tid -> rewrite


def _compiled(lin: Term) -> _Compiled:
    entry = _compiled_forms.get(lin.tid)
    if entry is None:
        entry = _compiled_forms[lin.tid] = _compile(lin)
    return entry


# ---------------------------------------------------------------------------
# Simplex over a conjunction of linear literals
# ---------------------------------------------------------------------------

class _Simplex:
    """General simplex (Dutertre/de Moura style) for one conjunction.

    Each query (and each branch-and-bound node) builds its own tableau from
    compiled literals.  Atoms become columns; each distinct multi-atom linear
    form becomes a slack row.  Strict bounds use the infinitesimal component.
    Every variable is 0 until ``check`` moves the nonbasics to their bounds.
    """

    def __init__(self):
        self.cols: dict[Term, int] = {}        # atom -> var index
        self.rows: dict[tuple, int] = {}       # row key -> var index
        self.tableau: dict[int, dict[int, int | Fraction]] = {}
        self.lower: dict[int, Delta] = {}
        self.upper: dict[int, Delta] = {}
        self.assign: dict[int, Delta] = {}
        self.basic: set[int] = set()
        self.nonbasic: set[int] = set()
        self.n = 0
        self.conflict = False

    def _var(self, atom: Term) -> int:
        idx = self.cols.get(atom)
        if idx is None:
            idx = self.n
            self.n += 1
            self.cols[atom] = idx
            self.nonbasic.add(idx)
            self.assign[idx] = _D0
        return idx

    def _slack(self, key: tuple, pairs: tuple) -> int:
        idx = self.rows.get(key)
        if idx is None:
            row = {self._var(a): c for a, c in pairs}
            idx = self.n
            self.n += 1
            self.rows[key] = idx
            self.tableau[idx] = row
            self.basic.add(idx)
            self.assign[idx] = _D0
        return idx

    def _row_value(self, row: dict[int, int | Fraction]) -> Delta:
        real = eps = 0
        assign = self.assign
        for x, c in row.items():
            v = assign[x]
            if v.real:
                real += c * v.real
            if v.eps:
                eps += c * v.eps
        return Delta(_q(real), _q(eps))

    def add_literal(self, kind: str, lit: _Compiled) -> None:
        atom, pairs, key, bound, strict, flip, _, _, _ = lit
        # every literal has an atom: terms._cmp folds an atomless comparison
        x = self._var(atom) if atom is not None else self._slack(key, pairs)
        if kind == "eq0":
            self._tighten(x, bound, upper=True)
            self._tighten(x, bound, upper=False)
        else:
            self._tighten(x, bound if kind == "le0" else strict, upper=not flip)

    def _tighten(self, x: int, b: Delta, upper: bool) -> None:
        if upper:
            cur = self.upper.get(x)
            if cur is None or b < cur:
                self.upper[x] = b
                lo = self.lower.get(x)
                if lo is not None and b < lo:
                    self.conflict = True
        else:
            cur = self.lower.get(x)
            if cur is None or cur < b:
                self.lower[x] = b
                hi = self.upper.get(x)
                if hi is not None and hi < b:
                    self.conflict = True

    # -- core algorithm ----------------------------------------------------

    def _out_of_bounds(self) -> Optional[tuple[int, bool]]:
        for x in sorted(self.basic):
            v = self.assign[x]
            lo, hi = self.lower.get(x), self.upper.get(x)
            if lo is not None and v < lo:
                return x, True
            if hi is not None and hi < v:
                return x, False
        return None

    def _pivot(self, b: int, nb: int) -> None:
        row = self.tableau.pop(b)
        c = row[nb]
        new_row = {b: _div(1, c)}
        for x, k in row.items():
            if x != nb:
                new_row[x] = _div(-k, c)
        self.tableau[nb] = new_row
        for r, other in self.tableau.items():
            if r == nb:
                continue
            k = other.pop(nb, None)
            if k:
                for x, c2 in new_row.items():
                    prev = other.get(x)
                    v = _q(k * c2 if prev is None else prev + k * c2)
                    if v:
                        other[x] = v
                    else:
                        del other[x]
        self.basic.remove(b)
        self.basic.add(nb)
        self.nonbasic.remove(nb)
        self.nonbasic.add(b)

    def check(self) -> str:
        if self.conflict:
            return UNSAT
        # start: every bounded nonbasic at a bound, each basic at its row's value
        for x in self.nonbasic:
            lo = self.lower.get(x)
            v = lo if lo is not None else self.upper.get(x)
            if v is not None:
                self.assign[x] = v
        for b in self.basic:
            self.assign[b] = self._row_value(self.tableau[b])
        # a safety valve: Bland's rule should terminate long before the cap
        for _ in range(_SIMPLEX_STEP_CAP):
            bad = self._out_of_bounds()
            if bad is None:
                return SAT
            xb, need_increase = bad
            row = self.tableau[xb]
            target = self.lower[xb] if need_increase else self.upper[xb]
            picked = None
            for xn in sorted(row):
                c = row[xn]
                if need_increase:
                    can = (c > 0 and self._can_increase(xn)) or (c < 0 and self._can_decrease(xn))
                else:
                    can = (c > 0 and self._can_decrease(xn)) or (c < 0 and self._can_increase(xn))
                if can:
                    picked = xn
                    break
            if picked is None:
                return UNSAT
            # pivotAndUpdate: move xb to its violated bound, shift picked
            theta = (target - self.assign[xb]).scaled(_div(1, row[picked]))
            self.assign[xb] = target
            self.assign[picked] = self.assign[picked] + theta
            for xk in self.basic:
                if xk != xb:
                    akj = self.tableau[xk].get(picked)
                    if akj:
                        self.assign[xk] = self.assign[xk] + theta.scaled(akj)
            self._pivot(xb, picked)
        return UNKNOWN

    def _can_increase(self, x: int) -> bool:
        hi = self.upper.get(x)
        return hi is None or self.assign[x] < hi

    def _can_decrease(self, x: int) -> bool:
        lo = self.lower.get(x)
        return lo is None or lo < self.assign[x]

    # -- models ------------------------------------------------------------

    def concrete_model(self) -> dict[Term, int | Fraction]:
        """Resolve the infinitesimal into a concrete positive rational."""
        delta = 1
        checks: list[tuple[Delta, Delta]] = []
        for x in range(self.n):
            v = self.assign.get(x, _D0)
            lo, hi = self.lower.get(x), self.upper.get(x)
            if lo is not None:
                checks.append((lo, v))
            if hi is not None:
                checks.append((v, hi))
        for a, b in checks:
            # need real(a) + eps(a)*d <= real(b) + eps(b)*d
            if a.eps > b.eps and b.real > a.real:
                delta = min(delta, _div(b.real - a.real, a.eps - b.eps))
        out: dict[Term, int | Fraction] = {}
        for atom, x in self.cols.items():
            v = self.assign.get(x, _D0)
            out[atom] = _q(v.real + v.eps * delta)
        return out


def _check_linear(literals: list[tuple[str, _Compiled]], depth: int = 0):
    """Decide a conjunction of compiled linear literals.

    Returns (SAT, model) / (UNSAT, None) / (UNKNOWN, reason), where the model
    is a function that returns it as a dict.  A satisfiable tableau holds its
    assignment with the infinitesimal of strict bounds unresolved, and
    ``concrete_model`` resolves it only when the model is read: here, when
    an integer column holds a value with an infinitesimal or a fraction and
    branch-and-bound must test what it resolves to; otherwise when the caller
    calls the model.
    """
    sx = _Simplex()
    for kind, lit in literals:
        sx.add_literal(kind, lit)
    res = sx.check()
    if res == UNKNOWN:
        return UNKNOWN, STEP_CAP_HIT
    if res == UNSAT:
        return UNSAT, None
    assign = sx.assign
    if all(atom.sort != terms.INT or (assign[x].eps == 0 and assign[x].real.denominator == 1)
           for atom, x in sx.cols.items()):
        # every integer column already holds an integer, which the model keeps
        return SAT, sx.concrete_model
    model = sx.concrete_model()
    for atom, val in sorted(model.items(), key=lambda kv: kv[0].tid):
        if atom.sort == terms.INT and val.denominator != 1:
            if depth == 0 and any(k == "eq0" for k, _ in literals):
                return _solve_equalities(literals)
            if depth >= _BRANCH_DEPTH_CAP:
                return UNKNOWN, DEPTH_CAP_HIT
            lin = terms.sub(atom, terms.mk_int(floor(val)))
            lo = literals + [("le0", _compiled(lin))]
            r, m = _check_linear(lo, depth + 1)
            if r == SAT:
                return r, m
            lin = terms.sub(terms.mk_int(ceil(val)), atom)
            hi = literals + [("le0", _compiled(lin))]
            r2, m2 = _check_linear(hi, depth + 1)
            if r2 == SAT:
                return r2, m2
            return (r, m) if r == UNKNOWN else (r2, m2)
    return SAT, lambda: model


def _mod_hat(a: int, m: int) -> int:
    """Pugh's symmetric remainder: ``a - m*floor(a/m + 1/2)``."""
    return a - m * ((2 * a + m) // (2 * m))


def _solve_equalities(literals: list[tuple[str, _Compiled]]):
    """Decide a conjunction by first solving its equalities away.

    An equality that mentions a rational (frac-sorted) atom is solved for it.
    An integer one is solved by the equality step of Pugh's Omega test: for
    an atom with a unit coefficient if it has one; otherwise, with ``a`` its
    smallest coefficient and ``m = |a| + 1``, a fresh integer ``sigma`` is
    defined by ``m*sigma = sum of (a_i mod^ m)*x_i``, in which that atom's
    coefficient is -sign(a), and solving that for the atom shrinks the
    equality's other coefficients, until one is a unit.  Each substitution is
    exact, and every literal is canonicalised again, so the gcd tests of
    ``terms._cmp`` apply to the results.  The model of what remains is
    extended to every atom of the literals; the sigmas are left out of it.
    """
    forms = [(kind, lit.lin) for kind, lit in literals]
    solved: list[tuple[Term, Term]] = []
    sigmas: list[Term] = []
    while True:
        eq = next((lin for kind, lin in forms if kind == "eq0"), None)
        if eq is None:
            break
        const, coeffs = terms.linear_parts(eq)
        rational = [x for x in coeffs if x.sort != terms.INT]
        if rational:
            atom = rational[0]
        else:
            atom = min(coeffs, key=lambda x: (abs(coeffs[x]), x.tid))
        a = coeffs[atom]
        if rational or abs(a) == 1:
            value = terms.scale(_div(-1, a), terms.sub(eq, terms.scale(a, atom)))
        else:
            m, s = abs(a) + 1, 1 if a > 0 else -1
            sigma = terms.mk_var(f"σ!{len(sigmas)}", terms.INT)
            sigmas.append(sigma)
            rest = {x: s * _mod_hat(c, m) for x, c in coeffs.items() if x is not atom}
            value = terms.mk_linear(s * _mod_hat(const, m), {**rest, sigma: -s * m})
        solved.append((atom, value))
        reduced = []
        for kind, lin in forms:
            k = terms.linear_parts(lin)[1].get(atom)
            if k is not None:
                lit = terms._cmp(kind, terms.add(lin, terms.scale(k, terms.sub(value, atom))))
                if lit is terms.FALSE:
                    return UNSAT, None
                if lit is terms.TRUE:
                    continue
                kind, lin = lit.kind, lit.args[0]
            reduced.append((kind, lin))
        forms = reduced
    res, model = _check_linear([(kind, _compiled(lin)) for kind, lin in forms])
    if res != SAT:
        return res, model
    model = model()
    for atom, value in reversed(solved):
        model[atom] = _value_at(value, model)
    for sigma in sigmas:
        model.pop(sigma, None)
    for _, lit in literals:
        for atom in terms.linear_parts(lit.lin)[1]:
            model.setdefault(atom, 0)     # left unconstrained by the solving
    return SAT, lambda: model


def _value_at(term: Term, model: dict[Term, int | Fraction]):
    """The value of a numeric term in a model (atoms it lacks read as 0)."""
    const, coeffs = terms.linear_parts(term)
    return _q(const + sum(c * model.get(a, 0) for a, c in coeffs.items()))


# ---------------------------------------------------------------------------
# Splitting layer: formulas -> conjunctions of literals
# ---------------------------------------------------------------------------

class _Case(Record):
    __slots__ = ("linear", "bools", "opaque", "defined")
    _defaults = {"linear": [], "bools": {}, "opaque": False,
                 "defined": frozenset()}    # the definitions added


def _negation(g: Term) -> Term:
    """The rewrite of ``not g`` for a comparison or a conjunction."""
    gk = g.kind
    if gk == "eq0":
        return terms.or_(
            terms._cmp("lt0", g.args[0]),
            terms._cmp("lt0", terms.neg(g.args[0])),
        )
    if gk == "le0":
        return terms._cmp("lt0", terms.neg(g.args[0]))
    if gk == "lt0":
        return terms._cmp("le0", terms.neg(g.args[0]))
    return terms.or_(*[terms.not_(a) for a in g.args])


def _split(facts: list[Term]):
    """Yield literal cases; raises _CapExceeded if the split blows up."""
    produced = 0
    stack: list[tuple[list[Term], _Case]] = [(list(facts), _Case())]
    while stack:
        todo, case = stack.pop()
        contradictory = False
        while todo:
            f = todo.pop()
            k = f.kind
            if f is terms.TRUE:
                continue
            if f is terms.FALSE:
                contradictory = True
                break
            if k == "and":
                todo.extend(f.args)
            elif k == "or":
                produced += len(f.args)
                if produced > _CASE_CAP:
                    raise _CapExceeded
                for arm in f.args:
                    branch = _Case(list(case.linear), dict(case.bools), case.opaque,
                                   case.defined)
                    stack.append((todo + [arm], branch))
                todo = None
                case = None
                break
            elif k == "not":
                g = f.args[0]
                gk = g.kind
                if gk in ("eq0", "le0", "lt0", "and"):
                    r = _negations.get(g.tid)
                    if r is None:
                        r = _negations[g.tid] = _negation(g)
                    todo.append(r)
                elif gk == "or":
                    todo.extend(terms.not_(a) for a in g.args)
                else:
                    prev = case.bools.get(g)
                    if prev is True:
                        contradictory = True
                        break
                    case.bools[g] = False
                    if gk != "var":
                        case.opaque = True
            elif k in ("eq0", "le0", "lt0"):
                lit = _compiled(f.args[0])
                if lit.opaque:
                    case.opaque = True
                case.linear.append((k, lit))
                for d in lit.defs:
                    if d not in case.defined:
                        case.defined |= {d}
                        todo.append(d)
            else:
                prev = case.bools.get(f)
                if prev is False:
                    contradictory = True
                    break
                case.bools[f] = True
                if k != "var":
                    case.opaque = True
        if case is None or contradictory:
            continue
        if todo is not None and not todo:
            yield case


class _CapExceeded(Exception):
    pass


def _sat_conjunction(facts: list[Term]):
    """(SAT/UNSAT/UNKNOWN, model, reason): the model is ``_check_linear``'s
    function, and the reason is why the answer is not decided, for UNKNOWN
    and for a SAT model that uses an opaque literal, else None."""
    unknown = None
    try:
        for case in _split(facts):
            res, model = _check_linear(case.linear)
            if res == SAT:
                return SAT, model, OPAQUE_ATOM if case.opaque else None
            if res == UNKNOWN:
                unknown = unknown or model
    except _CapExceeded:
        return UNKNOWN, None, CASE_CAP_HIT
    if unknown:
        return UNKNOWN, None, unknown
    return UNSAT, None, None


def _free_literal(f: Term) -> bool:
    """Whether the fact alone has a model with no opaque literal: a boolean
    atom, a linear comparison with no ``%``, ``/`` or opaque atom, or the
    negation of either.  Comparisons arrive canonical from ``terms._cmp``,
    which folds one that is constant, or an integer equality that fails the
    gcd test, to ``FALSE``; any other has an integer point, and so does its
    negation."""
    if f.kind == "not":
        f = f.args[0]
    k = f.kind
    if k == "var":
        return True
    if k == "eq0" or k == "le0" or k == "lt0":
        lit = _compiled(f.args[0])
        return not (lit.opaque or lit.defs)
    return False


def _by_syntax(facts: list[Term], key: frozenset[int]) -> Optional[str]:
    """SAT or UNSAT when the fact set's syntax shows it, else None: a set
    with ``FALSE`` or with a fact beside its own negation is unsatisfiable,
    and a set of one free literal is satisfiable."""
    if terms.FALSE.tid in key:
        return UNSAT
    for f in facts:
        if f.kind == "not" and f.args[0].tid in key:
            return UNSAT
    if len(key) == 1 and _free_literal(facts[0]):
        return SAT
    return None


def _by_witness(facts: list[Term]) -> Optional[list[Term]]:
    """A model of facts that are all ``le0`` or ``lt0`` of a linear form over
    frac-sorted variables, else None.  Every atom is taken as a positive
    infinitesimal of its own order, so a form with a constant has the
    constant's sign and one without has the sign of its largest atom's
    coefficient; every form must come out negative.  The order is built
    largest first: an atom comes next when its coefficient is negative in
    some form still open and positive in none, and it closes those forms.
    That greedy choice is complete for this model, since closing a form only
    frees the atoms that come after.

    Returns the atoms it ordered, largest first, as the certificate: with
    the ``i``-th of them ``d**(i+1)`` and each other atom smaller still,
    every fact holds for all small enough ``d > 0``."""
    open_forms = []
    for f in facts:
        k = f.kind
        if k != "le0" and k != "lt0":
            return None
        lin = f.args[0]
        if lin.kind != "lin":
            return None     # a lone atom ``w``, which is positive
        const, pairs = lin.data
        for a, _ in pairs:
            if a.kind != "var" or a.sort != terms.FRAC:
                return None
        if const > 0:
            return None
        if not const:
            open_forms.append(pairs)
    order: list[Term] = []
    while open_forms:
        up = {a for pairs in open_forms for a, c in pairs if c > 0}
        # no atom ordered before appears in an open form, and each one
        # ordered now is negative wherever it appears in one
        down = dict.fromkeys(a for pairs in open_forms for a, c in pairs
                             if c < 0 and a not in up)
        if not down:
            return None
        order += down
        open_forms = [pairs for pairs in open_forms if not any(a in down for a, _ in pairs)]
    return order


def _format_model(model: dict[Term, int | Fraction], facts: list[Term]) -> Optional[str]:
    """The model on the atoms of the facts: not on a quotient or remainder
    that only the definition of a ``%`` or ``/`` brought in."""
    ids = frozenset().union(*map(terms.atom_ids, facts))
    bits = [f"{terms.pretty(a)} = {terms.num_str(v)}"
            for a, v in sorted(model.items(), key=lambda kv: kv[0].tid) if a.tid in ids]
    return ", ".join(bits[:8]) or None


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

class Solver:
    """Entailment and feasibility queries over a set of facts.

    The verifier's queries arrive already sliced: ``symstate`` splits each
    path condition into independence groups and asks about one group, or
    about the groups a goal reaches, at a time, so its tables of verdicts
    and of model values are keyed by those facts; it is safe to share across
    obligations.  The linear forms compiled for the simplex and the rewritten
    negations are not per Solver: the module keeps each once per process,
    beside the term pool, so a fact is prepared once however many queries
    and Solvers mention it.

    A query is decided by the first of four steps that can: the tables, the
    syntax of the facts (``_by_syntax``), for satisfiability an
    infinitesimal model of bounds over wildcard tokens (``_by_witness``),
    and only then the split and the simplex, which ``queries`` counts.  One
    satisfiability table, keyed by the fact set, holds
    ``(SAT/UNSAT/UNKNOWN, reason)`` and answers both ``is_feasible`` and
    ``assert_entailed(facts, FALSE)``; so the ``no`` of the latter carries
    no hint.  An entailment of any other goal is not
    tabled, as the executor seldom asks one twice.

    A model, with the simplex's infinitesimal resolved to a number, is built
    only where one is read: by branch-and-bound's integrality test when the
    tableau has an integer column, by the back-substitution of solved
    equalities, by the hint of an entailment's ``no`` and by
    ``model_value``.  The satisfiability table never reads one, so a
    satisfiable group of wildcard tokens alone that the witness declines,
    such as one with an equality, is decided without a model.
    """

    def __init__(self):
        self._sat_cache: dict[frozenset[int], tuple[str, Optional[str]]] = {}
        self._value_cache: dict[tuple[frozenset[int], int], object] = {}
        self.queries = 0

    def _satisfiable(self, facts: list[Term], key: frozenset[int]) -> tuple[str, Optional[str]]:
        """(SAT/UNSAT/UNKNOWN, reason), as ``_sat_conjunction`` gives them."""
        hit = self._sat_cache.get(key)
        if hit is None:
            verdict = _by_syntax(facts, key)
            if verdict is not None:
                hit = (verdict, None)
            elif _by_witness(facts) is not None:
                hit = (SAT, None)
            else:
                self.queries += 1
                res, _, reason = _sat_conjunction(facts)
                hit = (res, reason)
            self._sat_cache[key] = hit
        return hit

    # -- feasibility -------------------------------------------------------

    def is_feasible(self, path: Iterable[Term]) -> str:
        """Whether the facts have a model: ``yes`` even if it uses an opaque
        atom."""
        facts = [f for f in path if f is not terms.TRUE]
        res, _ = self._satisfiable(facts, frozenset(f.tid for f in facts))
        return YES if res == SAT else NO if res == UNSAT else UNKNOWN

    # -- entailment --------------------------------------------------------

    def assert_entailed(self, path: Iterable[Term], goal: Term) -> Result:
        """Whether the facts entail ``goal``.

        ``no`` comes only with a model that uses no opaque literal, so
        ``assert_entailed(facts, FALSE)`` is the decided satisfiability
        check: ``yes`` if the facts are unsatisfiable, ``no`` if they have
        such a model, else ``unknown``.  That ``no`` carries no hint.
        """
        if goal is terms.TRUE:
            return RESULT_YES
        facts = [f for f in path if f is not terms.TRUE]
        key = frozenset(f.tid for f in facts)
        if goal is terms.FALSE:
            res, reason = self._satisfiable(facts, key)
            if res == UNSAT:
                return RESULT_YES
            if res == SAT and reason is None:
                return Result(NO)
            return Result(UNKNOWN, reason=reason)
        if goal.tid in key:
            return RESULT_YES
        if _by_syntax(facts, key) == UNSAT:
            return RESULT_YES   # anything follows from an infeasible path
        self.queries += 1
        facts.append(terms.not_(goal))
        res, model, reason = _sat_conjunction(facts)
        if res == UNSAT:
            return RESULT_YES
        if reason is None:
            return Result(NO, _format_model(model(), facts))
        return Result(UNKNOWN, reason=reason)

    # -- model probing -------------------------------------------------------

    def model_value(self, path: Iterable[Term], term: Term):
        """The unique value of a numeric term under the path, if determined.

        Extracts a candidate from one model and confirms it by entailment;
        returns an exact number (int or Fraction) or None.
        """
        facts = [f for f in path if f is not terms.TRUE]
        key = (frozenset(f.tid for f in facts), term.tid)
        if key not in self._value_cache:
            self._value_cache[key] = self._model_value(facts, term)
        return self._value_cache[key]

    def _model_value(self, facts: list[Term], term: Term):
        # with the definitions of the term's own `%` and `/` atoms in the model
        res, model, _ = _sat_conjunction(facts + list(_compiled(term).defs))
        if res != SAT:
            return None
        val = _value_at(term, model())
        if self.assert_entailed(facts, terms.eq(term, terms.mk_int(val))).verdict == YES:
            return val
        return None
