"""Decision procedures for path conditions.

The built-in procedure decides conjunctions of:

* linear (in)equalities over integer-sorted terms,
* linear constraints over rational permission amounts (wildcard tokens),
* boolean combinations of the above (with bounded case splitting).

It is a standard two-layer design: a splitting layer reduces formulas to
conjunctions of literals, and a simplex over exact rationals, held as int when
integral (general simplex with infinitesimals for strict bounds, plus
branch-and-bound for integer-sorted atoms), decides each conjunction.  Each
query builds its own tableau, but from literals prepared once per process:
the first time any query sees a linear form its column or slack row and its
bounds are recorded, and the first time a negated comparison is split its
rewrite is.

Non-linear atoms (general products, modulo, bitwise operations) are treated
as uninterpreted, so "unsat" answers remain sound; queries whose verdict
would depend on their semantics come back ``unknown`` unless an external SMT
solver command is given.

``unknown`` is never treated as success by callers: the verifier turns it
into a verification failure tagged ``incomplete-solver``.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, NamedTuple, Optional

from . import terms
from .terms import Term, _div, _q

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

SAT = "sat"
UNSAT = "unsat"

_CASE_CAP = 4096
_BRANCH_DEPTH_CAP = 48

# why a query came back unknown
CASE_CAP_HIT = f"more than {_CASE_CAP} case splits"
DEPTH_CAP_HIT = f"branch-and-bound depth {_BRANCH_DEPTH_CAP} reached"
OPAQUE_ATOM = "the model relies on an opaque atom"


class ExternalSolverError(Exception):
    """The external SMT process failed or produced no usable verdict."""


@dataclass
class Result:
    verdict: str                  # yes | no | unknown
    hint: Optional[str] = None    # counter-model sketch for "no"
    reason: Optional[str] = None  # why the verdict is "unknown"


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
# bounds of the non-strict and of the strict literal.


class _Compiled(NamedTuple):
    atom: Optional[Term]        # single-atom form
    pairs: tuple                # multi-atom form: the slack row
    key: Optional[tuple]
    bound: Delta
    strict: Delta
    flip: bool
    opaque: bool                # mentions a non-linear atom


def _compile(lin: Term) -> _Compiled:
    const, coeffs = terms.linear_parts(lin)
    opaque = any(a.kind in terms.OPAQUE_KINDS for a in coeffs)
    if len(coeffs) == 1:
        (atom, c), = coeffs.items()
        flip = c < 0
        bound = _div(-const, c)
        return _Compiled(atom, (), None, Delta(bound), Delta(bound, 1 if flip else -1),
                         flip, opaque)
    pairs = tuple(coeffs.items())
    key = tuple(n for a, c in pairs for n in (a.tid, c.numerator, c.denominator))
    return _Compiled(None, pairs, key, Delta(-const), Delta(-const, -1), False, opaque)


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
        atom, pairs, key, bound, strict, flip, _ = lit
        if atom is not None:
            x = self._var(atom)
        elif pairs:
            x = self._slack(key, pairs)
        else:
            zero = bound.real
            if not (zero == 0 if kind == "eq0" else zero >= 0 if kind == "le0" else zero > 0):
                self.conflict = True
            return
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
        steps = 0
        while True:
            steps += 1
            if steps > 20000:  # safety valve; Bland's rule should terminate long before
                return UNKNOWN
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

    Returns (SAT, model) / (UNSAT, None) / (UNKNOWN, None).
    """
    sx = _Simplex()
    for kind, lit in literals:
        sx.add_literal(kind, lit)
    res = sx.check()
    if res != SAT:
        return res, None
    model = sx.concrete_model()
    for atom, val in sorted(model.items(), key=lambda kv: kv[0].tid):
        if atom.sort == terms.INT and val.denominator != 1:
            if depth >= _BRANCH_DEPTH_CAP:
                return UNKNOWN, None
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
            if r == UNKNOWN or r2 == UNKNOWN:
                return UNKNOWN, None
            return UNSAT, None
    return SAT, model


# ---------------------------------------------------------------------------
# Splitting layer: formulas -> conjunctions of literals
# ---------------------------------------------------------------------------

@dataclass
class _Case:
    linear: list[tuple[str, _Compiled]] = field(default_factory=list)
    bools: dict[Term, bool] = field(default_factory=dict)
    opaque: bool = False


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
                    branch = _Case(list(case.linear), dict(case.bools), case.opaque)
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
                    if gk not in ("var", "eqref"):
                        case.opaque = True
            elif k in ("eq0", "le0", "lt0"):
                lit = _compiled(f.args[0])
                if lit.opaque:
                    case.opaque = True
                case.linear.append((k, lit))
            else:
                prev = case.bools.get(f)
                if prev is False:
                    contradictory = True
                    break
                case.bools[f] = True
                if k not in ("var", "eqref"):
                    case.opaque = True
        if case is None or contradictory:
            continue
        if todo is not None and not todo:
            yield case


class _CapExceeded(Exception):
    pass


def _sat_conjunction(facts: list[Term]):
    """(SAT/UNSAT/UNKNOWN, model, reason): the reason is why the answer is
    not decided, for UNKNOWN and for a SAT model that uses an opaque literal,
    else None."""
    any_unknown = False
    try:
        for case in _split(facts):
            res, model = _check_linear(case.linear)
            if res == SAT:
                return SAT, model, OPAQUE_ATOM if case.opaque else None
            if res == UNKNOWN:
                any_unknown = True
    except _CapExceeded:
        return UNKNOWN, None, CASE_CAP_HIT
    if any_unknown:
        return UNKNOWN, None, DEPTH_CAP_HIT
    return UNSAT, None, None


def _format_model(model: Optional[dict[Term, int | Fraction]]) -> Optional[str]:
    if not model:
        return None
    bits = [f"{terms.pretty(a)} = {v}" for a, v in sorted(model.items(), key=lambda kv: kv[0].tid)]
    return ", ".join(bits[:8])


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------

class Solver:
    """Entailment and feasibility queries over a set of facts.

    The verifier's queries arrive already sliced: ``symstate`` splits each
    path condition into independence groups and asks about one group, or
    about the groups a goal reaches, at a time, so its caches of verdicts
    and of model values are keyed by those facts; it is safe to share across
    obligations.  The linear forms compiled for the simplex and the rewritten
    negations are not per Solver: the module keeps each once per process,
    beside the term pool, so a fact is prepared once however many queries
    and Solvers mention it.  With ``solver_cmd`` set, queries the built-in
    procedure leaves unknown go to that external solver.
    """

    def __init__(self, solver_cmd: Optional[str] = None, timeout_ms: int = 10000):
        self.solver_cmd = solver_cmd
        self.timeout_ms = timeout_ms
        self._feas_cache: dict[frozenset[int], str] = {}
        self._ent_cache: dict[tuple[frozenset[int], int], Result] = {}
        self._value_cache: dict[tuple[frozenset[int], int], object] = {}
        self.queries = 0

    # -- feasibility -------------------------------------------------------

    def is_feasible(self, path: Iterable[Term]) -> str:
        """Whether the facts have a model: ``yes`` even if it uses an opaque
        atom."""
        facts = [f for f in path if f is not terms.TRUE]
        key = frozenset(f.tid for f in facts)
        hit = self._feas_cache.get(key)
        if hit is not None:
            return hit
        if terms.FALSE.tid in key:
            return NO
        self.queries += 1
        res, _model, _ = _sat_conjunction(facts)
        out = YES if res == SAT else NO if res == UNSAT else UNKNOWN
        if out == UNKNOWN and self.solver_cmd:
            try:
                out = self._external_sat(facts) or out
            except ExternalSolverError:
                pass  # stays unknown: a feasibility verdict carries no reason
        self._feas_cache[key] = out
        return out

    # -- entailment --------------------------------------------------------

    def assert_entailed(self, path: Iterable[Term], goal: Term) -> Result:
        """Whether the facts entail ``goal``.

        ``no`` comes only with a model that uses no opaque literal, so
        ``assert_entailed(facts, FALSE)`` is the decided satisfiability
        check: ``yes`` if the facts are unsatisfiable, ``no`` if they have
        such a model, else ``unknown``.
        """
        if goal is terms.TRUE:
            return Result(YES)
        facts = [f for f in path if f is not terms.TRUE]
        key = frozenset(f.tid for f in facts)
        if terms.FALSE.tid in key:
            return Result(YES)  # anything follows from an infeasible path
        hit = self._ent_cache.get((key, goal.tid))
        if hit is not None:
            return hit
        self.queries += 1
        facts.append(terms.not_(goal))
        res, model, reason = _sat_conjunction(facts)
        if res == UNSAT:
            out = Result(YES)
        elif reason is None:
            out = Result(NO, _format_model(model))
        else:
            out = Result(UNKNOWN, reason=reason)
        # an external "sat" leaves it unknown: its model may rely on opaque atoms
        if out.verdict == UNKNOWN and self.solver_cmd:
            try:
                if self._external_sat(facts) == NO:
                    out = Result(YES)
            except ExternalSolverError as exc:
                out = Result(UNKNOWN, reason=f"{out.reason}; the external solver failed: {exc}")
        self._ent_cache[(key, goal.tid)] = out
        return out

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
        res, model, _ = _sat_conjunction(facts)
        if res != SAT:
            return None
        const, coeffs = terms.linear_parts(term)
        val = const
        for atom, c in coeffs.items():
            val += c * model.get(atom, 0)
        val = _q(val)
        if self.assert_entailed(facts, terms.eq(term, terms.mk_int(val))).verdict == YES:
            return val
        return None

    # -- external backend ----------------------------------------------------

    def _external_sat(self, facts: list[Term]) -> Optional[str]:
        """Run the external solver on sat(/\\ facts); returns yes/no/None,
        or raises ExternalSolverError."""
        verdict = run_external(emit_smtlib(facts, terms.FALSE, negate_goal=False),
                               self.solver_cmd, self.timeout_ms)
        if verdict == SAT:
            return YES
        if verdict == UNSAT:
            return NO
        return None


# ---------------------------------------------------------------------------
# SMT-LIB 2 emission
# ---------------------------------------------------------------------------

_SMT_OP = {"mod": "mod", "div": "div"}
_SMT_UF = {"bitand": "bvop.and", "bitor": "bvop.or", "bitxor": "bvop.xor",
           "shl": "bvop.shl", "shr": "bvop.shr", "mul": "nl.mul"}


def emit_smtlib(path: Iterable[Term], goal: Term, negate_goal: bool = True) -> str:
    """Emit a script whose unsat-ness witnesses ``path |= goal``.

    Integer terms map to Int, permission amounts to Real, refs to Int
    constants (pairwise distinct).  Bitwise
    operations are emitted as uninterpreted functions: the built-in solver
    treats them identically, so verdicts agree on the shared fragment.
    """
    decls: dict[str, str] = {}
    ref_lits: list[Term] = []
    lines: list[str] = ["(set-logic ALL)"]

    def smt_sort(sort: str) -> str:
        return {"int": "Int", "frac": "Real", "bool": "Bool",
                "ref": "Int"}[sort]

    def name_of(t: Term) -> str:
        if t.kind == "var":
            n = "v!" + "".join(ch if ch.isalnum() or ch in "_.!$" else "_" for ch in t.data)
        elif t.kind == "ref":
            n = f"ref!{t.data[0]}"
            if t not in ref_lits:
                ref_lits.append(t)
        else:
            n = f"op!{t.kind}!{t.tid}"
        if n not in decls:
            decls[n] = f"(declare-const {n} {smt_sort(t.sort)})"
        return n

    def emit(t: Term) -> str:
        k = t.kind
        if k == "num":
            v = t.data
            if t.sort == terms.INT:
                return str(v.numerator) if v >= 0 else f"(- {-v.numerator})"
            return f"(/ {v.numerator} {v.denominator})" if v >= 0 else \
                f"(- (/ {-v.numerator} {v.denominator}))"
        if k == "boollit":
            return "true" if t.data else "false"
        if k in ("var", "ref"):
            return name_of(t)
        if k == "lin":
            const, pairs = t.data
            frac = t.sort == terms.FRAC
            c = emit(terms.mk_frac(const) if frac else terms.mk_int(const))
            parts = [c] if const != 0 else []
            for a, co in pairs:
                ea = emit(a)
                if frac and a.sort == terms.INT:
                    ea = f"(to_real {ea})"
                co_t = terms.mk_frac(co) if frac else terms.mk_int(co)
                parts.append(ea if co == 1 else f"(* {emit(co_t)} {ea})")
            return parts[0] if len(parts) == 1 else f"(+ {' '.join(parts)})"
        if k in ("eq0", "le0", "lt0"):
            op = {"eq0": "=", "le0": "<=", "lt0": "<"}[k]
            zero = "0" if t.args[0].sort == terms.INT else "(/ 0 1)"
            return f"({op} {emit(t.args[0])} {zero})"
        if k == "and":
            return f"(and {' '.join(emit(a) for a in t.args)})"
        if k == "or":
            return f"(or {' '.join(emit(a) for a in t.args)})"
        if k == "not":
            return f"(not {emit(t.args[0])})"
        if k == "eqref":
            return f"(= {emit(t.args[0])} {emit(t.args[1])})"
        if k in _SMT_OP:
            return f"({_SMT_OP[k]} {emit(t.args[0])} {emit(t.args[1])})"
        if k in _SMT_UF:
            fn = _SMT_UF[k].replace(".", "_")
            if fn not in decls:
                decls[fn] = f"(declare-fun {fn} (Int Int) Int)"
            return f"({fn} {emit(t.args[0])} {emit(t.args[1])})"
        raise AssertionError(k)  # pragma: no cover

    asserts = [f"(assert {emit(f)})" for f in path]
    if negate_goal:
        asserts.append(f"(assert (not {emit(goal)}))")
    elif goal is not terms.FALSE:
        asserts.append(f"(assert {emit(goal)})")
    if len(ref_lits) > 1:
        asserts.append("(assert (distinct " + " ".join(name_of(r) for r in ref_lits) + "))")
    lines += sorted(decls.values())
    lines += asserts
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def run_external(script: str, cmd: str, timeout_ms: int) -> str:
    """Feed the script to the solver process on stdin; parse sat/unsat."""
    try:
        proc = subprocess.run(
            shlex.split(cmd),
            input=script.encode(),
            capture_output=True,
            timeout=timeout_ms / 1000.0,
        )
    except (subprocess.TimeoutExpired, OSError) as exc:
        raise ExternalSolverError(str(exc)) from exc
    if proc.returncode != 0:
        raise ExternalSolverError(
            f"exit code {proc.returncode}: {proc.stderr.decode()[:200].strip()}")
    for line in proc.stdout.decode().splitlines():
        word = line.strip()
        if word in (SAT, UNSAT):
            return word
        if word == "unknown":
            return "unknown"
    raise ExternalSolverError(f"no verdict in output: {proc.stdout.decode()[:200]}")
