"""Symbolic verification state and the semantics of every primitive.

A state holds field chunks and predicate chunks, both keyed by heap label
and location, a path condition, and an environment binding program variables
to terms.  Permission amounts are linear terms over wildcard tokens; an
exact amount outside a term, an atom's or a demand's, is a plain number as
in ``terms``: an int when integral, otherwise a Fraction.  Every token
carries a strict positivity fact, and tokens drawn by an exhale carry a
strict upper bound by the amount held at draw time.  So each chunk's
``pos`` flag records that its amount is positive on its path by construction.
An inhale into the chunk sets it, and so does a take with wildcards, whose
assumed bound makes the rest positive.  An exact-only take clears it unless
the rest is positive by token positivity alone.  A heap transfer that merges
two chunks ORs their flags.  Where it is set, the flag answers a positivity
check in place of the solver; it never decides which heap pays.

The path condition is kept as independence groups, as in KLEE's constraint
independence: facts that share an atom, directly or through other facts,
form one group, and facts of different groups share none.  So the path is
feasible iff every group is, and it entails a goal iff the groups the goal's
atoms reach entail it or some other group is infeasible.  Every solver query
is sliced this way, and a branch re-solves only the group its condition
lands in.

One walk, ``_cases``, splits an encoded assertion into cases, as produce
and consume share one brancher in Viper's symbolic executor, and hands each
atom a case reaches to a leaf.  The inhale leaf produces it at once, so a
pure fact is assumed before a later condition branches; the exhale leaf
records its check or demand on the case; the spin-leak leaf fails on the
first permission atom reached by a case in which the loop spins on.

One routine, ``exhale``, runs every ``Exhale`` over its cases: it sums the
permission demands per chunk and, fields sorted and then predicates sorted,
decides for each where it comes from, checks that heap holds it, and
deducts it.  Its ``take`` says which heap pays.  A plain exhale (``own``)
takes each demand from its atom's own heap, and a check-only assert
(``none``) checks the same and deducts nothing; either binds the logical
variables a call may unify, then runs its purity and value checks in
assertion order against the state at the start of the exhale, then its
values-read checks, and only then takes its demands.  The CAS release
(``tmp``) takes from the tmp heap first, so which heap a value is read from
is known only once its demand is split: it runs its purity checks, then
takes each demand and checks that atom's values against the portions
taken, and runs its values-read checks last.  Inhaling more than a full
field permission is not an error but an inconsistency: the capacity fact
is assumed, so such paths become infeasible and later obligations on them
hold vacuously.

Invariant bodies arrive lowered once, with their value parameter ``V`` in
place.  A primitive that runs one carries the expression ``V`` stands for;
the executor evaluates it to a term at the start of the primitive and binds
``V`` to that term under a name no program variable can take, only until the
primitive ends.  The term is the one the substituted expression would give,
and no fresh symbol is made, so the paths and queries are those of a body
instantiated at the site.  A primitive whose body does not mention ``V``
carries no value, and nothing is evaluated.

Branch exploration is depth-first with a configurable cap; a failed check
records a diagnostic and kills its path while sibling branches continue.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Optional

from . import encoder as E
from . import syntax as S
from . import terms as T
from .diagnostics import (
    BRANCH_CAP_EXCEEDED, Diagnostic, INCOMPLETE_SOLVER,
    INSUFFICIENT_PERMISSION, SPIN_PATTERN_RESOURCE_LEAK, UnsupportedFeature,
)
from .frontend import ACQ, ATOMIC, GHOST, NA, RMW
from .solver import NO, Result, Solver, UNKNOWN, YES
from .speclogic import (
    EAcc, ECond, EFieldEq, EImplies, EPredAcc, EPure, EStar, HeapLabel,
    WILDCARD,
)
from .syntax import Span

FIELD_SORT = {"val": T.INT, "init": T.BOOL, "rel": T.INT, "acq": T.BOOL}


# ---------------------------------------------------------------------------
# Permission amounts
# ---------------------------------------------------------------------------
#
# An amount is an interned linear term: a ``num`` for an exact amount, built
# with ``T.mk_int`` only so that equal amounts are one object and zero is
# ``T.ZERO``, and otherwise a linear form over wildcard tokens.

def definitely_positive(p: T.Term) -> bool:
    """True if positivity follows from token positivity alone."""
    const, coeffs = T.linear_parts(p)
    return p is not T.ZERO and const >= 0 and all(c > 0 for c in coeffs.values())


def perm_str(p: T.Term) -> str:
    """An amount as text: the constant, left out when zero beside tokens,
    then each token with its coefficient."""
    const, coeffs = T.linear_parts(p)
    bits = [T.num_str(const)] if const or not coeffs else []
    bits += [T.pretty(w) if c == 1 else f"{T.num_str(c)}*{T.pretty(w)}"
             for w, c in coeffs.items()]
    return " + ".join(bits)


# ---------------------------------------------------------------------------
# Chunks and states
# ---------------------------------------------------------------------------

class FieldChunk(S.Record):
    __slots__ = ("ref", "fld", "label", "perm", "value", "pos")

    def __init__(self, ref: T.Term, fld: str, label: HeapLabel, perm: T.Term,
                 value: T.Term, pos: bool = False):
        self.ref = ref
        self.fld = fld
        self.label = label
        self.perm = perm
        self.value = value
        self.pos = pos      # perm is positive on this path by construction


class PredChunk(S.Record):
    __slots__ = ("ref", "idx", "label", "perm", "vals", "pos")

    def __init__(self, ref: T.Term, idx: int, label: HeapLabel, perm: T.Term,
                 vals: tuple = (), pos: bool = False):
        self.ref = ref
        self.idx = idx
        self.label = label
        self.perm = perm
        self.vals = vals    # values-read snapshot: terms, insertion-ordered
        self.pos = pos      # as for FieldChunk


_GROUND = frozenset({-1})   # the atom set of an atomless fact, such as FALSE


class Group:
    """An independence group: path facts that share atoms, transitively.

    Immutable, so clones share it; ``assume`` replaces the groups it merges.
    Atomless facts form the ground group, whose atom set is ``_GROUND``.
    ``is_feasible`` asks the solver about the facts once and keeps the
    verdict, which depends on nothing else.
    """

    __slots__ = ("facts", "atoms", "feasible")

    def __init__(self, facts: tuple, atoms: frozenset[int]):
        self.facts = facts    # in the order they were assumed or merged
        self.atoms = atoms    # atom tids
        self.feasible: Optional[str] = None   # is_feasible's verdict, once asked

    def is_feasible(self, solver: Solver) -> str:
        if self.feasible is None:
            self.feasible = solver.is_feasible(self.facts)
        return self.feasible


class SymState:
    """One symbolic state; cheap to clone for branching.

    The path condition is kept only as its independence groups, ``groups``.
    """

    __slots__ = ("fields", "preds", "env", "groups")

    def __init__(self):
        self.fields: dict[tuple, FieldChunk] = {}
        self.preds: dict[tuple, PredChunk] = {}
        self.env: dict[str, T.Term] = {}
        self.groups: dict[int, Group] = {}    # atom tid -> its group

    def clone(self) -> "SymState":
        s = SymState()
        s.fields = {k: FieldChunk(c.ref, c.fld, c.label, c.perm, c.value, c.pos)
                    for k, c in self.fields.items()}
        s.preds = {k: PredChunk(c.ref, c.idx, c.label, c.perm, c.vals, c.pos)
                   for k, c in self.preds.items()}
        s.env = dict(self.env)
        s.groups = dict(self.groups)
        return s

    @property
    def path(self) -> list[T.Term]:
        """The path condition's facts, group by group."""
        return [f for g in self.all_groups() for f in g.facts]

    def assume(self, fact: T.Term) -> None:
        if fact is T.TRUE:
            return
        atoms = T.atom_ids(fact) or _GROUND
        touched = self.touched_groups(atoms)
        if len(touched) == 1 and any(f is fact for f in touched[0].facts):
            return
        g = Group(tuple(f for h in touched for f in h.facts) + (fact,),
                  atoms.union(*(h.atoms for h in touched)))
        self.groups.update(dict.fromkeys(g.atoms, g))

    def touched_groups(self, atoms) -> list[Group]:
        """The groups that hold any of the atoms."""
        out: list[Group] = []
        for a in atoms:
            g = self.groups.get(a)
            if g is not None and g not in out:
                out.append(g)
        return out

    def all_groups(self) -> list[Group]:
        return list({id(g): g for g in self.groups.values()}.values())

    # keys read the label's number straight from the member, not through
    # the Enum's ``value`` descriptor: a key is built for every atom
    def field_key(self, ref: T.Term, fld: str, label: HeapLabel) -> tuple:
        return (label._value_, ref.data[0], fld)

    def pred_key(self, ref: T.Term, idx: int, label: HeapLabel) -> tuple:
        return (label._value_, ref.data[0], idx)

    def field_perm(self, ref: T.Term, fld: str, label: HeapLabel) -> T.Term:
        c = self.fields.get(self.field_key(ref, fld, label))
        return c.perm if c is not None else T.ZERO

    def pred_perm(self, ref: T.Term, idx: int, label: HeapLabel) -> T.Term:
        c = self.preds.get(self.pred_key(ref, idx, label))
        return c.perm if c is not None else T.ZERO

    def digest(self) -> str:
        bits = []
        for k in sorted(self.fields):
            c = self.fields[k]
            bits.append(f"{c.label}:{T.ref_name(c.ref)}.{c.fld}="
                        f"{perm_str(c.perm)}:{T.pretty(c.value)}")
        for k in sorted(self.preds):
            c = self.preds[k]
            vals = "{" + ",".join(T.pretty(v) for v in c.vals) + "}"
            bits.append(f"{c.label}:AcqConjunct({T.ref_name(c.ref)},{c.idx})="
                        f"{perm_str(c.perm)}:{vals}")
        return "; ".join(bits)


# ---------------------------------------------------------------------------
# Sliced solver queries
# ---------------------------------------------------------------------------

def _slice(state: SymState, atoms: frozenset[int]) -> tuple[list[Group], list[T.Term]]:
    """The groups the atoms reach, with the ground group, and their facts."""
    mine = state.touched_groups(atoms | _GROUND)
    return mine, [f for g in mine for f in g.facts]


def entailed(solver: Solver, state: SymState, goal: T.Term) -> Result:
    """Whether the path entails ``goal``, asking about the goal's groups.

    The groups share no atom, so the path entails the goal iff the goal's
    groups do or another group is unsatisfiable.  A sliced ``yes`` is thus a
    proof.  A sliced ``no`` stands only if every other group has a model with
    no opaque literal, the standard a full-path ``no`` meets; it turns into
    ``yes`` if another group is unsatisfiable and ``unknown`` if one is
    undecided.  That check stays outside the entailment cache, which is keyed
    by the sliced facts: states with the same slice may differ elsewhere.
    """
    if goal is T.TRUE:
        return Result(YES)
    mine, facts = _slice(state, T.atom_ids(goal))
    res = solver.assert_entailed(facts, goal)
    if res.verdict != NO:
        return res
    for g in state.all_groups():
        if g not in mine:
            other = solver.assert_entailed(g.facts, T.FALSE)
            if other.verdict == YES:
                return other
            if other.verdict == UNKNOWN:
                res = other
    return res


def model_value(solver: Solver, state: SymState, term: T.Term):
    """``Solver.model_value`` of a term, asked about the term's groups; None,
    as on the full path, unless every other group is satisfiable."""
    mine, facts = _slice(state, T.atom_ids(term))
    if any(g.is_feasible(solver) != YES for g in state.all_groups() if g not in mine):
        return None
    return solver.model_value(facts, term)


# ---------------------------------------------------------------------------
# Execution context
# ---------------------------------------------------------------------------

class AbortObligation(Exception):
    pass


class _Fail(Exception):
    """Internal: a check failed on this path; diagnostic already recorded."""


class ExecContext:
    def __init__(self, solver: Solver, var_classes: dict[str, str],
                 branch_cap: int = 4096, trace: Optional[Callable] = None,
                 on_boundary: Optional[Callable] = None):
        self.solver = solver
        self.var_classes = var_classes
        self.branch_cap = branch_cap
        self.trace = trace                # (span, text, digest) -> None
        self.on_boundary = on_boundary    # (state, span, desc) -> None
        self.diagnostics: list[Diagnostic] = []
        self._count = itertools.count()
        self._ref_ids = itertools.count(1)
        self.branches = 0
        self.states_seen = 0

    # -- fresh symbols -------------------------------------------------------

    def fresh_int(self, hint: str) -> T.Term:
        return T.mk_var(f"{hint}!{next(self._count)}", T.INT)

    def fresh_token(self) -> T.Term:
        return T.mk_var(f"w!{next(self._count)}", T.FRAC)

    def fresh_ref(self, name: str, ghost: bool) -> T.Term:
        return T.mk_ref(next(self._ref_ids), name, ghost)

    def fresh_for_class(self, name: str) -> T.Term:
        cls = self.var_classes.get(name)
        if cls in (NA, ACQ, RMW, ATOMIC):
            return self.fresh_ref(name, False)
        if cls == GHOST:
            return self.fresh_ref(name, True)
        return self.fresh_int(name)

    def fresh_field_value(self, fld: str) -> T.Term:
        sort = FIELD_SORT.get(fld, T.INT)
        n = next(self._count)
        return T.mk_var(f"{fld}!{n}", sort)

    # -- solver shorthands ------------------------------------------------------

    def feasible(self, state: SymState) -> bool:
        """The path is feasible iff every group is; each group keeps its
        verdict, so a branch asks only about the group it touched."""
        return all(g.is_feasible(self.solver) != NO for g in state.all_groups())

    def entailed(self, state: SymState, goal: T.Term) -> Result:
        return entailed(self.solver, state, goal)

    def count_branch(self, span: Span) -> None:
        """Count one branch; past the cap, report it at span and abort."""
        self.branches += 1
        if self.branches > self.branch_cap:
            self.diagnostics.append(Diagnostic(
                BRANCH_CAP_EXCEEDED, span, rule="exploration",
                message=f"more than {self.branch_cap} branches explored"))
            raise AbortObligation()

    # -- diagnostics ---------------------------------------------------------------

    def fail(self, state: SymState, kind: str, span: Span, rule: str,
             message: str) -> None:
        """Record a failure unless the path is infeasible, then kill the path."""
        if self.feasible(state):
            self.diagnostics.append(Diagnostic(kind, span, rule=rule, message=message))
        raise _Fail()

    def fail_query(self, state: SymState, res: Result, kind: str, span: Span,
                   rule: str, message: str) -> None:
        """Record the failure of a check that ``entailed`` did not answer
        ``yes``, then kill the path.  A ``no`` stands only once every group
        has a model, so the path is feasible and is not checked again; an
        ``unknown`` is recorded as ``IncompleteSolver`` unless the path is
        infeasible."""
        if res.verdict == NO:
            self.diagnostics.append(Diagnostic(kind, span, rule=rule, message=message,
                                               counter_facts=res.hint))
            raise _Fail()
        self.fail(state, INCOMPLETE_SOLVER, span, rule,
                  f"{message} (solver returned unknown: {res.reason})")


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

class EvalError(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


# The environment entry an invariant body's ``V`` is bound to while its
# primitive runs; no program variable or encoder temporary can be named so.
VALUE = "<V>"


_BIN_OPS = {
    "+": T.add, "-": T.sub, "*": T.mul, "/": T.div_, "%": T.mod_,
    "&": T.bitand, "|": T.bitor, "^": T.bitxor, "<<": T.shl, ">>": T.shr,
    "==": T.eq, "!=": T.ne, "<": T.lt, "<=": T.le, ">": T.gt, ">=": T.ge,
    "&&": lambda a, b: T.and_(a, b), "||": lambda a, b: T.or_(a, b),
}


def eval_expr(state: SymState, e: S.Expr) -> T.Term:
    if isinstance(e, S.EInt):
        return T.mk_int(e.value)
    if isinstance(e, S.EBool):
        return T.mk_bool(e.value)
    if isinstance(e, S.EVar):
        t = state.env.get(e.name)
        if t is None:
            raise EvalError(f"variable {e.name!r} has no value here")
        return t
    if isinstance(e, S.EInvVal):
        return state.env[VALUE]
    if isinstance(e, S.EBin):
        t = _BIN_OPS[e.op](eval_expr(state, e.left), eval_expr(state, e.right))
    elif isinstance(e, S.EUn):
        v = eval_expr(state, e.operand)
        t = T.not_(v) if e.op == "!" else T.neg(v)
    else:
        raise AssertionError(e)
    if t.height > T.MAX_HEIGHT:
        raise UnsupportedFeature(f"a value nested more than {T.MAX_HEIGHT} terms deep")
    return t


def resolve_loc(state: SymState, loc: str) -> T.Term:
    # the mode check gives a name in a location position a location class,
    # and a name of that class is only ever bound to a location
    t = state.env.get(loc)
    if t is None:
        raise EvalError(f"location {loc!r} is not bound")
    return t


# ---------------------------------------------------------------------------
# The case walk
# ---------------------------------------------------------------------------

def _branch_states(ctx: ExecContext, state: SymState, cond: T.Term, span: Span):
    """Split on a condition; returns (then-states, else-states), pruned.
    A split past the branch cap is reported at ``span``."""
    if cond is T.TRUE:
        return [state], []
    if cond is T.FALSE:
        return [], [state]
    ctx.count_branch(span)
    s_then = state.clone()
    s_then.assume(cond)
    s_else = state
    s_else.assume(T.not_(cond))
    thens = [s_then] if ctx.feasible(s_then) else []
    elses = [s_else] if ctx.feasible(s_else) else []
    return thens, elses


class _Demand(S.Record):
    __slots__ = ("exact", "wildcards", "name")

    def __init__(self, exact: int | Fraction = 0, wildcards: int = 0, name: str = ""):
        self.exact = exact
        self.wildcards = wildcards
        self.name = name


class _Case(S.Record):
    """One case of an encoded assertion: its state and, for an exhale, what
    its atoms demand of that state."""
    __slots__ = ("state", "checks", "field_demands", "pred_demands", "vals_checks")

    def __init__(self, state: SymState, checks: list = None, field_demands: dict = None,
                 pred_demands: dict = None, vals_checks: list = None):
        self.state = state
        # ("pure", expr) | ("value", key, name, expr)
        self.checks = [] if checks is None else checks
        self.field_demands = {} if field_demands is None else field_demands
        self.pred_demands = {} if pred_demands is None else pred_demands
        self.vals_checks = [] if vals_checks is None else vals_checks    # (predkey, name)

    def split(self, state: SymState) -> "_Case":
        return _Case(state, list(self.checks),
                     {k: _Demand(d.exact, d.wildcards, d.name)
                      for k, d in self.field_demands.items()},
                     {k: _Demand(d.exact, d.wildcards, d.name)
                      for k, d in self.pred_demands.items()},
                     list(self.vals_checks))


def _cases(ctx: ExecContext, case: _Case, enc, leaf: Callable) -> list[_Case]:
    """The cases ``enc`` splits ``case`` into.  A star folds its parts left
    to right over every case so far; an implication or a conditional splits
    each case on its condition, then-cases before else-cases.  Every atom a
    case reaches is passed to ``leaf(ctx, case, atom)``, in assertion order."""
    if isinstance(enc, EStar):
        cases = [case]
        for part in enc.parts:
            if isinstance(part, (EImplies, ECond)):
                cases = [c2 for c in cases for c2 in _cases(ctx, c, part, leaf)]
            else:
                # an atom (stars are flat) splits no case
                for c in cases:
                    leaf(ctx, c, part)
        return cases
    if isinstance(enc, (EImplies, ECond)):
        then, els = (enc.body, None) if isinstance(enc, EImplies) else (enc.then, enc.els)
        cond = eval_expr(case.state, enc.cond)
        thens, elses = _branch_states(ctx, case.state, cond, enc.span)
        out = [c for s in thens for c in _cases(ctx, case.split(s), then, leaf)]
        for s in elses:
            out += [case.split(s)] if els is None else _cases(ctx, case.split(s), els, leaf)
        return out
    leaf(ctx, case, enc)
    return [case]


# ---------------------------------------------------------------------------
# Inhale
# ---------------------------------------------------------------------------

def inhale(ctx: ExecContext, state: SymState, enc) -> list[SymState]:
    return [c.state for c in _cases(ctx, _Case(state), enc, _produce)]


def _produce(ctx: ExecContext, case: _Case, enc) -> None:
    """Inhale one atom into the case's state."""
    state = case.state
    if isinstance(enc, EPure):
        state.assume(eval_expr(state, enc.expr))
    elif isinstance(enc, EAcc):
        ref = resolve_loc(state, enc.loc)
        amount = _inhale_amount(ctx, state, enc.perm)
        key = state.field_key(ref, enc.fld, enc.label)
        chunk = state.fields.get(key)
        if chunk is None:
            chunk = FieldChunk(ref, enc.fld, enc.label, amount,
                               ctx.fresh_field_value(enc.fld), pos=True)
            state.fields[key] = chunk
        else:
            chunk.perm = T.add(chunk.perm, amount)
            chunk.pos = True
        # field permissions cannot exceed 1: assumed, so overfull paths die
        state.assume(T.le(chunk.perm, T.ONE))
    elif isinstance(enc, EFieldEq):
        # every value atom follows its permission atom in the same star
        ref = resolve_loc(state, enc.loc)
        chunk = state.fields[state.field_key(ref, enc.fld, enc.label)]
        state.assume(T.eq(chunk.value, eval_expr(state, enc.value)))
    elif isinstance(enc, EPredAcc):
        ref = resolve_loc(state, enc.loc)
        amount = _inhale_amount(ctx, state, enc.perm)
        key = state.pred_key(ref, enc.idx, enc.label)
        chunk = state.preds.get(key)
        if chunk is None:
            # a fresh conjunct instance starts with an empty snapshot
            state.preds[key] = PredChunk(ref, enc.idx, enc.label, amount, pos=True)
        else:
            # re-inhaling a held conjunct must not reset the values read
            chunk.perm = T.add(chunk.perm, amount)
            chunk.pos = True
    else:
        raise AssertionError(enc)


def _inhale_amount(ctx: ExecContext, state: SymState, perm) -> T.Term:
    if perm == WILDCARD:
        w = ctx.fresh_token()
        state.assume(T.lt(T.ZERO, w))
        return w
    return T.mk_int(perm)


# ---------------------------------------------------------------------------
# Exhale
# ---------------------------------------------------------------------------

def _demand(ctx: ExecContext, case: _Case, enc) -> None:
    """Record one atom's check or permission demand on the case."""
    if isinstance(enc, EPure):
        case.checks.append(("pure", enc.expr))
        return
    ref = resolve_loc(case.state, enc.loc)
    if isinstance(enc, EPredAcc):
        key = case.state.pred_key(ref, enc.idx, enc.label)
        d = case.pred_demands.get(key)
        if d is None:
            d = case.pred_demands[key] = _Demand(name=_pred_name(ref, enc.idx, enc.label))
        if enc.vals_empty:
            case.vals_checks.append((key, d.name))
    else:
        key = case.state.field_key(ref, enc.fld, enc.label)
        d = case.field_demands.get(key)
        if isinstance(enc, EFieldEq):
            # a permission atom before it in the star has mostly named it
            name = d.name if d is not None else _atom_name(ref, enc.fld, enc.label)
            case.checks.append(("value", key, name, enc.value))
            return
        if d is None:
            d = case.field_demands[key] = _Demand(name=_atom_name(ref, enc.fld, enc.label))
    if enc.perm == WILDCARD:
        d.wildcards += 1
    else:
        d.exact += enc.perm


def _atom_name(ref: T.Term, fld: str, label: HeapLabel) -> str:
    tag = "" if label is HeapLabel.REAL else f"@{label}"
    return f"{ref.data[1]}.{fld}{tag}"


def _pred_name(ref: T.Term, idx: int, label: HeapLabel) -> str:
    tag = "" if label is HeapLabel.REAL else f"@{label}"
    return f"AcqConjunct({ref.data[1]}, {idx}){tag}"


def _run_checks(ctx: ExecContext, state: SymState, checks: list, prim) -> None:
    """Pure and value checks, in assertion order.  Each logical variable open
    for unification is first bound to the value of the first held chunk that
    a value check names it for, so a pure check may name it earlier."""
    bindable = prim.bindable
    for check in checks:
        if (check[0] == "value" and isinstance(check[3], S.EVar)
                and check[3].name in bindable and check[3].name not in state.env):
            chunk = state.fields.get(check[1])
            if chunk is not None:
                state.env[check[3].name] = chunk.value
    for check in checks:
        if check[0] == "pure":
            _, expr = check
            res = ctx.entailed(state, eval_expr(state, expr))
            if res.verdict != YES:
                ctx.fail_query(state, res, prim.kind, prim.span, prim.rule,
                               f"cannot establish {S.pp_expr(expr)}")
        else:
            _, key, name, expr = check
            chunk = state.fields.get(key)
            if chunk is None:
                ctx.fail(state, prim.kind, prim.span, prim.rule,
                         f"no permission to {name}")
            _check_value(ctx, state, chunk, name, expr, prim)


def _check_value(ctx: ExecContext, state: SymState, chunk: FieldChunk, name: str,
                 expr: S.Expr, prim) -> None:
    res = ctx.entailed(state, T.eq(chunk.value, eval_expr(state, expr)))
    if res.verdict != YES:
        ctx.fail_query(state, res, prim.kind, prim.span, prim.rule,
                       f"value of {name} is not known to be {S.pp_expr(expr)}")


def _check_values_read(ctx: ExecContext, state: SymState, vals_checks: list,
                       prim) -> None:
    for key, name in vals_checks:
        chunk = state.preds.get(key)
        if chunk is not None and chunk.vals:
            vals = ", ".join(T.pretty(v) for v in chunk.vals)
            ctx.fail(state, prim.vals_kind, prim.span,
                     prim.rule, f"values {{{vals}}} were already read through {name}")


def _positive(ctx: ExecContext, state: SymState, chunk) -> Result:
    """Whether the chunk's amount is positive: ``yes`` by its ``pos`` flag,
    otherwise as the solver answers."""
    if chunk.pos:
        return Result(YES)
    return ctx.entailed(state, T.lt(T.ZERO, chunk.perm))


def _check_demand(ctx: ExecContext, state: SymState, chunk, exact: int | Fraction,
                  wildcards: int, name: str, prim) -> None:
    held = chunk.perm
    if exact:
        if held.kind == "num":
            if held.data < exact:
                ctx.fail(state, prim.kind, prim.span, prim.rule,
                         f"insufficient permission to {name}: need {exact}, "
                         f"hold {held.data}")
        else:
            res = ctx.entailed(state, T.ge(held, T.mk_int(exact)))
            if res.verdict != YES:
                ctx.fail_query(state, res, prim.kind, prim.span, prim.rule,
                               f"insufficient permission to {name}: need {exact}")
    if wildcards:
        if held.kind == "num" and held.data > exact:
            return
        res = (ctx.entailed(state, T.lt(T.mk_int(exact), held)) if exact
               else _positive(ctx, state, chunk))
        if res.verdict != YES:
            ctx.fail_query(state, res, prim.kind, prim.span, prim.rule,
                           f"no spare permission to {name} for a wildcard")


def _take(ctx: ExecContext, state: SymState, store: dict, key: tuple, chunk,
          exact: int | Fraction, wildcards: int) -> None:
    """Deduct the amount from the chunk, which goes (and with it a field's
    value) when nothing is left."""
    taken = T.mk_int(exact)
    if wildcards:
        for _ in range(wildcards):
            w = ctx.fresh_token()
            state.assume(T.lt(T.ZERO, w))
            taken = T.add(taken, w)
        # all wildcards together stay strictly below the amount held
        state.assume(T.lt(taken, chunk.perm))
    rest = T.sub(chunk.perm, taken)
    if rest is T.ZERO:
        del store[key]
    else:
        chunk.perm = rest
        chunk.pos = bool(wildcards) or definitely_positive(rest)


def _split_amounts(ctx: ExecContext, state: SymState, tmp_held: T.Term,
                   need: int | Fraction, name: str, prim) -> tuple:
    """How much of an exact demand comes from tmp vs. the fallback heap."""
    if tmp_held.kind == "num":
        take = min(tmp_held.data, need)
        return take, need - take
    # symbolic tmp holdings (wildcard RMW conjunct bodies): ask the solver
    res = ctx.entailed(state, T.ge(tmp_held, T.mk_int(need)))
    if res.verdict == YES:
        return need, 0
    if res.verdict == UNKNOWN:
        ctx.fail(state, INCOMPLETE_SOLVER, prim.span, prim.rule,
                 f"cannot split the demand on {name} between the tmp heap and its "
                 f"fallback (solver returned unknown: {res.reason})")
    return 0, need


def exhale(ctx: ExecContext, state: SymState, prim: E.Exhale) -> list[SymState]:
    """Execute an ``Exhale``; its ``take`` says which heap pays.

    For each demand, fields sorted and then predicates sorted, the exhale
    decides where the permission comes from, checks that heap holds it, and
    deducts it.  ``own`` takes the whole demand from its atom's heap, and
    ``none`` (an assert) checks as ``own`` does but deducts nothing.
    ``tmp`` (the CAS release) takes from the tmp twin first: an exact part
    only as far as tmp provably covers it (``_split_amounts``; if the solver
    decides a wildcard amount does not cover it, all of it comes from the
    fallback), a wildcard only if tmp's amount is positive by token
    positivity alone, and the rest from the atom's heap, its fallback.
    """
    deduct = prim.take != "none"
    tmp_first = prim.take == "tmp"
    out: list[SymState] = []
    for case in _cases(ctx, _Case(state), prim.enc, _demand):
        state = case.state
        try:
            if tmp_first:
                # value checks wait for the portions each demand takes
                later: dict = {}
                for check in case.checks:
                    if check[0] == "value":
                        later.setdefault(check[1], []).append(check)
                _run_checks(ctx, state, [c for c in case.checks if c[0] == "pure"], prim)
            else:
                _run_checks(ctx, state, case.checks, prim)
                _check_values_read(ctx, state, case.vals_checks, prim)
            for store, demands in ((state.fields, case.field_demands),
                                   (state.preds, case.pred_demands)):
                for key in sorted(demands):
                    d = demands[key]
                    exact, wildcards = d.exact, d.wildcards
                    chunk = store.get(key)
                    if tmp_first:
                        tmp_key = (HeapLabel.TMP._value_, key[1], key[2])
                        tmp = store.get(tmp_key)
                        tmp_held = tmp.perm if tmp is not None else T.ZERO
                        tmp_exact, exact = _split_amounts(ctx, state, tmp_held, exact,
                                                          d.name, prim)
                        tmp_wildcards = wildcards if definitely_positive(tmp_held) else 0
                        wildcards -= tmp_wildcards
                    if chunk is not None:
                        _check_demand(ctx, state, chunk, exact, wildcards, d.name, prim)
                    elif exact or wildcards:
                        if tmp_first:
                            msg = (f"insufficient permission to {d.name}: tmp heap holds "
                                   f"{perm_str(tmp_held)} and the fallback heap holds nothing")
                        elif store is state.fields:
                            msg = f"no permission to {d.name}"
                        else:
                            msg = f"no {d.name} instance held"
                        ctx.fail(state, prim.kind, prim.span, prim.rule, msg)
                    if not deduct:
                        continue
                    if tmp_first:
                        from_tmp = tmp is not None and (tmp_exact or tmp_wildcards)
                        if from_tmp:
                            _take(ctx, state, store, tmp_key, tmp, tmp_exact, tmp_wildcards)
                    from_fb = chunk is not None and (exact or wildcards)
                    if from_fb:
                        _take(ctx, state, store, key, chunk, exact, wildcards)
                    if tmp_first and store is state.fields:
                        # each value is read from the portions taken
                        for _, _, name, expr in later.get(key, ()):
                            for c, used in ((tmp, from_tmp), (chunk, from_fb)):
                                if used:
                                    _check_value(ctx, state, c, name, expr, prim)
                        if from_tmp and from_fb:
                            state.assume(T.eq(tmp.value, chunk.value))
            if tmp_first:
                _check_values_read(ctx, state, case.vals_checks, prim)
        except _Fail:
            continue
        out.append(state)
    return out


# ---------------------------------------------------------------------------
# Heap transfer
# ---------------------------------------------------------------------------

def transfer_heap(state: SymState, src: HeapLabel, dst: HeapLabel) -> SymState:
    """Move every chunk labeled src to dst, merging amounts and values."""
    for key in sorted(k for k in state.fields if k[0] == src._value_):
        chunk = state.fields.pop(key)
        dkey = state.field_key(chunk.ref, chunk.fld, dst)
        dst_chunk = state.fields.get(dkey)
        if dst_chunk is None:
            chunk.label = dst
            state.fields[dkey] = chunk
        else:
            state.assume(T.eq(dst_chunk.value, chunk.value))
            dst_chunk.perm = T.add(dst_chunk.perm, chunk.perm)
            dst_chunk.pos = dst_chunk.pos or chunk.pos
            state.assume(T.le(dst_chunk.perm, T.ONE))
    for key in sorted(k for k in state.preds if k[0] == src._value_):
        chunk = state.preds.pop(key)
        dkey = state.pred_key(chunk.ref, chunk.idx, dst)
        dst_chunk = state.preds.get(dkey)
        if dst_chunk is None:
            chunk.label = dst
            state.preds[dkey] = chunk
        else:
            dst_chunk.perm = T.add(dst_chunk.perm, chunk.perm)
            dst_chunk.pos = dst_chunk.pos or chunk.pos
            merged = list(dst_chunk.vals)
            merged += [v for v in chunk.vals if v not in dst_chunk.vals]
            dst_chunk.vals = tuple(merged)
    return state


# ---------------------------------------------------------------------------
# Primitive dispatch
# ---------------------------------------------------------------------------

def _held_conjuncts(ctx: ExecContext, state: SymState, ref: T.Term,
                    need_full: bool) -> list[int]:
    held = []
    for key in sorted(k for k in state.preds if k[0] == HeapLabel.REAL._value_
                      and k[1] == ref.data[0]):
        chunk = state.preds[key]
        if need_full:
            if chunk.perm.kind == "num":
                if chunk.perm.data >= 1:
                    held.append(chunk.idx)
            elif ctx.entailed(state, T.ge(chunk.perm, T.ONE)).verdict == YES:
                held.append(chunk.idx)
        elif _positive(ctx, state, chunk).verdict == YES:
            held.append(chunk.idx)
    return held


def _branch_cond_term(ctx: ExecContext, state: SymState, cond: E.BranchCond):
    if cond.kind == "expr":
        return eval_expr(state, cond.expr)
    if cond.kind == "nondet":
        return None
    if cond.kind == "notread":
        ref = resolve_loc(state, cond.loc)
        chunk = state.preds.get(state.pred_key(ref, cond.idx, HeapLabel.REAL))
        vals = chunk.vals if chunk is not None else ()
        x = eval_expr(state, cond.value)
        return T.not_(T.or_(*[T.eq(x, v) for v in sorted(vals, key=lambda v: v.tid)]))
    if cond.kind == "releq":
        # the encoder asserts acc(rel, wildcard) first
        ref = resolve_loc(state, cond.loc)
        chunk = state.fields[state.field_key(ref, "rel", HeapLabel.REAL)]
        return T.eq(chunk.value, T.mk_int(cond.idx))
    raise AssertionError(cond)


def run_prim(ctx: ExecContext, state: SymState, prim) -> list[SymState]:
    ctx.states_seen += 1
    if ctx.trace is not None:
        ctx.trace(prim.span,
                  E.pp_primitive(prim)[0].strip(), state.digest())
    try:
        if isinstance(prim, (E.Inhale, E.Exhale)):
            # an invariant body's V is bound for this primitive only
            value = prim.value
            if value is not None:
                state.env[VALUE] = eval_expr(state, value)
            out = (inhale(ctx, state, prim.enc) if isinstance(prim, E.Inhale)
                   else exhale(ctx, state, prim))
            if value is not None:
                for s in out:
                    del s.env[VALUE]
            return out
        if isinstance(prim, E.HavocVar):
            state.env[prim.name] = ctx.fresh_for_class(prim.name)
            return [state]
        if isinstance(prim, E.AssignVar):
            if prim.rhs[0] == "expr":
                state.env[prim.name] = eval_expr(state, prim.rhs[1])
            else:
                # the encoder asserts acc(val, wildcard) first
                _, loc, fld = prim.rhs
                ref = resolve_loc(state, loc)
                chunk = state.fields[state.field_key(ref, fld, HeapLabel.REAL)]
                state.env[prim.name] = chunk.value
            return [state]
        if isinstance(prim, E.Branch):
            cond = _branch_cond_term(ctx, state, prim.cond)
            if cond is None:
                ctx.count_branch(prim.span)
                thens, elses = [state.clone()], [state]
            else:
                thens, elses = _branch_states(ctx, state, cond, prim.span)
            out = []
            for s in thens:
                out.extend(run_seq(ctx, s, prim.then))
            for s in elses:
                out.extend(run_seq(ctx, s, prim.els))
            return out
        if isinstance(prim, E.ForEachHeldConjunct):
            ref = resolve_loc(state, prim.loc)
            states = [state]
            for idx in _held_conjuncts(ctx, state, ref, prim.need_full):
                body = prim.bodies[idx]
                states = [s2 for s in states for s2 in run_seq(ctx, s, body)]
            return states
        if isinstance(prim, E.TransferHeap):
            return [transfer_heap(state, prim.src, prim.dst)]
        if isinstance(prim, E.KillBranch):
            return []
        if isinstance(prim, E.DropAllPerms):
            state.fields = {}
            state.preds = {}
            return [state]
        if isinstance(prim, E.NewLoc):
            state.env[prim.var] = ctx.fresh_ref(prim.var, prim.ghost)
            return [state]
        if isinstance(prim, E.RecordReadValue):
            ref = resolve_loc(state, prim.loc)
            chunk = state.preds.get(state.pred_key(ref, prim.idx, HeapLabel.REAL))
            if chunk is not None:
                v = eval_expr(state, prim.value)
                if v not in chunk.vals:
                    chunk.vals = chunk.vals + (v,)
            return [state]
        if isinstance(prim, E.SpinLeakCheck):
            _spin_leak_check(ctx, state, prim)
            return [state]
    except _Fail:
        return []
    except EvalError as exc:
        try:
            ctx.fail(state, INSUFFICIENT_PERMISSION, prim.span,
                     "well-definedness", exc.message)
        except _Fail:
            return []
    raise AssertionError(prim)


def _spin_leak_check(ctx: ExecContext, state: SymState, prim) -> None:
    ref = resolve_loc(state, prim.loc)
    held = _held_conjuncts(ctx, state, ref, True)
    if not held:
        return
    probe = state.clone()
    # V stands for the probe in every body, whether it mentions V or not
    probe.env[prim.probe] = probe.env[VALUE] = ctx.fresh_int(prim.probe)
    probe.assume(eval_expr(probe, prim.cont))
    if not ctx.feasible(probe):
        return

    def leak(ctx: ExecContext, case: _Case, enc) -> None:
        # a ghost-free resource would be gained and then discarded
        if isinstance(enc, (EAcc, EPredAcc)):
            ctx.fail(state, SPIN_PATTERN_RESOURCE_LEAK, prim.span, "spin loop",
                     "a value the spin loop discards would carry resources; "
                     "annotate the loop with an invariant instead")

    for idx in held:
        _cases(ctx, _Case(probe.clone()), prim.lowered[idx], leak)


def run_seq(ctx: ExecContext, state: SymState, prims: list) -> list[SymState]:
    states = [state]
    for prim in prims:
        if len(states) == 1:
            # the straight-line path: one live state, no list to rebuild
            states = run_prim(ctx, states[0], prim)
        else:
            states = [s2 for s in states for s2 in run_prim(ctx, s, prim)]
        if not states:
            break
    return states


# ---------------------------------------------------------------------------
# Obligation execution
# ---------------------------------------------------------------------------

class ObligationResult(S.Record):
    __slots__ = ("name", "kind", "diagnostics", "final_states", "states_seen")

    def __init__(self, name: str, kind: str, diagnostics: list, final_states: list,
                 states_seen: int = 0):
        self.name = name
        self.kind = kind
        self.diagnostics = diagnostics
        self.final_states = final_states
        self.states_seen = states_seen

    @property
    def verified(self) -> bool:
        return not self.diagnostics


def run_obligation(ob: E.Obligation, solver: Solver, branch_cap: int = 4096,
                   trace: Optional[Callable] = None,
                   on_boundary: Optional[Callable] = None) -> ObligationResult:
    ctx = ExecContext(solver, ob.var_classes, branch_cap, trace, on_boundary)
    states = [SymState()]
    try:
        for blk in ob.blocks:
            if ctx.on_boundary is not None:
                for s in states:
                    ctx.on_boundary(s, blk.span, blk.desc)
            next_states: list[SymState] = []
            for s in states:
                next_states.extend(run_seq(ctx, s, blk.prims))
            states = next_states
            if not states:
                break
        if ctx.on_boundary is not None:
            for s in states:
                ctx.on_boundary(s, ob.span, "final")
    except AbortObligation:
        states = []
    return ObligationResult(ob.name, ob.kind, ctx.diagnostics, states,
                            ctx.states_seen)
