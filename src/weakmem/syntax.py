"""Surface AST for the annotated input language.

Statements cover non-atomic and atomic accesses, fences, compare-and-swap,
fetch-and-add, ghost allocation, invariant rewriting, loops, conditionals,
structured parallel composition and procedure calls.  Assertions cover the
separation-logic fragment used by specifications: points-to with fractional
permissions, implication and conditional assertions, the atomic-location
resources (Uninit / Init / Acq / Rel / RMWAcq) and the up/down modalities.

Nodes are `Record`s, which declare their fields and their `_defaults` and
get an `__init__` built from them, and whose equality ignores source spans,
so a program printed back and parsed again gives an equal tree.  The
parser builds one expression node per distinct expression of a file, which
is safe because no pass mutates an expression node.  Node kinds of the
same shape share one class and carry their keyword as a `kind`:
`AResource`, `AModal` and `SAlloc`.  This module prints expressions and
assertions, which diagnostics need; the statement printer is kept with the
tests, its only users.

The generic assertion walkers at the end (`sub_assertions`, `walk_assertion`
and `map_assertion`) serve both this tree and the encoded one in `speclogic`,
which joins its own atoms with this tree's `APure`, `AStar`, `AImplies` and
`ACond`; the atoms use the same field names (`loc`, and the expression
slots `expr`, `cond`, `value`, `frac`).  `instantiate`,
the one substitution of arguments for parameters, walks this tree only, by
exact class: it expands a define at its use and a callee's spec at its
call.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    """A source range.  A named tuple: the parser makes one per statement,
    and a tuple is cheap to build and compares and hashes by value."""
    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span()


class Record:
    """Base of the package's record classes.

    A subclass names its fields in `__slots__` and the defaults of its own
    fields in `_defaults`; a field that no class of its MRO gives a default
    is required, and may not follow a defaulted one.  A class that writes
    no `__init__` of its own gets one built from these, as `dataclasses`
    builds one: a parameter per field, those of its bases first, each
    assigned in turn.  An empty list, dict or set default stands for a
    fresh one per record, so its parameter defaults to None; any other
    default is the parameter's own.  Records are equal when they are of the
    same class and their fields are equal; fields named in `_hidden` are
    left out of equality and repr.  Records do not hash.
    """

    __slots__ = ()
    _hidden: tuple = ()
    _defaults: dict = {}
    _fields: tuple = ()    # every field, in `__init__` order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for k in reversed(cls.__mro__)
                            for f in k.__dict__.get("__slots__", ()))
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        cls._key = attrgetter(*cls._shown) if cls._shown else _no_fields
        if cls._fields and "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed."""
        for f in self._fields:
            if f not in changes:
                changes[f] = getattr(self, f)
        return type(self)(**changes)


# the key of a class with no shown fields; a plain function would bind to
# the instance, as `attrgetter` does not
_no_fields = staticmethod(lambda r: ())


# how the generated `__init__` builds a fresh container, by its type
_FRESH = {list: "[]", dict: "{}", set: "set()"}


def _make_init(cls) -> Callable:
    """The `__init__` of a record class, compiled from its fields and the
    `_defaults` of its MRO, so it runs as one written out by hand."""
    defaults: dict = {}
    for k in reversed(cls.__mro__):
        defaults.update(k.__dict__.get("_defaults", {}))
    params, lines, ns = [], [], {"__name__": cls.__module__}
    for f in cls._fields:
        rhs = f
        if f not in defaults:
            if params and "=" in params[-1]:
                raise TypeError(f"{cls.__qualname__}: required field {f!r} "
                                "follows a defaulted one")
            params.append(f)
        elif type(defaults[f]) in _FRESH:
            if defaults[f]:
                raise TypeError(f"{cls.__qualname__}: a {f!r} default that is "
                                "not empty would be shared")
            params.append(f"{f}=None")
            rhs = f"{_FRESH[type(defaults[f])]} if {f} is None else {f}"
        else:
            ns[f"_d_{f}"] = defaults[f]
            params.append(f"{f}=_d_{f}")
        lines.append(f"    self.{f} = {rhs}")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(lines), ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Record):
    __slots__ = ()


class EInt(Expr):
    __slots__ = ("value",)


class EBool(Expr):
    __slots__ = ("value",)


class EVar(Expr):
    __slots__ = ("name",)


class EInvVal(Expr):
    """The distinguished value parameter of a location invariant."""
    __slots__ = ()


class EAny(Expr):
    """The `_` placeholder: any value."""
    __slots__ = ()


class EBin(Expr):
    __slots__ = ("op", "left", "right")


class EUn(Expr):
    __slots__ = ("op", "operand")    # op: '!' or '-'


TRUE_E = EBool(True)
FALSE_E = EBool(False)


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

InvRef = tuple[str, ...]  # star-combination of named invariants, in order


class Assertion(Record):
    __slots__ = ("span",)
    _hidden = ("span",)
    _defaults = {"span": NO_SPAN}


class APure(Assertion):
    __slots__ = ("expr",)
    _defaults = {"expr": None}


class APointsTo(Assertion):
    __slots__ = ("loc", "value", "frac")
    _defaults = {"loc": "", "value": None, "frac": None}    # frac None: full permission


class AStar(Assertion):
    __slots__ = ("parts",)
    _defaults = {"parts": ()}


class AImplies(Assertion):
    __slots__ = ("cond", "body")
    _defaults = {"cond": None, "body": None}


class ACond(Assertion):
    __slots__ = ("cond", "then", "els")
    _defaults = {"cond": None, "then": None, "els": None}


class AResource(Assertion):
    """A location resource: Uninit(loc), Init(loc), or Acq, Rel and RMWAcq
    of a location and an invariant reference."""
    __slots__ = ("kind", "loc", "inv")
    _defaults = {"kind": "Init",    # the keyword: Uninit | Init | Acq | Rel | RMWAcq
                 "loc": "", "inv": ()}    # inv: empty for Uninit and Init


class AModal(Assertion):
    __slots__ = ("kind", "body")
    _defaults = {"kind": "Up", "body": None}    # kind: Up | Down


def star(parts: list[Assertion]) -> Assertion:
    """The flat star of one or more parts."""
    flat: list[Assertion] = []
    for p in parts:
        if isinstance(p, AStar):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return AStar(parts=tuple(flat), span=flat[0].span)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt(Record):
    __slots__ = ("span",)
    _hidden = ("span",)
    _defaults = {"span": NO_SPAN}


class SAlloc(Stmt):
    __slots__ = ("var", "kind", "inv")
    _defaults = {"var": "",
                 "kind": "na",    # na | ghost | acq | rmw, the class of the new location
                 "inv": ()}       # acq and rmw only


class SWrite(Stmt):
    __slots__ = ("mode", "loc", "value")
    _defaults = {"mode": "na", "loc": "", "value": None}    # mode: na | rel | rlx | rel_acq


class SRead(Stmt):
    __slots__ = ("mode", "target", "loc")
    _defaults = {"mode": "na", "target": "", "loc": ""}    # mode: na | acq | rlx | rel_acq


class SFenceAcq(Stmt):
    __slots__ = ()


class SFenceRel(Stmt):
    __slots__ = ("assertion",)
    _defaults = {"assertion": None}


class SCas(Stmt):
    __slots__ = ("target", "tau", "loc", "expected", "newval")
    _defaults = {"target": "", "tau": "rel_acq",    # tau: acq | rel | rel_acq | rlx
                 "loc": "", "expected": None, "newval": None}


class SFaa(Stmt):
    __slots__ = ("target", "tau", "loc", "delta")
    _defaults = {"target": "", "tau": "rel_acq", "loc": "", "delta": None}


class SRewrite(Stmt):
    __slots__ = ("loc", "old", "new")
    _defaults = {"loc": "", "old": (), "new": ()}


class LoopCond(Record):
    """Loop condition: pure, or a single atomic read / CAS compared to a value."""
    __slots__ = ("kind", "expr", "mode", "loc", "op", "rhs", "expected", "newval")
    _defaults = {"kind": "pure",    # pure | read | cas
                 "expr": None,      # pure condition
                 "mode": "",        # read: access mode; cas: tau
                 "loc": "", "op": "==", "rhs": None,    # op: comparison against rhs
                 "expected": None, "newval": None}      # cas only


class SWhile(Stmt):
    __slots__ = ("cond", "invariant", "body")
    _defaults = {"cond": None, "invariant": None, "body": []}


class SIf(Stmt):
    __slots__ = ("cond", "then", "els")
    _defaults = {"cond": None, "then": [], "els": []}


class Thread(Record):
    __slots__ = ("pre", "post", "body", "has_spec", "span")
    _hidden = ("span",)
    _defaults = {"pre": None, "post": None, "body": [], "has_spec": True,
                 "span": NO_SPAN}


class SPar(Stmt):
    __slots__ = ("threads",)
    _defaults = {"threads": []}


class SCall(Stmt):
    __slots__ = ("target", "callee", "args")
    _defaults = {"target": None, "callee": "", "args": []}


class SAssign(Stmt):
    __slots__ = ("var", "value")
    _defaults = {"var": "", "value": None}


class SFree(Stmt):
    __slots__ = ("var",)
    _defaults = {"var": ""}


class SSkip(Stmt):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class Param(Record):
    __slots__ = ("name", "ghost")
    _defaults = {"ghost": False}


class InvariantDecl(Record):
    __slots__ = ("name", "param", "body", "span")
    _hidden = ("span",)
    _defaults = {"name": "", "param": "V", "body": None, "span": NO_SPAN}


class Procedure(Record):
    __slots__ = ("name", "params", "returns", "pre", "post", "body", "has_spec", "span")
    _hidden = ("span",)
    _defaults = {"name": "", "params": [], "returns": [], "pre": None, "post": None,
                 "body": [],
                 "has_spec": True,    # explicit requires/ensures pair in the source
                 "span": NO_SPAN}


class Program(Record):
    __slots__ = ("invariants", "procedures", "entry")
    _defaults = {"invariants": [], "procedures": [], "entry": None}


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

# Binding strength of every binary operator, read by the parser and the
# printer alike.  Comparisons (CMP_PREC) do not chain; every other level is
# left-associative.  Unary operators bind tighter than all of these.
PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "|": 4, "^": 5, "&": 6, "<<": 7, ">>": 7,
    "+": 8, "-": 8, "*": 9, "/": 9, "%": 9,
}
CMP_PREC = PREC["=="]


def pp_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, EInt):
        return str(e.value)
    if isinstance(e, EBool):
        return "true" if e.value else "false"
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, EInvVal):
        return "V"
    if isinstance(e, EAny):
        return "_"
    if isinstance(e, EUn):
        return f"{e.op}{pp_expr(e.operand, 10)}"
    if isinstance(e, EBin):
        p = PREC[e.op]
        left = p + 1 if p == CMP_PREC else p
        s = f"{pp_expr(e.left, left)} {e.op} {pp_expr(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    raise AssertionError(e)


def pp_assertion(a: Assertion, prec: int = 0) -> str:
    if isinstance(a, APure):
        return pp_expr(a.expr, CMP_PREC)
    if isinstance(a, APointsTo):
        s = f"{a.loc} |-> {pp_expr(a.value, 10)}"
        if a.frac is not None:
            s += f" @ {pp_expr(a.frac, 10)}"
        return s
    if isinstance(a, AStar):
        s = " && ".join(pp_assertion(p, 2) for p in a.parts)
        return f"({s})" if prec > 1 else s
    if isinstance(a, AImplies):
        s = f"{pp_expr(a.cond, CMP_PREC)} ==> {pp_assertion(a.body, 2)}"
        return f"({s})" if prec > 0 else s
    if isinstance(a, ACond):
        s = f"{pp_expr(a.cond, CMP_PREC)} ? {pp_assertion(a.then, 2)} : {pp_assertion(a.els, 2)}"
        return f"({s})"
    if isinstance(a, AResource):
        inv = f", {' && '.join(a.inv)}" if a.inv else ""
        return f"{a.kind}({a.loc}{inv})"
    if isinstance(a, AModal):
        return f"{a.kind}({pp_assertion(a.body)})"
    raise AssertionError(a)


# ---------------------------------------------------------------------------
# Walkers
# ---------------------------------------------------------------------------

def walk_stmts(stmts: list) -> list[Stmt]:
    """All statements, in source order, recursing into structured bodies."""
    out: list[Stmt] = []
    for s in stmts:
        out.append(s)
        if isinstance(s, SWhile):
            out.extend(walk_stmts(s.body))
        elif isinstance(s, SIf):
            out.extend(walk_stmts(s.then))
            out.extend(walk_stmts(s.els))
        elif isinstance(s, SPar):
            for t in s.threads:
                out.extend(walk_stmts(t.body))
    return out


def walk_expr(e: Expr) -> Iterator[Expr]:
    """Every node of an expression, pre-order, left to right."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, EBin):
            stack += (x.right, x.left)
        elif isinstance(x, EUn):
            stack.append(x.operand)


def map_expr(e: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """Rebuild an expression with `leaf` applied to each leaf, sharing what
    does not change."""
    if isinstance(e, EBin):
        left, right = map_expr(e.left, leaf), map_expr(e.right, leaf)
        return e if left is e.left and right is e.right else EBin(e.op, left, right)
    if isinstance(e, EUn):
        operand = map_expr(e.operand, leaf)
        return e if operand is e.operand else EUn(e.op, operand)
    return leaf(e)


def expr_vars(e: Expr) -> set[str]:
    return {x.name for x in walk_expr(e) if isinstance(x, EVar)}


_VALUE_SLOTS = ("expr", "cond", "value")   # `frac` holds a permission, not a value
_EXPR_SLOTS = _VALUE_SLOTS + ("frac",)
_SUB_SLOTS = ("body", "then", "els")


def sub_assertions(a) -> tuple:
    """The direct sub-assertions of a node of either tree, left to right."""
    parts = getattr(a, "parts", None)
    if parts is not None:
        return parts
    body = getattr(a, "body", None)
    if body is not None:
        return (body,)
    then = getattr(a, "then", None)
    return (then, a.els) if then is not None else ()


def walk_assertion(a) -> Iterator:
    """Every node of an assertion of either tree, pre-order, left to right."""
    stack = [a]
    while stack:
        x = stack.pop()
        yield x
        stack += reversed(sub_assertions(x))


def map_assertion(a, on_expr: Optional[Callable[[Expr], Expr]],
                  on_node: Optional[Callable] = None):
    """Rebuild an assertion of either tree, bottom-up.

    `on_expr` maps each expression slot (None skips them) and `on_node` each
    node once its children are rebuilt.  A node that nothing changes is
    returned as itself.
    """
    changes: dict = {}
    for f in _EXPR_SLOTS if on_expr is not None else ():
        e = getattr(a, f, None)
        if e is not None and (new := on_expr(e)) is not e:
            changes[f] = new
    parts = getattr(a, "parts", None)
    if parts is not None:
        new_parts = tuple(map_assertion(p, on_expr, on_node) for p in parts)
        if any(n is not p for n, p in zip(new_parts, parts)):
            changes["parts"] = new_parts
    for f in _SUB_SLOTS:
        sub = getattr(a, f, None)
        if sub is not None and (new := map_assertion(sub, on_expr, on_node)) is not sub:
            changes[f] = new
    out = a.replace(**changes) if changes else a
    return on_node(out) if on_node is not None else out


def subst_loc(loc: str, mapping: dict[str, Expr]) -> str:
    """A location slot under a substitution, which must give it a variable."""
    m = mapping.get(loc)
    if m is None:
        return loc
    if type(m) is EVar:
        return m.name
    raise ValueError(f"location position for '{loc}' needs a variable, got an expression")


def height(a) -> int:
    """The height of an assertion or expression tree, expressions included:
    a leaf has height 0."""
    h, stack = 0, [(a, 0)]
    while stack:
        x, level = stack.pop()
        h = max(h, level)
        if isinstance(x, EBin):
            subs = (x.left, x.right)
        elif isinstance(x, EUn):
            subs = (x.operand,)
        elif isinstance(x, Expr):
            subs = ()
        else:
            exprs = (getattr(x, f, None) for f in _EXPR_SLOTS)
            subs = sub_assertions(x) + tuple(e for e in exprs if e is not None)
        stack += [(y, level + 1) for y in subs]
    return h


def instantiate(a: Assertion, mapping: dict[str, Expr], span: Span
                ) -> tuple[Assertion, int]:
    """An assertion at arguments, in one walk, as a define is expanded at
    its use and a callee's spec at its call: `mapping` gives each
    parameter's argument, which a location slot needs to be a variable
    (ValueError otherwise).  Every node takes `span`, so diagnostics about
    the instance point at the use; and a pure fact that an argument made a
    top-level `&&` is a star of facts, as if the argument had been written
    in place.  Returns the instance and the height of the substituted
    assertion, taken before those facts are split and stars flattened."""
    t = type(a)
    if t is APure:
        e, h = _instantiate_expr(a.expr, mapping)
        return _facts(e, span), h + 1
    if t is AStar:
        parts, h = [], 0
        for p in a.parts:
            part, hp = instantiate(p, mapping, span)
            parts.append(part)
            h = h if h > hp else hp
        return star(parts), h + 1
    if t is APointsTo:
        loc = subst_loc(a.loc, mapping)
        value, h = _instantiate_expr(a.value, mapping)
        frac = a.frac
        if frac is not None:
            frac, hf = _instantiate_expr(frac, mapping)
            h = h if h > hf else hf
        return APointsTo(span, loc, value, frac), h + 1
    if t is AResource:
        return AResource(span, a.kind, subst_loc(a.loc, mapping), a.inv), 0
    if t is AImplies:
        cond, hc = _instantiate_expr(a.cond, mapping)
        body, hb = instantiate(a.body, mapping, span)
        return AImplies(span, cond, body), (hc if hc > hb else hb) + 1
    if t is ACond:
        cond, hc = _instantiate_expr(a.cond, mapping)
        then, ht = instantiate(a.then, mapping, span)
        els, he = instantiate(a.els, mapping, span)
        return ACond(span, cond, then, els), max(hc, ht, he) + 1
    if t is AModal:
        body, h = instantiate(a.body, mapping, span)
        return AModal(span, a.kind, body), h + 1
    raise AssertionError(a)


def _instantiate_expr(e: Expr, mapping: dict[str, Expr]) -> tuple[Expr, int]:
    """An expression at the arguments, and its height."""
    t = type(e)
    if t is EVar:
        arg = mapping.get(e.name)
        return (e, 0) if arg is None else (arg, height(arg))
    if t is EBin:
        left, hl = _instantiate_expr(e.left, mapping)
        right, hr = _instantiate_expr(e.right, mapping)
        if left is not e.left or right is not e.right:
            e = EBin(e.op, left, right)
        return e, (hl if hl > hr else hr) + 1
    if t is EUn:
        operand, h = _instantiate_expr(e.operand, mapping)
        return (e if operand is e.operand else EUn(e.op, operand)), h + 1
    return e, 0


def _facts(e: Expr, span: Span) -> Assertion:
    """A pure fact, split at its top-level `&&`s into a star of facts."""
    if type(e) is EBin and e.op == "&&":
        return star([_facts(e.left, span), _facts(e.right, span)])
    return APure(span, e)


def assertion_vars(a: Assertion) -> set[str]:
    """Free program variables of an assertion.

    Invariant names are not variables, and neither are symbols appearing in
    fraction expressions (permission-level tokens such as counting shares).
    """
    out: set[str] = set()
    for x in walk_assertion(a):
        if hasattr(x, "loc"):
            out.add(x.loc)
        for f in _VALUE_SLOTS:
            e = getattr(x, f, None)
            if e is not None:
                out |= expr_vars(e)
    return out
