"""Surface AST for the annotated input language.

Statements cover non-atomic and atomic accesses, fences, compare-and-swap,
fetch-and-add, ghost allocation, invariant rewriting, loops, conditionals,
structured parallel composition and procedure calls.  Assertions cover the
separation-logic fragment used by specifications: points-to with fractional
permissions, implication and conditional assertions, the atomic-location
resources (Uninit / Init / Acq / Rel / RMWAcq) and the up/down modalities.

Node equality ignores source spans, so parse -> pretty-print -> parse is
expected to reproduce an equal tree.

The assertion walkers at the end serve both this tree and the encoded one in
`speclogic`, whose nodes use the same field names (`parts`, `body`, `then`,
`els`, `loc`, and the expression slots `expr`, `cond`, `value`, `frac`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    """A source range.  A named tuple: the parser makes one per statement,
    and a tuple costs about half as much to build as a frozen dataclass."""
    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span()


def _span_field():
    return field(default=NO_SPAN, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    pass


@dataclass
class EInt(Expr):
    value: int


@dataclass
class EBool(Expr):
    value: bool


@dataclass
class EVar(Expr):
    name: str


@dataclass
class EInvVal(Expr):
    """The distinguished value parameter of a location invariant."""


@dataclass
class EAny(Expr):
    """The `_` placeholder: any value."""


@dataclass
class EBin(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class EUn(Expr):
    op: str  # '!' or '-'
    operand: Expr


TRUE_E = EBool(True)
FALSE_E = EBool(False)


# ---------------------------------------------------------------------------
# Assertions
# ---------------------------------------------------------------------------

InvRef = tuple[str, ...]  # star-combination of named invariants, in order


@dataclass
class Assertion:
    span: Span = _span_field()


@dataclass
class APure(Assertion):
    expr: Expr = None


@dataclass
class APointsTo(Assertion):
    loc: str = ""
    value: Expr = None
    frac: Optional[Expr] = None  # None means full permission


@dataclass
class AStar(Assertion):
    parts: tuple = ()


@dataclass
class AImplies(Assertion):
    cond: Expr = None
    body: Assertion = None


@dataclass
class ACond(Assertion):
    cond: Expr = None
    then: Assertion = None
    els: Assertion = None


@dataclass
class AUninit(Assertion):
    loc: str = ""


@dataclass
class AInit(Assertion):
    loc: str = ""


@dataclass
class AAcq(Assertion):
    loc: str = ""
    inv: InvRef = ()


@dataclass
class ARel(Assertion):
    loc: str = ""
    inv: InvRef = ()


@dataclass
class ARMWAcq(Assertion):
    loc: str = ""
    inv: InvRef = ()


@dataclass
class AUp(Assertion):
    body: Assertion = None


@dataclass
class ADown(Assertion):
    body: Assertion = None


def star(parts: list[Assertion]) -> Assertion:
    flat: list[Assertion] = []
    for p in parts:
        if isinstance(p, AStar):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return APure(expr=TRUE_E)
    if len(flat) == 1:
        return flat[0]
    return AStar(parts=tuple(flat), span=flat[0].span)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    span: Span = _span_field()


@dataclass
class SAllocNa(Stmt):
    var: str = ""


@dataclass
class SAllocAtomic(Stmt):
    var: str = ""
    kind: str = "acq"  # acq | rmw
    inv: InvRef = ()


@dataclass
class SGhostAlloc(Stmt):
    var: str = ""


@dataclass
class SWrite(Stmt):
    mode: str = "na"  # na | rel | rlx | rel_acq
    loc: str = ""
    value: Expr = None


@dataclass
class SRead(Stmt):
    mode: str = "na"  # na | acq | rlx | rel_acq
    target: str = ""
    loc: str = ""


@dataclass
class SFenceAcq(Stmt):
    pass


@dataclass
class SFenceRel(Stmt):
    assertion: Assertion = None


@dataclass
class SCas(Stmt):
    target: str = ""
    tau: str = "rel_acq"  # acq | rel | rel_acq | rlx
    loc: str = ""
    expected: Expr = None
    newval: Expr = None


@dataclass
class SFaa(Stmt):
    target: str = ""
    tau: str = "rel_acq"
    loc: str = ""
    delta: Expr = None


@dataclass
class SRewrite(Stmt):
    loc: str = ""
    old: InvRef = ()
    new: InvRef = ()


@dataclass
class LoopCond:
    """Loop condition: pure, or a single atomic read / CAS compared to a value."""
    kind: str = "pure"  # pure | read | cas
    expr: Expr = None                 # pure condition
    mode: str = ""                    # read: access mode; cas: tau
    loc: str = ""
    op: str = "=="                    # comparison against rhs
    rhs: Expr = None
    expected: Expr = None             # cas only
    newval: Expr = None               # cas only


@dataclass
class SWhile(Stmt):
    cond: LoopCond = None
    invariant: Optional[Assertion] = None
    body: list = field(default_factory=list)


@dataclass
class SIf(Stmt):
    cond: Expr = None
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)


@dataclass
class Thread:
    pre: Assertion = None
    post: Assertion = None
    body: list = field(default_factory=list)
    has_spec: bool = True
    span: Span = _span_field()


@dataclass
class SPar(Stmt):
    threads: list = field(default_factory=list)


@dataclass
class SCall(Stmt):
    target: Optional[str] = None
    callee: str = ""
    args: list = field(default_factory=list)


@dataclass
class SAssign(Stmt):
    var: str = ""
    value: Expr = None


@dataclass
class SFree(Stmt):
    var: str = ""


@dataclass
class SSkip(Stmt):
    pass


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass
class Param:
    name: str
    ghost: bool = False


@dataclass
class InvariantDecl:
    name: str = ""
    param: str = "V"
    body: Assertion = None
    span: Span = _span_field()


@dataclass
class Procedure:
    name: str = ""
    params: list = field(default_factory=list)
    returns: list = field(default_factory=list)
    pre: Assertion = None
    post: Assertion = None
    body: list = field(default_factory=list)
    has_spec: bool = True  # explicit requires/ensures pair in the source
    span: Span = _span_field()


@dataclass
class Program:
    invariants: list = field(default_factory=list)
    procedures: list = field(default_factory=list)
    entry: Optional[str] = None


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


def _pp_inv(inv: InvRef) -> str:
    return " && ".join(inv)


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
    if isinstance(a, AUninit):
        return f"Uninit({a.loc})"
    if isinstance(a, AInit):
        return f"Init({a.loc})"
    if isinstance(a, AAcq):
        return f"Acq({a.loc}, {_pp_inv(a.inv)})"
    if isinstance(a, ARel):
        return f"Rel({a.loc}, {_pp_inv(a.inv)})"
    if isinstance(a, ARMWAcq):
        return f"RMWAcq({a.loc}, {_pp_inv(a.inv)})"
    if isinstance(a, AUp):
        return f"Up({pp_assertion(a.body)})"
    if isinstance(a, ADown):
        return f"Down({pp_assertion(a.body)})"
    raise AssertionError(a)


def _pp_block(stmts: list, indent: int) -> list[str]:
    pad = "  " * indent
    out: list[str] = []
    for s in stmts:
        out.extend(pp_stmt(s, indent))
    return out or [pad + "skip;"]


def pp_stmt(s: Stmt, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(s, SAllocNa):
        return [f"{pad}alloc_na({s.var});"]
    if isinstance(s, SAllocAtomic):
        kw = "alloc_acq" if s.kind == "acq" else "alloc_rmw"
        return [f"{pad}{kw}({s.var}, {_pp_inv(s.inv)});"]
    if isinstance(s, SGhostAlloc):
        return [f"{pad}ghost_alloc({s.var});"]
    if isinstance(s, SWrite):
        return [f"{pad}[{s.loc}]_{s.mode} := {pp_expr(s.value)};"]
    if isinstance(s, SRead):
        return [f"{pad}{s.target} := [{s.loc}]_{s.mode};"]
    if isinstance(s, SFenceAcq):
        return [f"{pad}fence_acq;"]
    if isinstance(s, SFenceRel):
        return [f"{pad}fence_rel({pp_assertion(s.assertion)});"]
    if isinstance(s, SCas):
        return [f"{pad}{s.target} := CAS_{s.tau}({s.loc}, {pp_expr(s.expected)}, "
                f"{pp_expr(s.newval)});"]
    if isinstance(s, SFaa):
        return [f"{pad}{s.target} := FAA_{s.tau}({s.loc}, {pp_expr(s.delta)});"]
    if isinstance(s, SRewrite):
        return [f"{pad}rewrite Acq({s.loc}, {_pp_inv(s.old)}) to "
                f"Acq({s.loc}, {_pp_inv(s.new)});"]
    if isinstance(s, SWhile):
        c = s.cond
        if c.kind == "pure":
            cond = pp_expr(c.expr)
        elif c.kind == "read":
            cond = f"[{c.loc}]_{c.mode} {c.op} {pp_expr(c.rhs)}"
        else:
            cond = (f"CAS_{c.mode}({c.loc}, {pp_expr(c.expected)}, "
                    f"{pp_expr(c.newval)}) {c.op} {pp_expr(c.rhs)}")
        head = f"{pad}while ({cond})"
        lines = [head]
        if s.invariant is not None:
            lines.append(f"{pad}  invariant {{ {pp_assertion(s.invariant)} }}")
        if s.body:
            lines.append(pad + "{")
            lines.extend(_pp_block(s.body, indent + 1))
            lines.append(pad + "}")
        else:
            lines[-1] += " ;" if s.invariant is not None else ";"
            if s.invariant is None:
                lines[0] = head + ";"
                lines = [lines[0]]
        return lines
    if isinstance(s, SIf):
        lines = [f"{pad}if ({pp_expr(s.cond)}) {{"]
        lines.extend(_pp_block(s.then, indent + 1))
        if s.els:
            lines.append(pad + "} else {")
            lines.extend(_pp_block(s.els, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(s, SPar):
        lines = [pad + "par {"]
        for t in s.threads:
            lines.append(f"{pad}  thread")
            lines.append(f"{pad}    requires {{ {pp_assertion(t.pre)} }}")
            lines.append(f"{pad}    ensures {{ {pp_assertion(t.post)} }}")
            lines.append(pad + "  {")
            lines.extend(_pp_block(t.body, indent + 2))
            lines.append(pad + "  }")
        lines.append(pad + "}")
        return lines
    if isinstance(s, SCall):
        args = ", ".join(pp_expr(a) for a in s.args)
        if s.target:
            return [f"{pad}{s.target} := call {s.callee}({args});"]
        return [f"{pad}call {s.callee}({args});"]
    if isinstance(s, SAssign):
        return [f"{pad}{s.var} := {pp_expr(s.value)};"]
    if isinstance(s, SFree):
        return [f"{pad}free({s.var});"]
    if isinstance(s, SSkip):
        return [f"{pad}skip;"]
    raise AssertionError(s)


def pp_program(p: Program) -> str:
    lines: list[str] = []
    for d in p.invariants:
        lines.append(f"invariant {d.name}({d.param}) = {pp_assertion(d.body)};")
    if p.invariants:
        lines.append("")
    for proc in p.procedures:
        def params_of(ps):
            return ", ".join(("ghost " if q.ghost else "") + q.name for q in ps)
        head = f"proc {proc.name}({params_of(proc.params)})"
        if proc.returns:
            head += f" returns ({params_of(proc.returns)})"
        lines.append(head)
        if proc.has_spec:
            lines.append(f"  requires {{ {pp_assertion(proc.pre)} }}")
            lines.append(f"  ensures {{ {pp_assertion(proc.post)} }}")
        lines.append("{")
        lines.extend(_pp_block(proc.body, 1))
        lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


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


def subst_expr(e: Expr, mapping: dict[str, Expr]) -> Expr:
    return map_expr(e, lambda x: mapping.get(x.name, x) if isinstance(x, EVar) else x)


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
                  on_loc: Optional[Callable[[str], str]] = None,
                  on_node: Optional[Callable] = None):
    """Rebuild an assertion of either tree, bottom-up.

    `on_expr` maps each expression slot (None skips them), `on_loc` each
    location and `on_node` each node once its children are rebuilt.  A node
    that nothing changes is returned as itself.
    """
    changes: dict = {}
    for f in _EXPR_SLOTS if on_expr is not None else ():
        e = getattr(a, f, None)
        if e is not None and (new := on_expr(e)) is not e:
            changes[f] = new
    if on_loc is not None and hasattr(a, "loc") and (loc := on_loc(a.loc)) != a.loc:
        changes["loc"] = loc
    parts = getattr(a, "parts", None)
    if parts is not None:
        new_parts = tuple(map_assertion(p, on_expr, on_loc, on_node) for p in parts)
        if any(n is not p for n, p in zip(new_parts, parts)):
            changes["parts"] = new_parts
    for f in _SUB_SLOTS:
        sub = getattr(a, f, None)
        if sub is not None and (new := map_assertion(sub, on_expr, on_loc, on_node)) is not sub:
            changes[f] = new
    out = replace(a, **changes) if changes else a
    return on_node(out) if on_node is not None else out


def _subst_loc(loc: str, mapping: dict[str, Expr]) -> str:
    m = mapping.get(loc)
    if m is None:
        return loc
    if isinstance(m, EVar):
        return m.name
    raise ValueError(f"location position for '{loc}' needs a variable, got an expression")


def subst_assertion(a: Assertion, mapping: dict[str, Expr]) -> Assertion:
    """Substitute program variables; location slots require variable arguments."""
    return map_assertion(a, lambda e: subst_expr(e, mapping),
                         lambda loc: _subst_loc(loc, mapping))


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
