"""Lexer, parser and well-formedness checks for the input language.

The concrete syntax is keyword-based, one statement per line:

    invariant Q1(V) = V != 0 ==> a |-> 42;

    proc main()
      requires { true }
      ensures  { a |-> 43 }
    {
      alloc_na(a);
      alloc_acq(l, Q1);
      [l]_rel := 0;
      ...
    }

Parsing is total: syntax problems are reported as diagnostics with source
positions and the parser resynchronises at the next statement (at the next
declaration after an error in a header or spec).  ``mode_check`` classifies
every variable as a non-atomic location, an atomic location (acquire-read or
RMW flavour), a ghost location or a plain value, and rejects programs that
mix classifications for one variable, pass an expression for a location
parameter or give an annotated loop an atomic condition.

The mode check walks each procedure's statements once, and is the only place
that knows which names and invariants each statement kind reads or binds.
Besides the classes it records what later stages would otherwise walk again
for: on each ``ProcInfo``, the ``Scope`` of every body (the variables it
uses, not following the invariants annotations name, and those it binds) and
the call sites; on the ``CheckedProgram``, every invariant reference of an
annotation with its span, in source order.  The invariant table is built
from those sites, and the encoder havocs from those scopes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from . import syntax as S
from .diagnostics import (
    ATOMIC_ACCESS_TO_NON_ATOMIC,
    CAS_ON_ACQ_LOCATION,
    DUPLICATE_NAME,
    Diagnostic,
    FrontendError,
    MIXED_MODE_ACCESS,
    SYNTAX_ERROR,
)
from .syntax import Span
from .terms import num_str

WRITE_MODES = ("na", "rel", "rlx", "rel_acq")
READ_MODES = ("na", "acq", "rlx", "rel_acq")
CAS_MODES = ("acq", "rel", "rel_acq", "rlx")

# variable classifications
NA = "na"
ACQ = "acq"
RMW = "rmw"
GHOST = "ghost"
ATOMIC = "atomic"   # atomic location used only via release writes / Rel / Init
VALUE = "value"     # plain integer variable
UNKNOWN = "unknown"

LOCATION_CLASSES = (NA, ACQ, RMW, GHOST, ATOMIC)

# Bounds on the input, reported as syntax errors.  An integer literal has at
# most MAX_INT_DIGITS digits.  Nesting is at most MAX_NESTING levels deep:
# each enclosing block, parenthesis, unary operator, `==>`, `?`, `Up` and
# `Down` is a level, and an expression adds the height of its tree, so each
# operator of `1 + 1 + 1` is one more.  The parser and every later walk of
# the trees recurse on nesting; the bound keeps them within Python's
# recursion limit.
MAX_INT_DIGITS = 1000
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One match per token: the blanks and comments before it, then one
# alternative per token class, tried in order.  Longer operators come before
# their prefixes.  Names and integers are ASCII; any other character is a
# `bad` token.  The last match is the blanks and comments before the end.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?:(?P<name>[A-Za-z][A-Za-z0-9_]*|_[A-Za-z0-9_]+)
      | (?P<int>[0-9]+)
      | (?P<punct>==>|\|->|:=|==|!=|<=|>=|<<|>>|&&|\|\||[(){}\[\],;@?:+\-*/%&|^!<>=_])
      | (?P<bad>.)
      | \Z)
""", re.VERBOSE)

# A token is a plain tuple (kind, text, line, col), kind one of name, int,
# punct and eof; these name its fields.
KIND, TEXT, LINE, COL = range(4)
Token = tuple[str, str, int, int]


def token_span(t: Token) -> Span:
    _, text, line, col = t
    return Span(line, col, line, col + len(text))


def tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """The tokens of `source`, then an eof token; and the unexpected characters."""
    toks: list[Token] = []
    diags: list[Diagnostic] = []
    lines = source.split("\n")          # not splitlines(), which also splits at \r
    line, line_start, next_line_start = 1, 0, len(lines[0]) + 1
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is None:                # the end of the input
            break
        start = m.start(kind)
        while start >= next_line_start:
            line_start = next_line_start
            next_line_start += len(lines[line]) + 1
            line += 1
        col = start - line_start + 1
        if kind == "bad":
            diags.append(Diagnostic(SYNTAX_ERROR, Span(line, col, line, col + 1),
                                    message=f"unexpected character {m[kind]!r}"))
        else:
            toks.append((kind, m[kind], line, col))
    toks.append(("eof", "", len(lines), len(lines[-1]) + 1))
    return toks, diags


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


class _Define(S.Record):
    __slots__ = ("params", "body")

    def __init__(self, params: list[str], body: S.Assertion):
        self.params = params
        self.body = body


# statements of the form  kw "(" NAME ")" ";"  or  kw "(" NAME "," invref ")" ";",
# with their allocation kind (free has none), and of the form  kw ";"
_VAR_STMTS = {"alloc_na": "na", "ghost_alloc": "ghost", "alloc_acq": "acq",
              "alloc_rmw": "rmw", "free": None}
_BARE_STMTS = {"fence_acq": S.SFenceAcq, "skip": S.SSkip}
# location resources, of the form  kw "(" NAME ")"  or  kw "(" NAME "," invref ")"
_RESOURCES = ("Uninit", "Init", "Acq", "Rel", "RMWAcq")
# the keywords above that take an invariant reference
_WITH_INV = ("alloc_acq", "alloc_rmw", "Acq", "Rel", "RMWAcq")


def _extends_fact(text: str) -> bool:
    """Whether a token after a pure fact's ``)`` continues that fact."""
    return text in ("==>", "?") or S.PREC.get(text, 0) >= S.CMP_PREC


class Parser:
    def __init__(self, source: str):
        self.toks, self.diags = tokenize(source)
        self.pos = 0
        self.tok = self.toks[0]   # the current token, self.toks[self.pos]
        self.defines: dict[str, _Define] = {}
        self.depth = 0      # the nesting of the current position
        self.inv_param: Optional[str] = None  # active invariant-declaration parameter

    # -- token helpers ------------------------------------------------------

    def next(self) -> Token:
        t = self.tok
        if t[KIND] != "eof":
            self.pos += 1
            self.tok = self.toks[self.pos]
        return t

    def at(self, text: str) -> bool:
        return self.tok[TEXT] == text

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.next()
        raise self._error(f"expected {text!r}, found {self._found()}")

    def expect_name(self) -> str:
        if self.tok[KIND] != "name":
            raise self._error(f"expected a name, found {self._found()}")
        return self.next()[TEXT]

    def _found(self) -> str:
        return repr(self.tok[TEXT]) if self.tok[TEXT] else "end of input"

    def _error(self, msg: str, span: Optional[Span] = None) -> _ParseError:
        return _ParseError(Diagnostic(SYNTAX_ERROR, span or token_span(self.tok), message=msg))

    def _nest(self) -> None:
        """Go one level deeper; the caller comes back with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels")

    def _sync_stmt(self) -> None:
        depth = 0
        while True:
            t = self.tok
            if t[KIND] == "eof":
                return
            if t[TEXT] == ";" and depth == 0:
                self.next()
                return
            if t[TEXT] == "{":
                depth += 1
            elif t[TEXT] == "}":
                if depth == 0:
                    return
                depth -= 1
            self.next()

    def _sync_decl(self) -> None:
        """Skip to the next declaration: a ``proc`` or ``define``, or an
        ``invariant`` after a ``;`` or ``}`` (a loop invariant follows a ``)``)."""
        prev = self.toks[self.pos - 1][TEXT] if self.pos else ""
        while self.tok[KIND] != "eof":
            t = self.tok[TEXT]
            if t in ("proc", "define") or (t == "invariant" and prev in (";", "}")):
                return
            prev = self.next()[TEXT]

    # -- program ------------------------------------------------------------

    def parse_program(self) -> S.Program:
        prog = S.Program()
        while self.tok[KIND] != "eof":
            try:
                if self.at("invariant"):
                    self._parse_invariant_decl(prog)
                elif self.at("define"):
                    self._parse_define()
                elif self.at("proc"):
                    prog.procedures.append(self._parse_proc())
                else:
                    raise self._error(
                        f"expected 'invariant', 'define' or 'proc', found {self.tok[TEXT]!r}")
            except _ParseError as e:
                self.diags.append(e.diag)
                self.depth = 0
                self._sync_decl()
        self._check_duplicates(prog)
        if any(p.name == "main" for p in prog.procedures):
            prog.entry = "main"
        return prog

    def _check_duplicates(self, prog: S.Program) -> None:
        seen: set[str] = set()
        for p in prog.procedures:
            if p.name in seen:
                self.diags.append(Diagnostic(
                    DUPLICATE_NAME, p.span, message=f"duplicate procedure {p.name!r}"))
            seen.add(p.name)
        seen_inv: set[str] = set()
        for d in prog.invariants:
            if d.name in seen_inv:
                self.diags.append(Diagnostic(
                    DUPLICATE_NAME, d.span, message=f"duplicate invariant {d.name!r}"))
            seen_inv.add(d.name)

    def _parse_invariant_decl(self, prog: S.Program) -> None:
        start = self.expect("invariant")
        name = self.expect_name()
        param = self._paren_name()
        self.expect("=")
        self.inv_param = param
        try:
            body = self.parse_assertion()
        finally:
            self.inv_param = None
        self.expect(";")
        prog.invariants.append(S.InvariantDecl(
            name=name, param=param, body=body, span=token_span(start)))

    def _parse_define(self) -> None:
        self.expect("define")
        name = self.expect_name()
        params: list[str] = []
        if self.accept("("):
            while not self.at(")"):
                params.append(self.expect_name())
                if not self.accept(","):
                    break
            self.expect(")")
        self.expect("=")
        body = self.parse_assertion()
        self.expect(";")
        self.defines[name] = _Define(params, body)

    def _parse_proc(self) -> S.Procedure:
        start = self.expect("proc")
        name = self.expect_name()
        self.expect("(")
        params = self._parse_params()
        self.expect(")")
        returns: list[S.Param] = []
        if self.accept("returns"):
            self.expect("(")
            returns = self._parse_params()
            self.expect(")")
        pre, post, has_spec = self._parse_spec()
        body = self._parse_block()
        return S.Procedure(name=name, params=params, returns=returns,
                           pre=pre, post=post, body=body,
                           has_spec=has_spec, span=token_span(start))

    def _parse_params(self) -> list[S.Param]:
        out: list[S.Param] = []
        while self.tok[KIND] == "name":
            ghost = bool(self.accept("ghost"))
            out.append(S.Param(self.expect_name(), ghost))
            if not self.accept(","):
                break
        return out

    def _parse_spec(self) -> tuple[S.Assertion, S.Assertion, bool]:
        true_a = S.APure(expr=S.TRUE_E)
        if not self.accept("requires"):
            return true_a, true_a, False
        self.expect("{")
        pre = self.parse_assertion()
        self.expect("}")
        self.expect("ensures")
        self.expect("{")
        post = self.parse_assertion()
        self.expect("}")
        return pre, post, True

    def _parse_block(self) -> list[S.Stmt]:
        if self.at("{"):
            self._nest()
        self.expect("{")
        depth = self.depth
        stmts: list[S.Stmt] = []
        while not self.at("}") and self.tok[KIND] != "eof":
            try:
                stmts.append(self.parse_stmt())
            except _ParseError as e:
                self.diags.append(e.diag)
                self.depth = depth
                self._sync_stmt()
        self.expect("}")
        self.depth -= 1
        return stmts

    # -- statements -----------------------------------------------------------

    def parse_stmt(self) -> S.Stmt:
        t = self.tok
        text = t[TEXT]
        if text in _VAR_STMTS:
            self.next()
            var, inv = self._paren_loc_inv() if text in _WITH_INV else (self._paren_name(), ())
            span = self._span(t, self.expect(";"))
            kind = _VAR_STMTS[text]
            return S.SAlloc(span, var, kind, inv) if kind else S.SFree(span, var)
        if text in _BARE_STMTS:
            self.next()
            end = self.expect(";")
            return _BARE_STMTS[text](span=self._span(t, end))
        if text == "fence_rel":
            self.next()
            self.expect("(")
            a = self.parse_assertion()
            self.expect(")")
            end = self.expect(";")
            return S.SFenceRel(assertion=a, span=self._span(t, end))
        if text == "rewrite":
            return self._parse_rewrite()
        if text == "while":
            return self._parse_while()
        if text == "if":
            return self._parse_if()
        if text == "par":
            return self._parse_par()
        if text == "call":
            self.next()
            callee = self.expect_name()
            args = self._parse_args()
            end = self.expect(";")
            return S.SCall(target=None, callee=callee, args=args, span=self._span(t, end))
        if text == "[":
            return self._parse_write()
        if t[KIND] == "name":
            return self._parse_assign_like()
        raise self._error(f"expected a statement, found {text!r}")

    def _span(self, start: Token, end: Token) -> Span:
        return Span(start[LINE], start[COL], end[LINE], end[COL] + len(end[TEXT]))

    def _paren_name(self) -> str:
        """``( NAME )``: the name."""
        self.expect("(")
        name = self.expect_name()
        self.expect(")")
        return name

    def _paren_loc_inv(self) -> tuple[str, S.InvRef]:
        """``( NAME , invref )``: the name and the invariant reference."""
        self.expect("(")
        loc = self.expect_name()
        self.expect(",")
        inv = self._parse_invref()
        self.expect(")")
        return loc, inv

    def _parse_access(self, allowed: tuple[str, ...], what: str) -> tuple[str, str]:
        """``[ NAME ] _mode``: the location and the mode, which must be allowed."""
        self.expect("[")
        loc = self.expect_name()
        self.expect("]")
        t = self.tok
        if t[KIND] == "name" and t[TEXT].startswith("_"):
            mode = t[TEXT][1:]
            if mode in allowed:
                self.next()
                return loc, mode
            raise self._error(
                f"{what} mode '_{mode}' is not allowed; expected one of "
                + ", ".join("_" + m for m in allowed), token_span(t))
        raise self._error("expected an access mode suffix after ']'", token_span(t))

    def _parse_write(self) -> S.Stmt:
        start = self.tok
        loc, mode = self._parse_access(WRITE_MODES, "write")
        self.expect(":=")
        value = self.parse_expr()
        end = self.expect(";")
        return S.SWrite(mode=mode, loc=loc, value=value, span=self._span(start, end))

    def _parse_assign_like(self) -> S.Stmt:
        start = self.tok
        target = self.expect_name()
        self.expect(":=")
        t = self.tok
        if t[TEXT] == "[":
            loc, mode = self._parse_access(READ_MODES, "read")
            end = self.expect(";")
            return S.SRead(mode=mode, target=target, loc=loc, span=self._span(start, end))
        if t[KIND] == "name" and t[TEXT].startswith("CAS_"):
            tau, loc, (expected, newval) = self._parse_rmw(2)
            end = self.expect(";")
            return S.SCas(target=target, tau=tau, loc=loc, expected=expected,
                          newval=newval, span=self._span(start, end))
        if t[KIND] == "name" and t[TEXT].startswith("FAA_"):
            tau, loc, (delta,) = self._parse_rmw(1)
            end = self.expect(";")
            return S.SFaa(target=target, tau=tau, loc=loc, delta=delta,
                          span=self._span(start, end))
        if t[TEXT] == "call":
            self.next()
            callee = self.expect_name()
            args = self._parse_args()
            end = self.expect(";")
            return S.SCall(target=target, callee=callee, args=args,
                           span=self._span(start, end))
        value = self.parse_expr()
        end = self.expect(";")
        return S.SAssign(var=target, value=value, span=self._span(start, end))

    def _parse_rmw(self, nargs: int) -> tuple[str, str, list[S.Expr]]:
        """``CAS_tau(NAME, expr, expr)`` or ``FAA_tau(NAME, expr)``: the mode
        ``tau``, the location and the ``nargs`` expressions."""
        t = self.tok
        tau = t[TEXT].split("_", 1)[1]
        if tau not in CAS_MODES:
            raise self._error(f"unknown atomic update mode {t[TEXT]!r}", token_span(t))
        self.next()
        self.expect("(")
        loc = self.expect_name()
        args: list[S.Expr] = []
        for _ in range(nargs):
            self.expect(",")
            args.append(self.parse_expr())
        self.expect(")")
        return tau, loc, args

    def _parse_args(self) -> list[S.Expr]:
        self.expect("(")
        args: list[S.Expr] = []
        while not self.at(")"):
            args.append(self.parse_expr())
            if not self.accept(","):
                break
        self.expect(")")
        return args

    def _parse_rewrite(self) -> S.Stmt:
        start = self.expect("rewrite")
        self.expect("Acq")
        loc, old = self._paren_loc_inv()
        self.expect("to")
        self.expect("Acq")
        loc2, new = self._paren_loc_inv()
        end = self.expect(";")
        if loc2 != loc:
            raise self._error(f"rewrite must target one location, got {loc!r} and {loc2!r}",
                              token_span(start))
        return S.SRewrite(loc=loc, old=old, new=new, span=self._span(start, end))

    def _parse_while(self) -> S.Stmt:
        start = self.expect("while")
        self.expect("(")
        cond = self._parse_loop_cond()
        self.expect(")")
        invariant = None
        if self.accept("invariant"):
            self.expect("{")
            invariant = self.parse_assertion()
            self.expect("}")
        if self.at("{"):
            body = self._parse_block()
            end_span = self.toks[self.pos - 1]
            return S.SWhile(cond=cond, invariant=invariant, body=body,
                            span=self._span(start, end_span))
        end = self.expect(";")
        return S.SWhile(cond=cond, invariant=invariant, body=[],
                        span=self._span(start, end))

    def _parse_loop_cond(self) -> S.LoopCond:
        t = self.tok
        if t[TEXT] == "[":
            loc, mode = self._parse_access(READ_MODES, "read")
            op = self._parse_cmp_op()
            return S.LoopCond(kind="read", mode=mode, loc=loc, op=op, rhs=self.parse_expr())
        if t[KIND] == "name" and t[TEXT].startswith("CAS_"):
            tau, loc, (expected, newval) = self._parse_rmw(2)
            op = self._parse_cmp_op()
            return S.LoopCond(kind="cas", mode=tau, loc=loc, op=op, rhs=self.parse_expr(),
                              expected=expected, newval=newval)
        return S.LoopCond(kind="pure", expr=self.parse_expr())

    def _parse_cmp_op(self) -> str:
        if S.PREC.get(self.tok[TEXT]) == S.CMP_PREC:
            return self.next()[TEXT]
        raise self._error("expected a comparison operator")

    def _parse_if(self) -> S.Stmt:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._parse_block()
        els: list[S.Stmt] = []
        if self.accept("else"):
            els = self._parse_block()
        end_tok = self.toks[self.pos - 1]
        return S.SIf(cond=cond, then=then, els=els, span=self._span(start, end_tok))

    def _parse_par(self) -> S.Stmt:
        start = self.expect("par")
        self.expect("{")
        threads: list[S.Thread] = []
        while self.at("thread"):
            tstart = self.next()
            pre, post, has_spec = self._parse_spec()
            body = self._parse_block()
            threads.append(S.Thread(pre=pre, post=post, body=body,
                                    has_spec=has_spec, span=token_span(tstart)))
        end = self.expect("}")
        if not threads:
            raise self._error("par block needs at least one thread", token_span(start))
        return S.SPar(threads=threads, span=self._span(start, end))

    def _parse_invref(self) -> S.InvRef:
        names = [self.expect_name()]
        while self.accept("&&"):
            names.append(self.expect_name())
        return tuple(names)

    # -- assertions -----------------------------------------------------------

    def parse_assertion(self) -> S.Assertion:
        parts = [self._parse_assertion_term()]
        while self.accept("&&"):
            parts.append(self._parse_assertion_term())
        return S.star(parts)

    def _parse_assertion_term(self) -> S.Assertion:
        t = self.tok
        kind, text, _, _ = t
        span = token_span(t)
        if text in _RESOURCES:
            self.next()
            loc, inv = self._paren_loc_inv() if text in _WITH_INV else (self._paren_name(), ())
            return S.AResource(span, text, loc, inv)
        if text in ("Up", "Down"):
            self._nest()
            self.next()
            self.expect("(")
            body = self.parse_assertion()
            self.expect(")")
            self.depth -= 1
            return S.AModal(span, text, body)
        if text == "(":
            start = self.pos
            self._nest()
            self.next()
            inner = self.parse_assertion()
            self.depth -= 1
            parts = inner.parts if isinstance(inner, S.AStar) else (inner,)
            if all(isinstance(p, S.APure) for p in parts) and (
                    self.at("||") or len(parts) > 1 and self.at(")")
                    and _extends_fact(self.toks[self.pos + 1][TEXT])):
                # "(a || b)", "(a && b) ==> c": pure facts in parentheses have
                # the full expression grammar, so read them again as one
                # expression when they are not a star on their own
                self.pos, self.tok = start, t
                pure = S.APure(expr=self.parse_expr(no_bool=True), span=span)
                return self._pure_tail(pure, span)
            self.expect(")")
            if not isinstance(inner, S.APure):
                return inner
            # "(e) == e2" and friends: the parentheses belonged to a pure
            # expression, so keep parsing at the expression level
            expr, _ = self._parse_binary(S.CMP_PREC, inner.expr, _height(inner.expr))
            if expr is not inner.expr:
                inner = S.APure(expr=expr, span=span)
            return self._pure_tail(inner, span)
        if kind == "name" and self.toks[self.pos + 1][TEXT] == "|->":
            self.next()
            self.next()
            value = S.EAny() if self.accept("_") else self.parse_expr(no_bool=True)
            frac = self.parse_expr(no_bool=True) if self.accept("@") else None
            return S.APointsTo(loc=text, value=value, frac=frac, span=span)
        if kind == "name" and text in self.defines:
            return self._expand_define(text, span)
        return self._pure_tail(S.APure(expr=self.parse_expr(no_bool=True), span=span), span)

    def _pure_tail(self, pure: S.APure, span: Span) -> S.Assertion:
        """``pure ==> aterm``, ``pure ? aterm : aterm``, or ``pure`` alone."""
        if self.at("==>"):
            self._nest()
            self.next()
            body = self._parse_assertion_term()
            self.depth -= 1
            return S.AImplies(cond=pure.expr, body=body, span=span)
        if self.at("?"):
            self._nest()
            self.next()
            then = self._parse_assertion_term()
            self.expect(":")
            els = self._parse_assertion_term()
            self.depth -= 1
            return S.ACond(cond=pure.expr, then=then, els=els, span=span)
        return pure

    def _expand_define(self, name: str, span: Span) -> S.Assertion:
        self.next()
        d = self.defines[name]
        args: list[S.Expr] = []
        if d.params:
            args = self._parse_args()
        if len(args) != len(d.params):
            raise self._error(
                f"macro {name!r} expects {len(d.params)} argument(s), got {len(args)}",
                span)
        try:
            body = S.subst_assertion(d.body, dict(zip(d.params, args)))
        except ValueError as exc:
            raise self._error(str(exc), span)
        if self.depth + _height(body) > MAX_NESTING:
            raise self._error(f"macro {name!r} expands deeper than {MAX_NESTING} levels",
                              span)
        def at_use(n):
            # diagnostics about the expansion point at its use, not at the
            # define; and a pure fact that an argument made a top-level `&&`
            # is a star of facts, as if the argument had been written in place
            n = n.replace(span=span)
            if isinstance(n, S.APure) and isinstance(n.expr, S.EBin) and n.expr.op == "&&":
                return S.star([at_use(S.APure(expr=e, span=span))
                               for e in (n.expr.left, n.expr.right)])
            return S.star(n.parts) if isinstance(n, S.AStar) else n

        return S.map_assertion(body, None, on_node=at_use)

    # -- expressions ------------------------------------------------------------

    def parse_expr(self, no_bool: bool = False) -> S.Expr:
        """An expression; with ``no_bool``, one whose top level has no ``&&``
        or ``||``, since in an assertion ``&&`` is the separating conjunction.
        Inside parentheses the full grammar is available either way."""
        return self._parse_binary(S.CMP_PREC if no_bool else 1)[0]

    def _parse_binary(self, min_prec: int, lhs: Optional[S.Expr] = None,
                      height: int = 0) -> tuple[S.Expr, int]:
        """Precedence climbing over ``S.PREC`` (Norvell): extend ``lhs``, of
        the given height, or else the next operand, with every operator that
        binds at least ``min_prec``.  After an operator of level p only levels
        up to p may follow here (tighter ones went to the recursive call), and
        after a comparison only looser ones, so that comparisons do not
        chain.  Returns the expression and its height."""
        if lhs is None:
            lhs, height = self._parse_unary()
        max_prec = float("inf")
        while True:
            t = self.tok
            op = t[TEXT]
            p = S.PREC.get(op, 0)
            if not min_prec <= p <= max_prec:
                return lhs, height
            self.next()
            rhs, rhs_height = self._parse_binary(p + 1)
            lhs = S.EBin(op, lhs, rhs)
            height = (height if height > rhs_height else rhs_height) + 1
            if self.depth + height > MAX_NESTING:
                raise self._error(f"nesting deeper than {MAX_NESTING} levels", token_span(t))
            max_prec = p - 1 if p == S.CMP_PREC else p

    def _parse_unary(self) -> tuple[S.Expr, int]:
        """An operand and its height."""
        kind, text, _, _ = self.tok
        if kind == "int":
            if len(text) > MAX_INT_DIGITS:
                raise self._error(f"integer literal longer than {MAX_INT_DIGITS} digits")
            self.next()
            return S.EInt(int(text)), 0
        if kind == "name":
            self.next()
            if text in ("true", "false"):
                return S.EBool(text == "true"), 0
            return (S.EInvVal() if text == self.inv_param else S.EVar(text)), 0
        if text in ("-", "!"):
            self._nest()
            self.next()
            operand, height = self._parse_unary()
            e, height = S.EUn(text, operand), height + 1
        elif text == "(":
            self._nest()
            self.next()
            e, height = self._parse_binary(1)
            self.expect(")")
        else:
            raise self._error(f"expected an expression, found {text!r}")
        self.depth -= 1
        return e, height


def _height(a) -> int:
    """The height of an assertion or expression tree, expressions included:
    a leaf has height 0."""
    height, stack = 0, [(a, 0)]
    while stack:
        x, level = stack.pop()
        height = max(height, level)
        if isinstance(x, S.EBin):
            subs = (x.left, x.right)
        elif isinstance(x, S.EUn):
            subs = (x.operand,)
        elif isinstance(x, S.Expr):
            subs = ()
        else:
            exprs = (getattr(x, f, None) for f in ("expr", "cond", "value", "frac"))
            subs = S.sub_assertions(x) + tuple(e for e in exprs if e is not None)
        stack += [(y, level + 1) for y in subs]
    return height


def parse(source: str) -> tuple[S.Program, list[Diagnostic]]:
    """Parse a program.  Always returns; problems come back as diagnostics."""
    parser = Parser(source)
    program = parser.parse_program()
    return program, parser.diags


# ---------------------------------------------------------------------------
# Mode checking / classification
# ---------------------------------------------------------------------------

# use tag of the location named by each kind of location resource
_RESOURCE_USE = {"Uninit": "owns", "Init": "atomic_use", "Acq": "acq_use",
                 "Rel": "atomic_use", "RMWAcq": "rmw_use"}


class _Evidence(S.Record):
    __slots__ = ("alloc", "uses")

    def __init__(self, alloc: dict[str, Span] = None, uses: dict[str, Span] = None):
        self.alloc = {} if alloc is None else alloc   # allocated class -> first span
        self.uses = {} if uses is None else uses      # use tag -> first span


class Scope(S.Record, hashable=True):
    """The variables a statement list mentions and binds, nested bodies
    included.  `uses` is shallow: it does not follow the invariants that
    annotations name."""
    __slots__ = ("uses", "binds")

    def __init__(self, uses: frozenset, binds: frozenset):
        self.uses = uses
        self.binds = binds


class ProcInfo(S.Record):
    __slots__ = ("classes", "declared", "scopes", "specs", "calls")

    def __init__(self, classes: dict[str, str] = None, declared: set[str] = None,
                 scopes: dict[int, Scope] = None, specs: dict[int, frozenset] = None,
                 calls: list = None):
        self.classes = {} if classes is None else classes
        self.declared = set() if declared is None else declared
        self.scopes = {} if scopes is None else scopes    # id(body) -> its scope
        self.specs = {} if specs is None else specs       # id(spec) -> its variables
        self.calls = [] if calls is None else calls       # well-formed S.SCall sites, in order

    def scope(self, body: list) -> Scope:
        """The scope of a procedure, thread, loop or branch body of this
        procedure's tree."""
        return self.scopes[id(body)]

    def spec_vars(self, spec: S.Assertion) -> frozenset:
        """The variables of a pre- or postcondition, of the procedure or of
        a thread of its tree, and of the invariant bodies it reaches."""
        return self.specs[id(spec)]


class CheckedProgram(S.Record):
    __slots__ = ("program", "info", "diagnostics", "inv_sites")

    def __init__(self, program: S.Program, info: dict[str, ProcInfo],
                 diagnostics: list[Diagnostic], inv_sites: list[tuple[S.InvRef, Span]]):
        self.program = program
        self.info = info
        self.diagnostics = diagnostics
        # the invariant reference of every annotation of every procedure, with
        # its span, in source order: specs, allocations, rewrites, fences, loop
        # invariants and thread specs (not invariant bodies)
        self.inv_sites = inv_sites


class _Classifier:
    def __init__(self, program: S.Program):
        self.program = program
        self.diags: list[Diagnostic] = []
        self.inv_by_name = {d.name: d for d in program.invariants}
        self.procs = {p.name: p for p in program.procedures}
        self.inv_sites: list[tuple[S.InvRef, Span]] = []

    def run(self) -> CheckedProgram:
        info: dict[str, ProcInfo] = {}
        evidence: dict[str, dict[str, _Evidence]] = {}
        for proc in self.program.procedures:
            info[proc.name] = ProcInfo()
            evidence[proc.name] = self._collect_proc(proc, info[proc.name])
        self._propagate_calls(info, evidence)
        for proc in self.program.procedures:
            pi = info[proc.name]
            for var, ev in sorted(evidence[proc.name].items()):
                pi.classes[var] = self._resolve(ev, report=True, var=var)
            self._check_declared(proc, pi)
        self._check_call_args(info)
        self._check_posts(info)
        self._check_fractions()
        self.diags.sort(key=lambda d: (d.span.line, d.span.col, d.kind))
        return CheckedProgram(self.program, info, self.diags, self.inv_sites)

    def _propagate_calls(self, info: dict[str, ProcInfo],
                         evidence: dict[str, dict[str, _Evidence]]) -> None:
        """Give each actual argument and call target the use tag of the
        callee's class for its formal, until nothing changes.  Tags are only
        ever added, so this ends."""
        changed = any(pi.calls for pi in info.values())
        while changed:
            changed = False
            resolved = {
                name: {v: self._resolve(ev, report=False) for v, ev in evs.items()}
                for name, evs in evidence.items()
            }
            for name, pi in info.items():
                for st in pi.calls:
                    callee = self.procs[st.callee]
                    links = [(a.name, f.name) for f, a in zip(callee.params, st.args)
                             if isinstance(a, S.EVar)]
                    if st.target and callee.returns:
                        links.append((st.target, callee.returns[0].name))
                    for var, formal in links:
                        tag = self._class_use_tag(resolved[callee.name].get(formal, UNKNOWN))
                        ev = evidence[name][var]
                        if tag and tag not in ev.uses:
                            ev.uses[tag] = st.span
                            changed = True

    @staticmethod
    def _class_use_tag(cls: str) -> Optional[str]:
        return {NA: "owns", ACQ: "acq_use", RMW: "rmw_use",
                GHOST: "owns", ATOMIC: "atomic_use", VALUE: "int_use"}.get(cls)

    # -- the statement walk -----------------------------------------------------

    def _collect_proc(self, proc: S.Procedure, pi: ProcInfo) -> dict[str, _Evidence]:
        """Walk a procedure once.  Returns each variable's evidence; records on
        `pi` the scope of every body, the variables of every spec, the call
        sites and the declared names, and appends the procedure's invariant
        sites to `self.inv_sites`."""
        ev: dict[str, _Evidence] = {}
        uses: set[str] = set()      # of the innermost body being walked
        binds: set[str] = set()
        declared = {p.name for p in proc.params + proc.returns}

        def E(var: str) -> _Evidence:
            e = ev.get(var)
            return e if e is not None else ev.setdefault(var, _Evidence())

        def use(var: str, tag: Optional[str], span: Span, shallow: bool = True) -> None:
            e = E(var)
            if tag:
                e.uses.setdefault(tag, span)
            if shallow:
                uses.add(var)

        def expr_use(e: S.Expr, span: Span) -> None:
            for x in S.walk_expr(e):
                if isinstance(x, S.EVar):
                    use(x.name, "int_use", span)

        def assertion_use(a: S.Assertion, span: Span, found: set,
                          walked: Optional[set] = None) -> None:
            """Use the variables of an annotation and of the invariant bodies
            it reaches, and add them to `found`.  `walked`, the bodies walked
            for the annotation so far, is None for the annotation itself."""
            direct = walked is None
            if direct:
                walked = set()
            for x in S.walk_assertion(a):
                if isinstance(x, S.APure):
                    value_use(x.expr, span, direct, found)
                elif isinstance(x, S.APointsTo):
                    use(x.loc, "owns", x.span, direct)
                    found.add(x.loc)
                    value_use(x.value, span, direct, found)
                    if direct:
                        self._check_fraction(x)
                elif isinstance(x, (S.AImplies, S.ACond)):
                    value_use(x.cond, span, direct, found)
                elif isinstance(x, S.AResource):
                    use(x.loc, _RESOURCE_USE[x.kind], x.span, direct)
                    found.add(x.loc)
                    if x.inv:
                        if direct:
                            self.inv_sites.append((x.inv, x.span))
                        inv_use(x.inv, span, found, walked)

        def value_use(e: S.Expr, span: Span, direct: bool, found: set) -> None:
            for x in S.walk_expr(e):
                if isinstance(x, S.EVar):
                    use(x.name, "int_use", span, direct)
                    found.add(x.name)

        def inv_use(inv: S.InvRef, span: Span, found: set, walked: set) -> None:
            # each body once per annotation, however many paths reach it
            for name in inv:
                if name in walked:
                    continue
                walked.add(name)
                decl = self.inv_by_name.get(name)
                if decl is None:
                    self.diags.append(Diagnostic(
                        SYNTAX_ERROR, span, rule="well-formedness",
                        message=f"unknown invariant {name!r}"))
                    continue
                assertion_use(decl.body, span, found, walked)

        def spec_use(spec: S.Assertion, span: Span) -> frozenset:
            found: set[str] = set()
            assertion_use(spec, span, found)
            pi.specs[id(spec)] = out = frozenset(found)
            return out

        def inv_site(inv: S.InvRef, span: Span) -> None:
            self.inv_sites.append((inv, span))
            inv_use(inv, span, set(), set())

        def bind(var: str, tag: Optional[str], span: Span) -> None:
            use(var, tag, span)
            binds.add(var)

        def block(stmts: list) -> None:
            nonlocal uses, binds
            outer_uses, outer_binds = uses, binds
            uses, binds = set(), set()
            for st in stmts:
                stmt(st)
            pi.scopes[id(stmts)] = Scope(frozenset(uses), frozenset(binds))
            outer_uses |= uses
            outer_binds |= binds
            uses, binds = outer_uses, outer_binds

        def stmt(st: S.Stmt) -> None:
            if isinstance(st, S.SAlloc):
                # an allocation's kind is the class it gives its location
                E(st.var).alloc.setdefault(st.kind, st.span)
                bind(st.var, None, st.span)
                if st.inv:
                    inv_site(st.inv, st.span)
            elif isinstance(st, S.SWrite):
                use(st.loc, "na_access" if st.mode == "na" else "atomic_use", st.span)
                expr_use(st.value, st.span)
            elif isinstance(st, S.SRead):
                use(st.loc, "na_access" if st.mode == "na" else "acq_use", st.span)
                bind(st.target, "int_use", st.span)
            elif isinstance(st, (S.SCas, S.SFaa)):
                use(st.loc, "rmw_use", st.span)
                bind(st.target, "int_use", st.span)
                if isinstance(st, S.SCas):
                    expr_use(st.expected, st.span)
                    expr_use(st.newval, st.span)
                else:
                    expr_use(st.delta, st.span)
            elif isinstance(st, S.SRewrite):
                use(st.loc, "acq_use", st.span)
                inv_site(st.old, st.span)
                inv_site(st.new, st.span)
            elif isinstance(st, S.SFenceRel):
                assertion_use(st.assertion, st.span, set())
            elif isinstance(st, S.SWhile):
                c = st.cond
                if c.kind == "pure":
                    expr_use(c.expr, st.span)
                elif c.kind == "read":
                    use(c.loc, "na_access" if c.mode == "na" else "acq_use", st.span)
                    expr_use(c.rhs, st.span)
                else:
                    use(c.loc, "rmw_use", st.span)
                    expr_use(c.expected, st.span)
                    expr_use(c.newval, st.span)
                    expr_use(c.rhs, st.span)
                if st.invariant is not None:
                    assertion_use(st.invariant, st.span, set())
                    if c.kind != "pure":
                        self.diags.append(Diagnostic(
                            SYNTAX_ERROR, st.span, rule="loop",
                            message="annotated loops need a pure condition; move "
                                    "the atomic access into the loop body"))
                block(st.body)
            elif isinstance(st, S.SIf):
                expr_use(st.cond, st.span)
                block(st.then)
                block(st.els)
            elif isinstance(st, S.SPar):
                for th in st.threads:
                    # logical variables bound by a thread precondition are in scope
                    declared.update(spec_use(th.pre, th.span))
                    spec_use(th.post, th.span)
                for th in st.threads:
                    block(th.body)
            elif isinstance(st, S.SCall):
                callee = self.procs.get(st.callee)
                if callee is not None and len(st.args) == len(callee.params):
                    pi.calls.append(st)
                else:
                    self.diags.append(Diagnostic(
                        SYNTAX_ERROR, st.span, rule="call",
                        message=f"unknown procedure {st.callee!r}" if callee is None
                        else f"{st.callee!r} expects {len(callee.params)} "
                             f"argument(s), got {len(st.args)}"))
                for a in st.args:
                    if isinstance(a, S.EVar):
                        use(a.name, None, st.span)
                    else:
                        expr_use(a, st.span)
                if st.target:
                    bind(st.target, None, st.span)
            elif isinstance(st, S.SAssign):
                bind(st.var, "int_use", st.span)
                expr_use(st.value, st.span)
            elif isinstance(st, S.SFree):
                use(st.var, "owns", st.span)

        for p in proc.params + proc.returns:
            E(p.name)
            if p.ghost:
                E(p.name).alloc.setdefault(GHOST, proc.span)
        # logical variables bound by the precondition are in scope
        declared |= spec_use(proc.pre, proc.span)
        spec_use(proc.post, proc.span)
        block(proc.body)
        pi.declared = declared | pi.scope(proc.body).binds
        return ev

    # -- resolution --------------------------------------------------------------

    def _resolve(self, ev: _Evidence, report: bool, var: str = "") -> str:
        alloc_kinds = set(ev.alloc)
        uses = ev.uses

        def diag(kind: str, span: Span, msg: str) -> None:
            if report:
                self.diags.append(Diagnostic(kind, span, rule="mode-check", message=msg))

        if len(alloc_kinds) > 1:
            diag(MIXED_MODE_ACCESS, next(iter(ev.alloc.values())),
                 f"location {var!r} allocated with conflicting kinds")
            return sorted(alloc_kinds)[0]
        base = next(iter(alloc_kinds)) if alloc_kinds else None
        if base is None:
            if "rmw_use" in uses and "acq_use" in uses:
                diag(CAS_ON_ACQ_LOCATION, uses["rmw_use"],
                     f"location {var!r} used both for atomic reads and RMW updates")
                return RMW
            if "rmw_use" in uses:
                base = RMW
            elif "acq_use" in uses:
                base = ACQ
            elif "atomic_use" in uses:
                base = ATOMIC
            elif "na_access" in uses or "owns" in uses:
                base = NA
            else:
                base = VALUE if "int_use" in uses else UNKNOWN
        atomic_tags = [t for t in ("acq_use", "rmw_use", "atomic_use") if t in uses]
        owning_tags = [t for t in ("na_access", "owns") if t in uses]
        if base in (NA, GHOST):
            for t in atomic_tags:
                kind = ATOMIC_ACCESS_TO_NON_ATOMIC if base == GHOST else MIXED_MODE_ACCESS
                diag(kind, uses[t], f"atomic use of {base} location {var!r}")
        if base == ACQ:
            if "rmw_use" in uses:
                diag(CAS_ON_ACQ_LOCATION, uses["rmw_use"],
                     f"RMW update of acquire-read location {var!r}")
            if "na_access" in uses:
                diag(MIXED_MODE_ACCESS, uses["na_access"],
                     f"non-atomic access to atomic location {var!r}")
        if base == RMW:
            if "acq_use" in uses:
                diag(CAS_ON_ACQ_LOCATION, uses["acq_use"],
                     f"atomic read of RMW location {var!r}")
            if "na_access" in uses:
                diag(MIXED_MODE_ACCESS, uses["na_access"],
                     f"non-atomic access to atomic location {var!r}")
        if base == ATOMIC and "na_access" in uses:
            diag(MIXED_MODE_ACCESS, uses["na_access"],
                 f"non-atomic access to atomic location {var!r}")
        if base in LOCATION_CLASSES and base not in (NA, GHOST) and "owns" in uses:
            diag(MIXED_MODE_ACCESS, uses["owns"],
                 f"points-to resource for atomic location {var!r}")
        if base in LOCATION_CLASSES and "int_use" in uses:
            diag(MIXED_MODE_ACCESS, uses["int_use"],
                 f"{var!r} used both as a location and as a value")
        return base

    # -- other well-formedness ----------------------------------------------------

    def _check_declared(self, proc: S.Procedure, pi: ProcInfo) -> None:
        # free variables of referenced invariants count as this scope's names
        used: set[str] = set(pi.classes)
        undeclared = sorted(v for v in used if v not in pi.declared
                            and pi.classes.get(v) not in (UNKNOWN,))
        for v in undeclared:
            self.diags.append(Diagnostic(
                SYNTAX_ERROR, proc.span, rule="well-formedness",
                message=f"variable {v!r} used in {proc.name!r} but never declared"))

    def _check_call_args(self, info: dict[str, ProcInfo]) -> None:
        """A location parameter, by its class in the callee, takes a variable."""
        for pi in info.values():
            for st in pi.calls:
                callee = self.procs[st.callee]
                classes = info[callee.name].classes
                for f, a in zip(callee.params, st.args):
                    if not isinstance(a, S.EVar) and classes.get(f.name) in LOCATION_CLASSES:
                        self.diags.append(Diagnostic(
                            SYNTAX_ERROR, st.span, rule="call",
                            message=f"location position for '{f.name}' needs a "
                                    "variable, got an expression"))

    def _check_posts(self, info: dict[str, ProcInfo]) -> None:
        for proc in self.program.procedures:
            pi = info[proc.name]
            allowed = {p.name for p in proc.params} | {p.name for p in proc.returns}
            allowed |= pi.spec_vars(proc.pre)
            extra = sorted(pi.spec_vars(proc.post) - allowed)
            if extra:
                self.diags.append(Diagnostic(
                    SYNTAX_ERROR, proc.span, rule="well-formedness",
                    message=f"postcondition of {proc.name!r} mentions "
                            f"{', '.join(repr(v) for v in extra)} not bound by "
                            "parameters, returns or the precondition"))

    def _check_fractions(self) -> None:
        """Fractions of invariant bodies; the walk checks those of annotations."""
        for d in self.program.invariants:
            for x in S.walk_assertion(d.body):
                if isinstance(x, S.APointsTo):
                    self._check_fraction(x)

    def _check_fraction(self, x: S.APointsTo) -> None:
        if x.frac is not None:
            try:
                fraction_amount(x.frac, x.span)
            except FrontendError as exc:
                self.diags.append(exc.diagnostic)


def fraction_amount(frac: S.Expr, span: Span) -> Optional[Fraction]:
    """The rational a fraction expression denotes, or None if symbolic.  A
    constant that divides by zero or lies outside (0, 1] is reported at span
    as a FrontendError."""
    try:
        k = const_fraction(frac)
    except ZeroDivisionError:
        message = f"fraction {S.pp_expr(frac)} divides by zero"
    else:
        if k is None or 0 < k <= 1:
            return k
        message = f"fraction {num_str(k)} outside (0, 1]"
    raise FrontendError(Diagnostic(SYNTAX_ERROR, span, rule="well-formedness",
                                   message=message))


def const_fraction(e: S.Expr) -> Optional[Fraction]:
    """Evaluate a fraction expression to a rational, or None if symbolic;
    a constant division by zero raises ZeroDivisionError."""
    if isinstance(e, S.EInt):
        return Fraction(e.value)
    if isinstance(e, S.EUn) and e.op == "-":
        v = const_fraction(e.operand)
        return -v if v is not None else None
    if isinstance(e, S.EBin) and e.op in ("+", "-", "*", "/"):
        l, r = const_fraction(e.left), const_fraction(e.right)
        if l is None or r is None:
            return None
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        return l / r
    return None


def mode_check(program: S.Program) -> CheckedProgram:
    """Classify every variable and report classification conflicts."""
    return _Classifier(program).run()
