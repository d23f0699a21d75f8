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
declaration after an error in a header or spec).  No name a program binds
may be ``true`` or ``false``, which an expression reads as literals.
``mode_check`` classifies every variable as a non-atomic location, an atomic
location (acquire-read or RMW flavour), a ghost location or a plain value,
and rejects programs that mix classifications for one variable, pass an
expression for a location parameter or give an annotated loop an atomic
condition.  The class rules are data, and no other module restates them:
``_CLASS_OF_USE`` gives the class each use implies, in precedence order,
``_USE_OF_CLASS`` the use a callee's class gives an actual argument, and
``_FORBIDDEN`` the uses each location class forbids, with their
diagnostics.  A ``define`` is
expanded where it is used, by ``syntax.instantiate``, which the encoder
also calls to instantiate a callee's spec at a call.

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

# The lexer scans one line at a time.  A match is the blanks before a token
# and then either a comment, which runs to the end of the line and leaves
# the second group empty, or the token: a name, an integer, an operator (the
# longer ones before their prefixes) or any other single character, which is
# a `bad` token.  Names and integers are ASCII.  The line's trailing blanks
# are cut off first, or the last of them would match as a `bad` token.
_TOKEN_RE = re.compile(r"""
    ([ \t\r]*)
    (?://.*
      | ([A-Za-z][A-Za-z0-9_]*|_[A-Za-z0-9_]+
         | [0-9]+
         | ==>|\|->|:=|==|!=|<=|>=|<<|>>|&&|\|\||[(){}\[\],;@?:+\-*/%&|^!<>=_]
         | .))
""", re.VERBOSE)
# a token's kind, from its first character; `_` alone is punct
_KIND_OF = {**dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "name"),
            **dict.fromkeys("0123456789", "int"),
            **dict.fromkeys("(){}[],;@?:+-*/%&|^!<>=", "punct")}

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
    append, findall, kind_of = toks.append, _TOKEN_RE.findall, _KIND_OF.get
    lines = source.split("\n")          # not splitlines(), which also splits at \r
    for line, text in enumerate(lines, 1):
        col = 1
        for blanks, tok in findall(text.rstrip(" \t\r")):
            col += len(blanks)
            if not tok:                 # a comment
                break
            kind = kind_of(tok[0]) if tok != "_" else "punct"
            if kind is None:
                diags.append(Diagnostic(SYNTAX_ERROR, Span(line, col, line, col + 1),
                                        message=f"unexpected character {tok!r}"))
            else:
                append((kind, tok, line, col))
            col += len(tok)
    append(("eof", "", len(lines), len(lines[-1]) + 1))
    return toks, diags


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


class _Define(S.Record):
    __slots__ = ("params", "body")


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
        # one node per distinct expression of the file: a leaf by its token
        # text, an operator node by its operator and operands' identities.
        # No pass mutates an expression, so the tree may share them.
        self.exprs: dict = {"true": S.TRUE_E, "false": S.FALSE_E}

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
        t = self.tok
        if t[TEXT] == text:         # a token with text is not eof
            self.pos += 1
            self.tok = self.toks[self.pos]
            return t
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
        self.expect("(")
        param = self._bound_name()
        self.expect(")")
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
                params.append(self._bound_name())
                if not self.accept(","):
                    break
            self.expect(")")
        self.expect("=")
        body = self.parse_assertion()
        self.expect(";")
        self.defines[name] = _Define(params, body)

    def _bound_name(self) -> str:
        """A name the program binds or reads as a location: a parameter of an
        invariant, a define or a procedure, a return, a statement's target,
        or the location of a statement, a resource or a points-to.  It is
        not ``true`` or ``false``, which an expression reads as a literal."""
        t = self.tok
        if t[KIND] != "name":
            raise self._error(f"expected a name, found {self._found()}")
        if t[TEXT] in ("true", "false"):
            raise self._error(f"a variable cannot be named {t[TEXT]!r}")
        self.pos += 1       # a name is not eof
        self.tok = self.toks[self.pos]
        return t[TEXT]

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
            out.append(S.Param(self._bound_name(), ghost))
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
        parse = _STMT_PARSERS.get(t[TEXT])
        if parse is not None:
            return parse(self)
        if t[KIND] == "name":
            return self._parse_assign_like(t)
        raise self._error(f"expected a statement, found {t[TEXT]!r}")

    def _parse_var_stmt(self) -> S.Stmt:
        """``kw ( NAME ) ;`` or ``kw ( NAME , invref ) ;``: an allocation or
        a free."""
        start = self.next()
        text = start[TEXT]
        kind = _VAR_STMTS[text]
        var, inv = self._paren_loc(text in _WITH_INV)
        span = self._span(start, self.expect(";"))
        return S.SAlloc(span, var, kind, inv) if kind else S.SFree(span, var)

    def _parse_bare_stmt(self) -> S.Stmt:
        start = self.next()
        end = self.expect(";")
        return _BARE_STMTS[start[TEXT]](span=self._span(start, end))

    def _parse_fence_rel(self) -> S.Stmt:
        start = self.next()
        self.expect("(")
        a = self.parse_assertion()
        self.expect(")")
        end = self.expect(";")
        return S.SFenceRel(assertion=a, span=self._span(start, end))

    def _parse_call(self, start: Optional[Token] = None,
                    target: Optional[str] = None) -> S.Stmt:
        """``call NAME ( args ) ;``; with a ``target``, the statement began
        at ``start`` with ``target :=``."""
        call = self.next()
        callee = self.expect_name()
        args = self._parse_args()
        end = self.expect(";")
        return S.SCall(target=target, callee=callee, args=args,
                       span=self._span(start or call, end))

    def _span(self, start: Token, end: Token) -> Span:
        # tuple.__new__ skips the named tuple's own __new__, a Python call
        return tuple.__new__(Span, (start[LINE], start[COL], end[LINE], end[COL] + len(end[TEXT])))

    def _paren_loc(self, with_inv: bool) -> tuple[str, S.InvRef]:
        """``( NAME )``, or ``( NAME , invref )`` if ``with_inv``: the
        location's name and the invariant reference."""
        self.expect("(")
        loc = self._bound_name()
        inv: S.InvRef = ()
        if with_inv:
            self.expect(",")
            inv = self._parse_invref()
        self.expect(")")
        return loc, inv

    def _parse_access(self, allowed: tuple[str, ...], what: str) -> tuple[str, str]:
        """``[ NAME ] _mode``: the location and the mode, which must be allowed."""
        self.expect("[")
        loc = self._bound_name()
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

    def _parse_assign_like(self, start: Token) -> S.Stmt:
        """``NAME := ...``, the name being ``start``, the current token."""
        target = self._bound_name()
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
            return self._parse_call(start, target)
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
        loc = self._bound_name()
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
        loc, old = self._paren_loc(True)
        self.expect("to")
        self.expect("Acq")
        loc2, new = self._paren_loc(True)
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
            loc, inv = self._paren_loc(text in _WITH_INV)
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
            expr, _ = self._parse_binary(S.CMP_PREC, inner.expr, S.height(inner.expr))
            if expr is not inner.expr:
                inner = S.APure(expr=expr, span=span)
            return self._pure_tail(inner, span)
        if kind == "name" and self.toks[self.pos + 1][TEXT] == "|->":
            self._bound_name()
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
        mapping = dict(zip(d.params, args))
        try:
            body, height = S.instantiate(d.body, mapping, span)
        except ValueError as exc:
            raise self._error(str(exc), span)
        if self.depth + height > MAX_NESTING:
            raise self._error(f"macro {name!r} expands deeper than {MAX_NESTING} levels",
                              span)
        return body

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
        prec, toks = S.PREC, self.toks
        max_prec = float("inf")
        while True:
            t = self.tok
            op = t[TEXT]
            p = prec.get(op, 0)
            if not min_prec <= p <= max_prec:
                return lhs, height
            pos = self.pos + 1
            self.pos, self.tok = pos, toks[pos]
            if toks[pos][KIND] in ("name", "int") and prec.get(toks[pos + 1][TEXT], 0) <= p:
                # a leaf that no tighter operator follows: the recursive
                # call would return it at once, so read it here
                rhs, rhs_height = self._parse_unary()
            else:
                rhs, rhs_height = self._parse_binary(p + 1)
            key = (op, id(lhs), id(rhs))
            e = self.exprs.get(key)
            if e is None:
                e = self.exprs[key] = S.EBin(op, lhs, rhs)
            lhs = e
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
            self.pos += 1
            self.tok = self.toks[self.pos]
            e = self.exprs.get(text)
            if e is None:
                e = self.exprs[text] = S.EInt(int(text))
            return e, 0
        if kind == "name":
            self.pos += 1
            self.tok = self.toks[self.pos]
            if text == self.inv_param:
                return S.EInvVal(), 0
            e = self.exprs.get(text)
            if e is None:
                e = self.exprs[text] = S.EVar(text)
            return e, 0
        if text in ("-", "!"):
            self._nest()
            self.next()
            operand, height = self._parse_unary()
            key = (text, id(operand))
            e = self.exprs.get(key)
            if e is None:
                e = self.exprs[key] = S.EUn(text, operand)
            height += 1
        elif text == "(":
            self._nest()
            self.next()
            e, height = self._parse_binary(1)
            self.expect(")")
        else:
            raise self._error(f"expected an expression, found {text!r}")
        self.depth -= 1
        return e, height


# the statement each keyword starts; any other name starts an assignment,
# a read, a CAS, a FAA or a call whose result is assigned
_STMT_PARSERS = {
    **dict.fromkeys(_VAR_STMTS, Parser._parse_var_stmt),
    **dict.fromkeys(_BARE_STMTS, Parser._parse_bare_stmt),
    "fence_rel": Parser._parse_fence_rel, "rewrite": Parser._parse_rewrite,
    "while": Parser._parse_while, "if": Parser._parse_if, "par": Parser._parse_par,
    "call": Parser._parse_call, "[": Parser._parse_write,
}


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

# the class each use implies where nothing allocates; the first use here wins
_CLASS_OF_USE = {"rmw_use": RMW, "acq_use": ACQ, "atomic_use": ATOMIC,
                 "na_access": NA, "owns": NA, "int_use": VALUE}

# the use tag a callee's class for a formal gives the actual argument
_USE_OF_CLASS = {NA: "owns", ACQ: "acq_use", RMW: "rmw_use", GHOST: "owns",
                 ATOMIC: "atomic_use", VALUE: "int_use"}

# the uses each location class forbids, in report order: (tag, kind, message)
_ATOMIC_USES = ("acq_use", "rmw_use", "atomic_use")
_NA_ACCESS = ("na_access", MIXED_MODE_ACCESS, "non-atomic access to atomic location {var!r}")
_OWNS = ("owns", MIXED_MODE_ACCESS, "points-to resource for atomic location {var!r}")
_INT_USE = ("int_use", MIXED_MODE_ACCESS, "{var!r} used both as a location and as a value")
_FORBIDDEN = {
    NA: tuple((t, MIXED_MODE_ACCESS, "atomic use of na location {var!r}")
              for t in _ATOMIC_USES) + (_INT_USE,),
    GHOST: tuple((t, ATOMIC_ACCESS_TO_NON_ATOMIC, "atomic use of ghost location {var!r}")
                 for t in _ATOMIC_USES) + (_INT_USE,),
    ACQ: (("rmw_use", CAS_ON_ACQ_LOCATION, "RMW update of acquire-read location {var!r}"),
          _NA_ACCESS, _OWNS, _INT_USE),
    RMW: (("acq_use", CAS_ON_ACQ_LOCATION, "atomic read of RMW location {var!r}"),
          _NA_ACCESS, _OWNS, _INT_USE),
    ATOMIC: (_NA_ACCESS, _OWNS, _INT_USE),
}


def _class_of(ev: _Evidence) -> str:
    """The allocated class (the first by name), else that of the first use in _CLASS_OF_USE."""
    if ev.alloc:
        return min(ev.alloc)
    for tag, cls in _CLASS_OF_USE.items():
        if tag in ev.uses:
            return cls
    return UNKNOWN


class _Evidence(S.Record):
    __slots__ = ("alloc", "uses")
    _defaults = {"alloc": {},    # allocated class -> first span
                 "uses": {}}     # use tag -> first span


class Scope(S.Record):
    """The variables a statement list mentions and binds, nested bodies
    included.  `uses` is shallow: it does not follow the invariants that
    annotations name."""
    __slots__ = ("uses", "binds")


class ProcInfo(S.Record):
    __slots__ = ("classes", "declared", "scopes", "specs", "calls")
    _defaults = {"classes": {}, "declared": set(),
                 "scopes": {},    # id(body) -> its scope
                 "specs": {},     # id(spec) -> its variables
                 "calls": []}     # well-formed S.SCall sites, in order

    def scope(self, body: list) -> Scope:
        """The scope of a procedure, thread, loop or branch body of this
        procedure's tree."""
        return self.scopes[id(body)]

    def spec_vars(self, spec: S.Assertion) -> frozenset:
        """The variables of a pre- or postcondition, of the procedure or of
        a thread of its tree, and of the invariant bodies it reaches."""
        return self.specs[id(spec)]


class CheckedProgram(S.Record):
    # inv_sites: the invariant reference of every annotation of every
    # procedure, with its span, in source order: specs, allocations, rewrites,
    # fences, loop invariants and thread specs (not invariant bodies)
    __slots__ = ("program", "info", "diagnostics", "inv_sites")


class _Classifier:
    def __init__(self, program: S.Program):
        self.program = program
        self.diags: list[Diagnostic] = []
        self.inv_by_name = {d.name: d for d in program.invariants}
        self.procs = {p.name: p for p in program.procedures}
        self.inv_sites: list[tuple[S.InvRef, Span]] = []
        self.reached: set[str] = set()    # invariant names an annotation reaches

    def run(self) -> CheckedProgram:
        info: dict[str, ProcInfo] = {}
        evidence: dict[str, dict[str, _Evidence]] = {}
        for proc in self.program.procedures:
            info[proc.name] = ProcInfo()
            evidence[proc.name] = _ProcWalker(self, info[proc.name]).walk(proc)
        self._propagate_calls(info, evidence)
        for proc in self.program.procedures:
            pi = info[proc.name]
            for var, ev in sorted(evidence[proc.name].items()):
                pi.classes[var] = cls = _class_of(ev)
                self._report_conflicts(var, ev, cls)
            self._check_declared(proc, pi)
        self._check_call_args(info)
        self._check_posts(info)
        self._check_bodies()
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
            resolved = {name: {v: _class_of(ev) for v, ev in evs.items()}
                        for name, evs in evidence.items()}
            for name, pi in info.items():
                for st in pi.calls:
                    callee = self.procs[st.callee]
                    links = [(a.name, f.name) for f, a in zip(callee.params, st.args)
                             if isinstance(a, S.EVar)]
                    if st.target and callee.returns:
                        links.append((st.target, callee.returns[0].name))
                    for var, formal in links:
                        tag = _USE_OF_CLASS.get(resolved[callee.name].get(formal))
                        ev = evidence[name][var]
                        if tag and tag not in ev.uses:
                            ev.uses[tag] = st.span
                            changed = True

    # -- conflicts -----------------------------------------------------------------

    def _report_conflicts(self, var: str, ev: _Evidence, cls: str) -> None:
        uses = ev.uses
        if len(ev.alloc) > 1:
            found = [(MIXED_MODE_ACCESS, next(iter(ev.alloc.values())),
                      "location {var!r} allocated with conflicting kinds")]
        elif not ev.alloc and "rmw_use" in uses and "acq_use" in uses:
            found = [(CAS_ON_ACQ_LOCATION, uses["rmw_use"],
                      "location {var!r} used both for atomic reads and RMW updates")]
        else:
            found = [(kind, uses[tag], msg) for tag, kind, msg in _FORBIDDEN.get(cls, ())
                     if tag in uses]
        self.diags += [Diagnostic(kind, span, rule="mode-check", message=msg.format(var=var))
                       for kind, span, msg in found]

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

    def _check_bodies(self) -> None:
        """Fractions of invariant bodies, and the invariant names of the bodies
        no annotation reaches, each at its resource; the walk checks the
        fractions of annotations and the names of the bodies they reach."""
        for d in self.program.invariants:
            for x in S.walk_assertion(d.body):
                if isinstance(x, S.APointsTo):
                    self._check_fraction(x)
                elif isinstance(x, S.AResource) and d.name not in self.reached:
                    for name in x.inv:
                        if name not in self.inv_by_name:
                            self.diags.append(Diagnostic(
                                SYNTAX_ERROR, x.span, rule="well-formedness",
                                message=f"unknown invariant {name!r}"))

    def _check_fraction(self, x: S.APointsTo) -> None:
        if x.frac is not None:
            try:
                fraction_amount(x.frac, x.span)
            except FrontendError as exc:
                self.diags.append(exc.diagnostic)


class _ProcWalker:
    """The mode check's one walk of one procedure.  It gathers each
    variable's evidence; records on the procedure's ``ProcInfo`` the scope of
    every body, the variables of every spec, the call sites and the declared
    names; and appends the procedure's invariant sites to the classifier's.

    Statements dispatch on their class through ``_STMTS``; expressions and
    assertions are walked by plain recursion on their exact class."""

    def __init__(self, classifier: _Classifier, pi: ProcInfo):
        self.c = classifier
        self.pi = pi
        self.ev: dict[str, _Evidence] = {}
        self.uses: set[str] = set()      # of the innermost body being walked
        self.binds: set[str] = set()
        self.declared: set[str] = set()

    def walk(self, proc: S.Procedure) -> dict[str, _Evidence]:
        """Walk the procedure; returns each variable's evidence."""
        self.declared = {p.name for p in proc.params + proc.returns}
        for p in proc.params + proc.returns:
            self.use(p.name, None, proc.span, shallow=False)
            if p.ghost:
                self.ev[p.name].alloc.setdefault(GHOST, proc.span)
        # logical variables bound by the precondition are in scope
        self.declared |= self.spec_use(proc.pre, proc.span)
        self.spec_use(proc.post, proc.span)
        self.block(proc.body)
        self.pi.declared = self.declared | self.pi.scope(proc.body).binds
        return self.ev

    # -- uses ---------------------------------------------------------------------

    def use(self, var: str, tag: Optional[str], span: Span, shallow: bool = True) -> None:
        e = self.ev.get(var)
        if e is None:
            e = self.ev[var] = _Evidence()
        if tag:
            e.uses.setdefault(tag, span)
        if shallow:
            self.uses.add(var)

    def bind(self, var: str, tag: Optional[str], span: Span) -> None:
        self.use(var, tag, span)
        self.binds.add(var)

    def expr_use(self, e: S.Expr, span: Span, found: Optional[set] = None,
                 shallow: bool = True) -> None:
        """Use every variable of an expression as a value, and add it to
        `found` if given."""
        t = type(e)
        if t is S.EVar:
            self.use(e.name, "int_use", span, shallow)
            if found is not None:
                found.add(e.name)
        elif t is S.EBin:
            self.expr_use(e.left, span, found, shallow)
            self.expr_use(e.right, span, found, shallow)
        elif t is S.EUn:
            self.expr_use(e.operand, span, found, shallow)

    def assertion_use(self, a: S.Assertion, span: Span, found: set,
                      walked: Optional[set] = None) -> None:
        """Use the variables of an annotation and of the invariant bodies it
        reaches, and add them to `found`.  `walked`, the bodies walked for the
        annotation so far, is None for the annotation itself."""
        direct = walked is None
        self._assertion(a, span, found, direct, set() if direct else walked)

    def _assertion(self, x: S.Assertion, span: Span, found: set, direct: bool,
                   walked: set) -> None:
        t = type(x)
        if t is S.APure:
            self.expr_use(x.expr, span, found, direct)
        elif t is S.AStar:
            for p in x.parts:
                self._assertion(p, span, found, direct, walked)
        elif t is S.APointsTo:
            self.use(x.loc, "owns", x.span, direct)
            found.add(x.loc)
            self.expr_use(x.value, span, found, direct)
            if direct:
                self.c._check_fraction(x)
        elif t is S.AResource:
            self.use(x.loc, _RESOURCE_USE[x.kind], x.span, direct)
            found.add(x.loc)
            if x.inv:
                if direct:
                    self.c.inv_sites.append((x.inv, x.span))
                self.inv_use(x.inv, span, found, walked)
        elif t is S.AImplies:
            self.expr_use(x.cond, span, found, direct)
            self._assertion(x.body, span, found, direct, walked)
        elif t is S.ACond:
            self.expr_use(x.cond, span, found, direct)
            self._assertion(x.then, span, found, direct, walked)
            self._assertion(x.els, span, found, direct, walked)
        elif t is S.AModal:
            self._assertion(x.body, span, found, direct, walked)
        else:
            raise AssertionError(x)

    def inv_use(self, inv: S.InvRef, span: Span, found: set, walked: set) -> None:
        # each body once per annotation, however many paths reach it
        c = self.c
        for name in inv:
            if name in walked:
                continue
            walked.add(name)
            c.reached.add(name)
            decl = c.inv_by_name.get(name)
            if decl is None:
                c.diags.append(Diagnostic(
                    SYNTAX_ERROR, span, rule="well-formedness",
                    message=f"unknown invariant {name!r}"))
                continue
            self.assertion_use(decl.body, span, found, walked)

    def spec_use(self, spec: S.Assertion, span: Span) -> frozenset:
        found: set[str] = set()
        self.assertion_use(spec, span, found)
        self.pi.specs[id(spec)] = out = frozenset(found)
        return out

    def inv_site(self, inv: S.InvRef, span: Span) -> None:
        self.c.inv_sites.append((inv, span))
        self.inv_use(inv, span, set(), set())

    # -- statements -------------------------------------------------------------------

    def block(self, stmts: list) -> None:
        outer_uses, outer_binds = self.uses, self.binds
        uses, binds = set(), set()
        self.uses, self.binds = uses, binds
        stmts_of = self._STMTS
        for st in stmts:
            stmts_of[type(st)](self, st)
        self.pi.scopes[id(stmts)] = Scope(frozenset(uses), frozenset(binds))
        outer_uses |= uses
        outer_binds |= binds
        self.uses, self.binds = outer_uses, outer_binds

    def _alloc(self, st: S.SAlloc) -> None:
        self.bind(st.var, None, st.span)
        # an allocation's kind is the class it gives its location
        self.ev[st.var].alloc.setdefault(st.kind, st.span)
        if st.inv:
            self.inv_site(st.inv, st.span)

    def _write(self, st: S.SWrite) -> None:
        self.use(st.loc, "na_access" if st.mode == "na" else "atomic_use", st.span)
        self.expr_use(st.value, st.span)

    def _read(self, st: S.SRead) -> None:
        self.use(st.loc, "na_access" if st.mode == "na" else "acq_use", st.span)
        self.bind(st.target, "int_use", st.span)

    def _rmw(self, st: S.SCas | S.SFaa) -> None:
        self.use(st.loc, "rmw_use", st.span)
        self.bind(st.target, "int_use", st.span)
        for e in (st.expected, st.newval) if type(st) is S.SCas else (st.delta,):
            self.expr_use(e, st.span)

    def _rewrite(self, st: S.SRewrite) -> None:
        self.use(st.loc, "acq_use", st.span)
        self.inv_site(st.old, st.span)
        self.inv_site(st.new, st.span)

    def _fence_rel(self, st: S.SFenceRel) -> None:
        self.assertion_use(st.assertion, st.span, set())

    def _while(self, st: S.SWhile) -> None:
        c = st.cond
        if c.kind == "pure":
            self.expr_use(c.expr, st.span)
        elif c.kind == "read":
            self.use(c.loc, "na_access" if c.mode == "na" else "acq_use", st.span)
            self.expr_use(c.rhs, st.span)
        else:
            self.use(c.loc, "rmw_use", st.span)
            self.expr_use(c.expected, st.span)
            self.expr_use(c.newval, st.span)
            self.expr_use(c.rhs, st.span)
        if st.invariant is not None:
            self.assertion_use(st.invariant, st.span, set())
            if c.kind != "pure":
                self.c.diags.append(Diagnostic(
                    SYNTAX_ERROR, st.span, rule="loop",
                    message="annotated loops need a pure condition; move "
                            "the atomic access into the loop body"))
        self.block(st.body)

    def _if(self, st: S.SIf) -> None:
        self.expr_use(st.cond, st.span)
        self.block(st.then)
        self.block(st.els)

    def _par(self, st: S.SPar) -> None:
        for th in st.threads:
            # logical variables bound by a thread precondition are in scope
            self.declared.update(self.spec_use(th.pre, th.span))
            self.spec_use(th.post, th.span)
        for th in st.threads:
            self.block(th.body)

    def _call(self, st: S.SCall) -> None:
        callee = self.c.procs.get(st.callee)
        if callee is not None and len(st.args) == len(callee.params):
            self.pi.calls.append(st)
        else:
            self.c.diags.append(Diagnostic(
                SYNTAX_ERROR, st.span, rule="call",
                message=f"unknown procedure {st.callee!r}" if callee is None
                else f"{st.callee!r} expects {len(callee.params)} "
                     f"argument(s), got {len(st.args)}"))
        for a in st.args:
            if type(a) is S.EVar:
                self.use(a.name, None, st.span)
            else:
                self.expr_use(a, st.span)
        if st.target:
            self.bind(st.target, None, st.span)

    def _assign(self, st: S.SAssign) -> None:
        self.bind(st.var, "int_use", st.span)
        self.expr_use(st.value, st.span)

    def _free(self, st: S.SFree) -> None:
        self.use(st.var, "owns", st.span)

    def _nothing(self, st: S.Stmt) -> None:
        pass

    _STMTS = {
        S.SAssign: _assign, S.SWrite: _write, S.SRead: _read, S.SAlloc: _alloc,
        S.SCas: _rmw, S.SFaa: _rmw, S.SIf: _if, S.SWhile: _while, S.SCall: _call,
        S.SFree: _free, S.SRewrite: _rewrite, S.SFenceRel: _fence_rel, S.SPar: _par,
        S.SFenceAcq: _nothing, S.SSkip: _nothing,
    }


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
