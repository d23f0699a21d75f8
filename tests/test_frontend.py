"""Parser and mode-checker tests."""

import gc
import os
import re
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, LOCK_CLIENT, MANIFEST, corpus_path, corpus_text
from printer import pp_program
from weakmem import api, frontend, syntax as S
from weakmem.cli import load_manifest
from weakmem.diagnostics import (
    CAS_ON_ACQ_LOCATION, DUPLICATE_NAME, MIXED_MODE_ACCESS, SYNTAX_ERROR, Diagnostic,
)
from weakmem.frontend import ACQ, GHOST, NA, RMW, VALUE, mode_check, parse

FIG4 = corpus_text("RelAcqDblMsgPassSplit.rsl")


def test_fig4_program_shape():
    program, diags = parse(FIG4)
    assert diags == []
    assert len(program.procedures) == 1
    main = program.procedures[0]
    allocs = [s for s in S.walk_stmts(main.body) if isinstance(s, S.SAlloc)]
    allocs_na = [s for s in allocs if s.kind == "na"]
    allocs_at = [s for s in allocs if s.kind in ("acq", "rmw")]
    pars = [s for s in S.walk_stmts(main.body) if isinstance(s, S.SPar)]
    assert len(allocs_na) == 2
    assert len(allocs_at) == 1
    assert allocs_at[0].inv == ("Q1", "Q2")
    assert len(pars) == 1
    assert len(pars[0].threads) == 3


def test_empty_file():
    program, diags = parse("")
    assert diags == []
    assert program.procedures == []


def test_acquire_write_rejected():
    program, diags = parse("proc main() { [l]_acq := 5; }")
    assert any(d.kind == SYNTAX_ERROR for d in diags)


def test_release_read_rejected():
    _, diags = parse("proc main() { x := [l]_rel; }")
    assert any(d.kind == SYNTAX_ERROR for d in diags)


# Oracle for the access-mode grammar: enumerate every mode suffix and check
# acceptance against the productions (writes take na/rel/rlx/rel_acq; reads
# take na/acq/rlx/rel_acq).
ALL_MODES = ("na", "acq", "rel", "rel_acq", "rlx")


@pytest.mark.parametrize("mode", ALL_MODES)
def test_write_mode_grammar(mode):
    _, diags = parse(f"proc main() {{ [l]_{mode} := 1; }}")
    should_accept = mode in frontend.WRITE_MODES
    assert (diags == []) == should_accept


@pytest.mark.parametrize("mode", ALL_MODES)
def test_read_mode_grammar(mode):
    _, diags = parse(f"proc main() {{ x := [l]_{mode}; }}")
    should_accept = mode in frontend.READ_MODES
    assert (diags == []) == should_accept


def test_duplicate_procedure_name():
    _, diags = parse("proc f() { skip; }\nproc f() { skip; }")
    assert any(d.kind == DUPLICATE_NAME for d in diags)


def test_parse_never_raises_on_garbage():
    program, diags = parse("proc ( ;;; } { invariant ??? @@")
    assert diags  # total parsing: errors come back as diagnostics
    assert isinstance(program, S.Program)


def test_spans_lie_within_input():
    source = FIG4
    lines = source.splitlines()
    program, diags = parse(source)
    assert not diags
    for proc in program.procedures:
        for st in S.walk_stmts(proc.body):
            assert 1 <= st.span.line <= len(lines)
            assert st.span.col >= 1
            assert st.span.col <= len(lines[st.span.line - 1]) + 1


# ---------------------------------------------------------------------------
# Round-trip: parse . pretty-print . parse == parse
# ---------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "RelAcqDblMsgPassSplit.rsl", "RSLSpinLock.rsl", "RSLLockNoSpin.rsl",
    "CASModesTest.rsl", "FencesDblMsgPassAcqRewrite.rsl", "RustARCStronger.rsl",
]


def assert_round_trip(source):
    first, diags = parse(source)
    assert not diags
    printed = pp_program(first)
    second, diags2 = parse(printed)
    assert not diags2, [d.format() for d in diags2] + [printed]
    assert second == first
    # and printing again is a fixed point
    assert pp_program(second) == printed


@pytest.mark.parametrize("name", ROUND_TRIP_SOURCES)
def test_round_trip_idempotent(name):
    assert_round_trip(corpus_text(name))


@pytest.mark.parametrize("expr", [
    "(a == b) == c", "a == (b == c)", "(a < b) != (c < d)", "(a | b) & c",
    "a | b & c ^ d", "-(a - b) * (c % d)", "a - (b - c)", "c == (a && b || !d)",
    "a + b * c", "a * b + c", "a - b - c", "a << b + c", "a + b < c",
])
def test_round_trip_expressions(expr):
    assert_round_trip(f"proc main() requires {{ {expr} }} ensures {{ true }} "
                      f"{{ x := {expr}; }}")


def test_round_trip_invariant_leaf_operands():
    # an invariant's parameter and a boolean literal as right operands
    source = ("invariant Q(V) = c + V == 2 && b == true ==> a |-> V;\n"
              "proc main() { skip; }")
    assert_round_trip(source)
    (inv,) = parse(source)[0].invariants
    c, two = S.EVar("c"), S.EInt(2)
    assert inv.body == S.star([
        S.APure(expr=S.EBin("==", S.EBin("+", c, S.EInvVal()), two)),
        S.AImplies(cond=S.EBin("==", S.EVar("b"), S.EBool(True)),
                   body=S.APointsTo(loc="a", value=S.EInvVal()))])


@pytest.mark.parametrize("fact", ["a || b", "a && b || c", "(a || b) == c", "a && b",
                                  "(a && b) == c"])
def test_round_trip_disjunctive_pure_fact(fact):
    # a macro is the only way to write a pure fact with a top-level || (a
    # top-level && splits into a star); either may be an implication's condition
    assert_round_trip(f"define D(p) = p;\n"
                      f"proc main(a, b, c) requires {{ D({fact}) && D({fact}) }} "
                      f"ensures {{ ({fact}) ==> c == 1 }} {{ skip; }}")


# ---------------------------------------------------------------------------
# Lexing and expression grammar
# ---------------------------------------------------------------------------

# Token streams, eof included, and the characters reported as unexpected.
# Only `\n` starts a line: `\r` is a blank, and `\x0c` and `\u2028` are
# unexpected characters.
TOKEN_STREAMS = {
    "empty": ("", [("eof", "", 1, 1)], []),
    "crlf": ("a\r\nb\r\n", [("name", "a", 1, 1), ("name", "b", 2, 1), ("eof", "", 3, 1)], []),
    "lone-cr": ("a\rb", [("name", "a", 1, 1), ("name", "b", 1, 3), ("eof", "", 1, 4)], []),
    "tabs": ("\tx\t:=\t1;", [("name", "x", 1, 2), ("punct", ":=", 1, 4), ("int", "1", 1, 7),
                              ("punct", ";", 1, 8), ("eof", "", 1, 9)], []),
    "comment-at-eof": ("x // note", [("name", "x", 1, 1), ("eof", "", 1, 10)], []),
    "comment-then-line": ("// a\n//\nx", [("name", "x", 3, 1), ("eof", "", 3, 2)], []),
    "trailing-blanks": ("x  \n  ", [("name", "x", 1, 1), ("eof", "", 2, 3)], []),
    "non-ascii": ("a \u00e9\u2028b\x0c\nc", [("name", "a", 1, 1), ("name", "b", 1, 5),
                                            ("name", "c", 2, 1), ("eof", "", 2, 2)],
                  [(1, 3, "\u00e9"), (1, 4, "\u2028"), (1, 6, "\x0c")]),
    "underscores": ("[a]_na := _;_ _na", [
        ("punct", "[", 1, 1), ("name", "a", 1, 2), ("punct", "]", 1, 3),
        ("name", "_na", 1, 4), ("punct", ":=", 1, 8), ("punct", "_", 1, 11),
        ("punct", ";", 1, 12), ("punct", "_", 1, 13), ("name", "_na", 1, 15),
        ("eof", "", 1, 18)], []),
    "slashes": ("a//b\na / b", [("name", "a", 1, 1), ("name", "a", 2, 1),
                                ("punct", "/", 2, 3), ("name", "b", 2, 5), ("eof", "", 2, 6)], []),
    # cases a line-by-line scan could get wrong: a comment or a bad character
    # before the blanks that end a line, blank lines, a line ending in `_`
    "comment-before-crlf": ("x // c\r\ny", [("name", "x", 1, 1), ("name", "y", 2, 1),
                                           ("eof", "", 2, 2)], []),
    "cr-cr-lf": ("a\r\r\nb", [("name", "a", 1, 1), ("name", "b", 2, 1), ("eof", "", 2, 2)], []),
    "bad-before-blanks": ("x $ \t\r\n", [("name", "x", 1, 1), ("eof", "", 2, 1)],
                          [(1, 3, "$")]),
    "blank-line-before-token": (" \t \n  x", [("name", "x", 2, 3), ("eof", "", 2, 4)], []),
    "line-ends-in-underscore": ("a _\n_", [("name", "a", 1, 1), ("punct", "_", 1, 3),
                                          ("punct", "_", 2, 1), ("eof", "", 2, 2)], []),
}


@pytest.mark.parametrize("source,tokens,bad", TOKEN_STREAMS.values(), ids=TOKEN_STREAMS)
def test_token_stream(source, tokens, bad):
    toks, diags = frontend.tokenize(source)
    assert toks == tokens
    assert [(d.span.line, d.span.col, d.message) for d in diags] == [
        (line, col, f"unexpected character {ch!r}") for line, col, ch in bad]
    assert (toks, diags) == reference_tokenize(source)


# A reference lexer: one scan of the whole text, each match the blanks and
# comments before a token and then the token in a named group, with lines
# found from the offsets.
REFERENCE_TOKEN_RE = re.compile(r"""
    [ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?:(?P<name>[A-Za-z][A-Za-z0-9_]*|_[A-Za-z0-9_]+)
      | (?P<int>[0-9]+)
      | (?P<punct>==>|\|->|:=|==|!=|<=|>=|<<|>>|&&|\|\||[(){}\[\],;@?:+\-*/%&|^!<>=_])
      | (?P<bad>.)
      | \Z)
""", re.VERBOSE)


def reference_tokenize(source):
    toks, diags = [], []
    lines = source.split("\n")
    line, line_start, next_line_start = 1, 0, len(lines[0]) + 1
    for m in REFERENCE_TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind is None:
            break
        start = m.start(kind)
        while start >= next_line_start:
            line_start = next_line_start
            next_line_start += len(lines[line]) + 1
            line += 1
        col = start - line_start + 1
        if kind == "bad":
            diags.append(Diagnostic(SYNTAX_ERROR, S.Span(line, col, line, col + 1),
                                    message=f"unexpected character {m[kind]!r}"))
        else:
            toks.append((kind, m[kind], line, col))
    toks.append(("eof", "", len(lines), len(lines[-1]) + 1))
    return toks, diags


# the language's characters, blanks and line ends, and some it does not know
LEXER_PIECES = st.sampled_from(
    list("aZ09_(){}[],;@?:+-*/%&|^!<>=$") + [" ", "\t", "\r", "\n", "//", "_na", "|->",
                                            "==>", "\u00e9", "\u2028", "\x0c"])


@settings(max_examples=300, deadline=None)
@given(st.lists(LEXER_PIECES, max_size=40).map("".join))
def test_tokenize_agrees_with_a_whole_text_scan(source):
    assert frontend.tokenize(source) == reference_tokenize(source)


# Malformed inputs with the exact position of each diagnostic.
PARSE_ERRORS = {
    "missing-semicolon": (
        "proc main() {\n  x := 1\n  skip;\n}",
        ["3:3: SyntaxError: expected ';', found 'skip'"]),
    "bad-mode-suffix": (
        "proc main() {\n  [l]_acq := 5;\n}",
        ["2:6: SyntaxError: write mode '_acq' is not allowed; "
         "expected one of _na, _rel, _rlx, _rel_acq"]),
    "unknown-character": (
        "proc main() {\n  x := 1 $ 2;\n}",
        ["2:10: SyntaxError: unexpected character '$'",
         "2:12: SyntaxError: expected ';', found '2'"]),
    # comparisons do not chain, with or without parentheses on the left
    "chained-comparison": (
        "proc main() {\n  x := a == b == c;\n}",
        ["2:15: SyntaxError: expected ';', found '=='"]),
    "chained-comparison-after-parentheses": (
        "proc main()\n  requires { (a) == b == c }\n  ensures { true }\n{ skip; }",
        ["2:23: SyntaxError: expected '}', found '=='"]),
    # after an error in a header or spec, parsing resumes at the next declaration
    "error-in-spec-then-body": (
        "proc main() requires { 1 + } ensures { true } { skip; }\nproc g() { x := ; }",
        ["1:28: SyntaxError: expected an expression, found '}'",
         "2:17: SyntaxError: expected an expression, found ';'"]),
    "unclosed-block": (
        "proc main() {\n  skip;\n",
        ["3:1: SyntaxError: expected '}', found end of input"]),
    # end of input is where the input ends, after a trailing comment
    "eof-after-comment": (
        "proc main() {\n  skip; // done",
        ["2:16: SyntaxError: expected '}', found end of input"]),
    # names and integers are ASCII
    "non-ascii-letter": (
        "proc main() {\n  café := 1;\n}",
        ["2:6: SyntaxError: unexpected character 'é'"]),
    "superscript-digit": (
        "proc main() {\n  x := ²;\n}",
        ["2:8: SyntaxError: unexpected character '²'",
         "2:9: SyntaxError: expected an expression, found ';'"]),
    "arabic-indic-digits": (
        "proc main() {\n  x := ١٢;\n}",
        ["2:8: SyntaxError: unexpected character '١'",
         "2:9: SyntaxError: unexpected character '٢'",
         "2:10: SyntaxError: expected an expression, found ';'"]),
}


@pytest.mark.parametrize("source,expected", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_positions(source, expected):
    _, diags = parse(source)
    assert [d.format() for d in diags] == expected


N = frontend.MAX_NESTING
# For each kind of nesting: the program nested k deep, the largest k the
# parser accepts, and the diagnostics one level further.  A procedure body is
# one level, and each operator of a chain nests the chain one level deeper.
NESTING = {
    "binary-chain": (lambda k: "proc main() { x := " + " + ".join(["1"] * (k + 1)) + "; }",
                     N - 1, [f"1:{4 * N + 18}: SyntaxError: nesting deeper than {N} levels"]),
    # the chain to the left of the outer one counts although it is closed
    "chain-of-chains": (lambda k: "proc main() { x := (1" + " + 1" * 50 + ")" + " + 1" * k + "; }",
                        N - 51, [f"1:{4 * N + 20}: SyntaxError: nesting deeper than {N} levels"]),
    # `1 + 1 * 1 + 1 + 1 * 1 ...`: the right operands of `+` alternate between a
    # leaf the parser reads in place and a product, one level high, it recurses for
    "mixed-precedence-chain": (lambda k: "proc main() { x := " + " + ".join(
        "1 * 1" if i % 2 else "1" for i in range(k + 1)) + "; }",
        N - 2, [f"1:{6 * N + 10}: SyntaxError: nesting deeper than {N} levels"]),
    "parentheses": (lambda k: "proc main() { x := " + "(" * k + "1" + ")" * k + "; }",
                    N - 1, [f"1:{N + 19}: SyntaxError: nesting deeper than {N} levels"]),
    "if": (lambda k: "proc main() { " + "if (true) { " * k + "skip;" + " }" * k + " }",
           N - 1, [f"1:{12 * N + 13}: SyntaxError: nesting deeper than {N} levels"]),
    "implies": (lambda k: "proc main(x) requires { " + "x == 1 ==> " * k + "true }\n"
                "ensures { true } { skip; }",
                N, [f"1:{11 * N + 27}: SyntaxError: nesting deeper than {N} levels"]),
    # the expansion of `D(...)` holds its pure fact and the `>` above the sum
    "macro": (lambda k: "define D(p) = p > 0;\nproc main() requires { D("
              + " + ".join(["1"] * (k + 1)) + ") } ensures { true } { skip; }",
              N - 2, [f"2:24: SyntaxError: macro 'D' expands deeper than {N} levels"]),
}


@pytest.mark.parametrize("nested,bound,expected", NESTING.values(), ids=NESTING)
def test_nesting_bound(nested, bound, expected):
    assert parse(nested(bound))[1] == []
    assert [d.format() for d in parse(nested(bound + 1))[1]] == expected


def test_missing_operand_at_the_nesting_bound():
    _, diags = parse("proc main() { x := " + "(" * (N - 1) + "; }")
    assert [d.format() for d in diags] == [
        f"1:{N + 19}: SyntaxError: expected an expression, found ';'"]


def test_integer_literal_bound():
    digits = frontend.MAX_INT_DIGITS
    program, diags = parse(f"proc main() {{ x := {'9' * digits}; }}")
    assert diags == [] and program.procedures[0].body[0].value == S.EInt(10 ** digits - 1)
    _, diags = parse(f"proc main() {{ x := {'9' * (digits + 1)}; }}")
    assert [d.format() for d in diags] == [
        f"1:20: SyntaxError: integer literal longer than {digits} digits"]


def pre_expr(source_expr):
    program, diags = parse(f"proc main() requires {{ {source_expr} }} ensures {{ true }} "
                           "{ skip; }")
    assert diags == []
    return program.procedures[0].pre.expr


def test_parentheses_open_the_full_expression_grammar():
    # an assertion's pure fact has no top-level && or ||, but inside
    # parentheses both are ordinary operators
    assert pre_expr("c == (a || b)") == S.EBin(
        "==", S.EVar("c"), S.EBin("||", S.EVar("a"), S.EVar("b")))


def test_parenthesised_left_operand_keeps_precedence():
    # `|` binds looser than `&` also after a parenthesised first operand
    a, b, c = S.EVar("a"), S.EVar("b"), S.EVar("c")
    assert pre_expr("(a) | b & c == 1") == pre_expr("a | b & c == 1") == S.EBin(
        "==", S.EBin("|", a, S.EBin("&", b, c)), S.EInt(1))


# ---------------------------------------------------------------------------
# Mode checking
# ---------------------------------------------------------------------------

def test_fig4_classification_clean():
    program, _ = parse(FIG4)
    checked = mode_check(program)
    assert checked.diagnostics == []
    classes = checked.info["main"].classes
    assert classes["a"] == NA
    assert classes["b"] == NA
    assert classes["l"] == ACQ
    assert classes["x"] == VALUE


def test_mixed_mode_access():
    program, _ = parse("proc main() { alloc_na(l); [l]_rlx := 1; }")
    checked = mode_check(program)
    assert any(d.kind == MIXED_MODE_ACCESS for d in checked.diagnostics)


def test_conflicting_allocations_of_one_location():
    # a ghost parameter counts as a ghost allocation
    program, _ = parse("""
invariant Q(V) = true;
proc main(ghost g) { alloc_acq(g, Q); alloc_na(x); alloc_rmw(x, Q); ghost_alloc(x); }
""")
    checked = mode_check(program)
    assert [(d.kind, d.span.line, d.span.col, d.message) for d in checked.diagnostics] == [
        (MIXED_MODE_ACCESS, 3, 1, "location 'g' allocated with conflicting kinds"),
        (MIXED_MODE_ACCESS, 3, 39, "location 'x' allocated with conflicting kinds"),
    ]
    assert checked.info["main"].classes == {"g": ACQ, "x": GHOST}


def test_lock_pattern_clean():
    source = corpus_text("RSLLockNoSpin.rsl")
    program, _ = parse(source)
    checked = mode_check(program)
    assert checked.diagnostics == []
    assert checked.info["lock"].classes["x"] == RMW


def test_cas_on_acq_location():
    program, _ = parse("""
invariant Q(V) = V >= 0;
proc main() { alloc_acq(l, Q); t := CAS_rel_acq(l, 0, 1); }
""")
    checked = mode_check(program)
    assert any(d.kind == CAS_ON_ACQ_LOCATION for d in checked.diagnostics)


def test_acquire_read_of_rmw_location():
    program, _ = parse("""
invariant Q(V) = V >= 0;
proc main() { alloc_rmw(l, Q); t := [l]_acq; }
""")
    checked = mode_check(program)
    assert any(d.kind == CAS_ON_ACQ_LOCATION for d in checked.diagnostics)


def test_mode_check_order_independent():
    a = "proc f() { alloc_na(p); [p]_na := 1; }\nproc g() { alloc_rmw(q, Q); }\n"
    b = "proc g() { alloc_rmw(q, Q); }\nproc f() { alloc_na(p); [p]_na := 1; }\n"
    inv = "invariant Q(V) = V >= 0;\n"
    ca = mode_check(parse(inv + a)[0])
    cb = mode_check(parse(inv + b)[0])
    assert ca.info["f"].classes == cb.info["f"].classes
    assert ca.info["g"].classes == cb.info["g"].classes
    assert [d.kind for d in ca.diagnostics] == [d.kind for d in cb.diagnostics]


def call_chain(depth: int) -> str:
    """main writes x non-atomically and passes it down a chain of `depth`
    calls whose last callee updates it with a CAS."""
    lines = ["proc main() requires { true } ensures { true }",
             "{ alloc_na(x); [x]_na := 1; r := call p1(x); }"]
    for k in range(1, depth + 1):
        body = f"r := call p{k + 1}(x);" if k < depth else "r := CAS_rlx(x, 0, 1);"
        lines += [f"proc p{k}(x) returns (r) requires {{ true }} ensures {{ true }}",
                  f"{{ {body} }}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("depth", range(1, 7))
def test_call_classes_propagate_through_any_chain(depth):
    program, diags = parse(call_chain(depth))
    assert diags == []
    checked = mode_check(program)
    assert checked.info["main"].classes["x"] == NA
    assert MIXED_MODE_ACCESS in [d.kind for d in checked.diagnostics]


def test_define_expansion_reports_the_use_site():
    program, diags = parse("""define P(x) = x |-> 1 @ 2;

proc main(a)
  requires { P(a) }
  ensures { true }
{ skip; }
""")
    assert diags == []
    [d] = mode_check(program).diagnostics
    assert "fraction 2 outside" in d.message
    assert (d.span.line, d.span.col) == (4, 14)


def macro_pre(source_pre, define="define D(p, l) = Up(p ==> l |-> p);"):
    """The precondition of a procedure of `main(a, b, m)` that uses macros,
    and the parse diagnostics."""
    program, diags = parse(f"{define}\nproc main(a, b, m) requires {{ {source_pre} }} "
                           "ensures { true } { skip; }")
    return (program.procedures[0].pre if program.procedures else None), diags


def test_an_and_argument_becomes_a_star_of_facts_at_the_use():
    pre, diags = macro_pre("true && D(a == 1 && b == 2, m)")
    assert diags == []
    fact = lambda name, k: S.APure(expr=S.EBin("==", S.EVar(name), S.EInt(k)))
    star = S.AStar(parts=(fact("a", 1), fact("b", 2)))
    m_is_ab = S.APointsTo(loc="m", value=S.EBin("&&", fact("a", 1).expr, fact("b", 2).expr))
    assert pre == S.AStar(parts=(
        S.APure(expr=S.TRUE_E),
        S.AModal(kind="Up", body=S.AImplies(cond=m_is_ab.value, body=m_is_ab))))
    pre, _ = macro_pre("D(a == 1 && b == 2)", define="define D(p) = p;")
    assert pre == star
    # every node of an expansion is at the use
    use = S.Span(2, 31, 2, 32)
    assert [x.span for x in S.walk_assertion(pre)] == [use, use, use]


def test_an_expression_in_a_location_slot_is_reported_at_the_use():
    _, diags = macro_pre("D(1, a + 1)")
    assert [d.format() for d in diags] == [
        "2:31: SyntaxError: location position for 'l' needs a variable, got an expression"]


@pytest.mark.parametrize("extra,ok", [(-1, True), (0, True), (1, False)],
                         ids=["under", "at", "over"])
def test_macro_expansion_height_at_the_nesting_bound(extra, ok):
    # Up, ==>, |-> and the argument's chain: the expansion is k + 3 high
    k = frontend.MAX_NESTING - 3 + extra
    pre, diags = macro_pre("D(" + " + ".join(["1"] * (k + 1)) + ", m)")
    if ok:
        assert diags == [] and S.height(pre) == k + 3
    else:
        assert [d.format() for d in diags] == [
            f"2:31: SyntaxError: macro 'D' expands deeper than {frontend.MAX_NESTING} levels"]


def test_postcondition_variable_restriction():
    program, _ = parse("""
proc f() requires { true } ensures { z == 1 } { z := 1; }
""")
    checked = mode_check(program)
    assert any("postcondition" in d.message for d in checked.diagnostics)


def test_postcondition_may_use_pre_logicals():
    program, _ = parse("""
proc f(p) requires { p |-> v } ensures { p |-> v } { skip; }
""")
    checked = mode_check(program)
    assert checked.diagnostics == []


def test_fraction_range_checked():
    program, _ = parse("proc f(p) requires { p |-> 1 @ 2 } ensures { true } { skip; }")
    checked = mode_check(program)
    assert any("fraction" in d.message for d in checked.diagnostics)


def test_undeclared_variable():
    program, _ = parse("proc f() requires { true } ensures { true } { [q]_na := 1; }")
    checked = mode_check(program)
    assert any("never declared" in d.message for d in checked.diagnostics)


def test_malformed_calls_rejected_at_the_call():
    program, _ = parse("proc f(a) { skip; }\n"
                       "proc main(x) { call g(x);\n  y := call f(x, 2); call f(x); }")
    checked = mode_check(program)
    assert [(d.kind, d.span.line, d.span.col, d.message) for d in checked.diagnostics] == [
        (SYNTAX_ERROR, 2, 16, "unknown procedure 'g'"),
        (SYNTAX_ERROR, 3, 3, "'f' expects 1 argument(s), got 2"),
    ]


# ---------------------------------------------------------------------------
# Invariant bodies in the mode check's walk
# ---------------------------------------------------------------------------

def diamond(n: int, owned: bool = False) -> str:
    """Invariants Q0 .. Q(n-1), each naming the next two, so the number of
    paths from Q0 grows like the Fibonacci numbers; the last body, or with
    `owned` every body, also holds points-to resources."""
    lines = []
    for i in range(n):
        parts = [f"Rel(r{j}, Q{j})" for j in (i + 1, i + 2) if j < n]
        if owned or not parts:
            parts += [f"r{(i + 3) % n} |-> k", f"r0 |-> {i}"]
        lines.append(f"invariant Q{i}(V) = V == 0 ? true : ({' && '.join(parts)});")
    lines.append("proc main(r0) requires { Rel(r0, Q0) } ensures { true } { skip; }")
    return "\n".join(lines) + "\n"


def test_invariant_diamond_walks_each_body_once(monkeypatch):
    program, diags = parse(diamond(60))
    assert diags == []
    walked = []
    walk, assertion_use = S.walk_assertion, frontend._ProcWalker.assertion_use

    def counted(a):
        walked.append(a)
        return walk(a)

    def counted_use(self, a, *args):
        walked.append(a)
        return assertion_use(self, a, *args)

    monkeypatch.setattr(S, "walk_assertion", counted)
    monkeypatch.setattr(frontend._ProcWalker, "assertion_use", counted_use)
    checked = mode_check(program)
    # the precondition, the postcondition and each of the 60 bodies once,
    # then each body once more for its fractions
    assert len(walked) == 2 + 60 + 60
    info = checked.info["main"]
    assert info.spec_vars(program.procedures[0].pre) == {"k"} | {f"r{i}" for i in range(60)}


TWICE = """
proc main(s) requires { true } ensures { true } {
  s := s + 1;
  s := s + 1;
  s := -s;
  s := -s;
}
"""


def test_a_file_builds_each_distinct_expression_once():
    def values(program):
        return [st.value for st in program.procedures[0].body]

    parser = frontend.Parser(TWICE)
    first = parser.parse_program()
    assert parser.diags == []
    inc, inc2, neg, neg2 = values(first)
    assert inc == S.EBin("+", S.EVar("s"), S.EInt(1)) and inc2 is inc
    assert neg == S.EUn("-", S.EVar("s")) and neg2 is neg
    assert neg.operand is inc.left
    assert first.procedures[0].pre.expr is S.TRUE_E
    # the table goes with its parser, by reference counting alone
    gone = weakref.ref(parser)
    del parser
    assert gone() is None
    # another parse of the same text shares no node with the first
    second, diags = parse(TWICE)
    assert diags == [] and second == first
    for a, b in zip(values(first), values(second)):
        nodes, others = list(S.walk_expr(a)), list(S.walk_expr(b))
        assert len(nodes) == len(others) == (3 if type(a) is S.EBin else 2)
        assert all(x is not y for x, y in zip(nodes, others))


def test_verifying_a_corpus_file_leaves_no_cyclic_garbage():
    # the walkers hold no closures over each other, so every object of a run
    # is freed by reference counting alone
    names = sorted(n for n in os.listdir(CORPUS) if n.endswith(".rsl"))
    gc.collect()
    gc.disable()
    try:
        for name in names:
            api.verify_source(corpus_text(name), path=name)
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_small_diamond_keeps_classes_and_diagnostics():
    # pinned from the per-path walk that visited each body once per path
    checked = mode_check(parse(diamond(6, owned=True))[0])
    assert checked.info["main"].classes == {
        "k": VALUE, "r0": "atomic", "r1": "atomic", "r2": "atomic",
        "r3": "atomic", "r4": "atomic", "r5": "atomic"}
    assert [(d.kind, d.span.line, d.span.col, d.message) for d in checked.diagnostics] == [
        (MIXED_MODE_ACCESS, 1, 66, "points-to resource for atomic location 'r3'"),
        (MIXED_MODE_ACCESS, 2, 66, "points-to resource for atomic location 'r4'"),
        (MIXED_MODE_ACCESS, 3, 66, "points-to resource for atomic location 'r5'"),
        (MIXED_MODE_ACCESS, 5, 51, "points-to resource for atomic location 'r1'"),
        (MIXED_MODE_ACCESS, 6, 36, "points-to resource for atomic location 'r2'"),
        (MIXED_MODE_ACCESS, 6, 48, "points-to resource for atomic location 'r0'"),
    ]


def test_unknown_invariant_reported_once_per_annotation():
    program, _ = parse("""invariant A(V) = Rel(y, Nope);
invariant B(V) = Rel(y, A) && Acq(y, Nope);
proc main(x, y) requires { Rel(x, B && A) && Acq(x, Nope) } ensures { Rel(x, Nope) }
{ skip; }
""")
    diags = [d.format() for d in mode_check(program).diagnostics]
    assert diags == ["3:1: SyntaxError [well-formedness]: unknown invariant 'Nope'"] * 2


def reached_vars(program: S.Program, spec: S.Assertion) -> set:
    """The variables of a spec and of every invariant declaration it
    reaches, found breadth-first, independently of the mode check."""
    decls = {d.name: d.body for d in program.invariants}
    out, seen, queue = set(), set(), deque([spec])
    while queue:
        a = queue.popleft()
        out |= S.assertion_vars(a)
        for x in S.walk_assertion(a):
            if isinstance(x, S.AResource) and x.inv:
                for name in x.inv:
                    if name in decls and name not in seen:
                        seen.add(name)
                        queue.append(decls[name])
    return out


def test_recorded_spec_vars_agree_with_a_breadth_first_walk():
    sources = []
    for entry in load_manifest(MANIFEST):
        with open(corpus_path(entry.file), encoding="utf-8") as fh:
            sources.append(fh.read())
    assert len(sources) == 21
    sources.append(LOCK_CLIENT)
    specs = deeper = 0
    for source in sources:
        program, diags = parse(source)
        if diags:
            continue
        checked = mode_check(program)
        for proc in program.procedures:
            info = checked.info[proc.name]
            owners = [proc] + [th for st in S.walk_stmts(proc.body)
                               if isinstance(st, S.SPar) for th in st.threads]
            for owner in owners:
                for spec in (owner.pre, owner.post):
                    expected = reached_vars(program, spec)
                    assert info.spec_vars(spec) == expected, (proc.name, S.pp_assertion(spec))
                    specs += 1
                    deeper += expected != S.assertion_vars(spec)
    assert specs > 60
    # some specs reach invariant bodies with variables of their own
    assert deeper > 5
