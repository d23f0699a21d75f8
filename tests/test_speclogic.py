"""Invariant table, substitution, lowering and relabeling tests."""

import os
from fractions import Fraction

import pytest

from conftest import CORPUS, checked, corpus_text
from weakmem import syntax as S
from weakmem.diagnostics import FrontendError
from weakmem.frontend import GHOST, NA, parse
from weakmem.speclogic import (
    EAcc, EFieldEq, EPure, HeapLabel, LowerCtx,
    build_invariant_table, lower, pp_enc, relabel, substitute,
)


def table_of(source: str):
    chk = checked(source)
    return build_invariant_table(chk), chk


def test_fig4_table():
    table, _ = table_of(corpus_text("RelAcqDblMsgPassSplit.rsl"))
    # three distinct whole forms: Q1, Q2 and the combination Q1 && Q2
    assert set(table.whole_of) == {("Q1",), ("Q2",), ("Q1", "Q2")}
    combo = table.conjuncts(("Q1", "Q2"))
    assert combo == (table.whole(("Q1",)), table.whole(("Q2",)))
    assert len(table.entries) == 3


def test_singleton_conjuncts():
    table, _ = table_of("""
invariant Q(V) = V != 0 ==> a |-> 1;
proc main() requires { true } ensures { true } { alloc_na(a); alloc_acq(l, Q); }
""")
    assert table.conjuncts(("Q",)) == (table.whole(("Q",)),)


def test_rewrite_program_table():
    # hand enumeration of distinct syntactic invariant forms in the rewrite
    # example: Q1, Q2, Q3 and the rewrite target Q1 && Q2
    table, _ = table_of(corpus_text("FencesDblMsgPassAcqRewrite.rsl"))
    assert set(table.whole_of) == {("Q1",), ("Q2",), ("Q3",), ("Q1", "Q2")}
    assert len(table.entries) == 4


def test_conjunct_entries_reassemble():
    # build_invariant_table builds each whole entry as the star of its
    # conjunct entries; nothing else checks that it does
    combinations = 0
    for name in sorted(os.listdir(CORPUS)):
        if not name.endswith(".rsl"):
            continue
        table, _ = table_of(corpus_text(name))
        for inv in table.whole_of:
            whole = table.body(table.whole(inv))
            parts = [table.body(i) for i in table.conjuncts(inv)]
            assert S.star(parts) == whole, (name, inv)
            combinations += len(inv) > 1
    assert combinations >= 4


def test_table_indexes_in_preorder():
    # first mentions, left to right through a spec: Q3 under an implication,
    # then Q1, then Q2 inside a conditional
    table, _ = table_of("""
invariant Q1(V) = true;
invariant Q2(V) = true;
invariant Q3(V) = true;
proc main(c, l, m, n)
  requires { (c == 0 ==> Acq(n, Q3)) && Rel(l, Q1) && (c == 1 ? Init(m) : Rel(m, Q2)) }
  ensures { true }
{ skip; }
""")
    assert [table.names[i] for i in table.all_indices()] == ["Q3", "Q1", "Q2"]


def test_table_json_dump():
    table, _ = table_of(corpus_text("RelAcqDblMsgPassSplit.rsl"))
    rows = table.to_json()
    assert [r["index"] for r in rows] == [0, 1, 2]
    assert all({"name", "body", "line", "col"} <= set(r) for r in rows)


# ---------------------------------------------------------------------------
# Lowering each kind of resource and modality
# ---------------------------------------------------------------------------

KIND_SOURCE = """
invariant Q1(V) = V == 1 ==> a |-> 1;
invariant Q2(V) = true;
proc main(a, l, ghost g) requires {{ {} }} ensures {{ true }} {{ skip; }}
"""

UNINIT_A = "acc(a.val, 1)@{0} && acc(a.init, 1)@{0} && a.init@{0} == false"
G_IS = ("acc(g.val, 1)@real && acc(g.init, 1)@real && g.val@real == {0} "
        "&& g.init@real == true")


@pytest.mark.parametrize("text, encoded", [
    ("Uninit(a)", UNINIT_A.format("real")),
    ("Init(l)", "acc(l.init, wildcard)@real"),
    ("Rel(l, Q1)", "acc(l.rel, wildcard)@real && l.rel@real == 0"),
    ("Acq(l, Q1)", "acc(l.acq, wildcard)@real && l.acq@real == true && "
                   "acc(AcqConjunct(l, 0), 1)@real, valsRead == {}"),
    ("RMWAcq(l, Q1 && Q2)", "acc(l.acq, wildcard)@real && l.acq@real == false && "
                            "acc(AcqConjunct(l, 0), wildcard)@real && "
                            "acc(AcqConjunct(l, 1), wildcard)@real"),
    ("Up(Uninit(a))", UNINIT_A.format("up")),
    ("Up(a |-> 1 && g |-> 2 && Rel(l, Q1))",
     "acc(a.val, 1)@up && acc(a.init, 1)@up && a.val@up == 1 && a.init@up == true && "
     + G_IS.format(2) + " && acc(l.rel, wildcard)@up && l.rel@up == 0"),
    ("Down(Acq(l, Q2) && g |-> 3)",
     "acc(l.acq, wildcard)@down && l.acq@down == true && "
     "acc(AcqConjunct(l, 0), 1)@down, valsRead == {} && " + G_IS.format(3)),
])
def test_each_kind_lowers_and_prints_back(text, encoded):
    chk = checked(KIND_SOURCE.format(text))
    pre = chk.program.procedures[0].pre
    ctx = LowerCtx(build_invariant_table(chk), chk.info["main"].classes)
    assert pp_enc(lower(pre, ctx)) == encoded
    assert S.pp_assertion(pre) == text
    reparsed, diags = parse(KIND_SOURCE.format(S.pp_assertion(pre)))
    assert diags == [] and reparsed.procedures[0].pre == pre


@pytest.mark.parametrize("frac, amount", [
    ("", 1), (" @ 2/2", 1), (" @ 1/4 + 1/4", Fraction(1, 2)),
])
def test_exact_amounts_are_ints_when_integral(frac, amount):
    chk = checked(KIND_SOURCE.format("a |-> 1" + frac))
    ctx = LowerCtx(build_invariant_table(chk), chk.info["main"].classes)
    perms = [x.perm for x in S.walk_assertion(lower(chk.program.procedures[0].pre, ctx))
             if isinstance(x, EAcc)]
    assert perms == [amount, amount]
    assert all(type(k) is type(amount) for k in perms)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

Q1 = S.AImplies(cond=S.EBin("!=", S.EInvVal(), S.EInt(0)),
                body=S.APointsTo(loc="a", value=S.EInt(42)))


def test_substitute_at_one():
    out = substitute(Q1, S.EInt(1))
    assert out == S.AImplies(cond=S.EBin("!=", S.EInt(1), S.EInt(0)),
                             body=S.APointsTo(loc="a", value=S.EInt(42)))


def test_substitute_at_zero_vacuous():
    out = substitute(Q1, S.EInt(0))
    assert out.cond == S.EBin("!=", S.EInt(0), S.EInt(0))


def test_substitute_structural():
    q = S.AStar(parts=(
        S.APure(expr=S.EBin(">=", S.EInvVal(), S.EInt(0))),
        S.APointsTo(loc="c", value=S.EInvVal()),
    ))
    val = S.EBin("+", S.EVar("x"), S.EInt(1))
    out = substitute(q, val)
    assert out.parts[0].expr == S.EBin(">=", val, S.EInt(0))
    assert out.parts[1].value == val


def test_substitute_distributes():
    # structural check over the binary connectives
    val = S.EInt(5)
    q = S.ACond(cond=S.EBin("==", S.EInvVal(), S.EInt(0)),
                then=S.APure(expr=S.TRUE_E),
                els=S.APointsTo(loc="d", value=S.EInvVal()))
    out = substitute(q, val)
    assert out.cond == S.EBin("==", val, S.EInt(0))
    assert out.els.value == val


# ---------------------------------------------------------------------------
# Relabeling
# ---------------------------------------------------------------------------

def lower_ctx(classes=None):
    return LowerCtx(table=None, classes=classes or {})


def test_relabel_points_to_up():
    ctx = lower_ctx({"a": NA})
    enc = lower(S.APointsTo(loc="a", value=S.EInt(42)), ctx)
    up = relabel(enc, HeapLabel.UP, ctx)
    assert all(p.label == HeapLabel.UP for p in up.parts
               if isinstance(p, (EAcc, EFieldEq)))


def test_relabel_pure_unchanged():
    ctx, e = lower_ctx(), EPure(S.EBin(">", S.EVar("x"), S.EInt(0)))
    assert relabel(e, HeapLabel.UP, ctx) is e


def test_relabel_ghost_identity():
    ctx = lower_ctx({"g": GHOST})
    enc = lower(S.APointsTo(loc="g", value=S.EInt(5)), ctx)
    down = relabel(enc, HeapLabel.DOWN, ctx)
    assert all(p.label == HeapLabel.REAL for p in down.parts
               if isinstance(p, (EAcc, EFieldEq)))


def test_double_modality_rejected():
    ctx = lower_ctx({"a": NA})
    with pytest.raises(FrontendError):
        inner = S.AModal(kind="Up", body=S.APointsTo(loc="a", value=S.EInt(1)))
        lower(S.AModal(kind="Up", body=inner), ctx)


def test_relabel_double_modality_rejected():
    ctx = lower_ctx({"a": NA})
    enc = lower(S.APointsTo(loc="a", value=S.EInt(1)), ctx)
    up = relabel(enc, HeapLabel.UP, ctx)
    with pytest.raises(FrontendError):
        relabel(up, HeapLabel.UP, ctx)


@pytest.mark.parametrize("a", [
    S.APure(expr=S.EInvVal()),
    S.APointsTo(loc="a", value=S.EInvVal()),
    S.AImplies(cond=S.EInvVal(), body=S.APure(expr=S.TRUE_E)),
    S.ACond(cond=S.EInvVal(), then=S.APure(expr=S.TRUE_E), els=S.APure(expr=S.TRUE_E)),
])
def test_value_parameter_lowered_only_in_a_table_body(a):
    body = lower(a, lower_ctx())
    assert any(isinstance(getattr(x, f, None), S.EInvVal)
               for x in S.walk_assertion(body) for f in ("expr", "cond", "value"))
