"""Invariant table, substitution and relabeling tests."""

import pytest

from conftest import checked, corpus_text
from weakmem import syntax as S
from weakmem.diagnostics import FrontendError
from weakmem.frontend import GHOST, NA
from weakmem.speclogic import (
    EAcc, EFieldEq, EPure, HeapLabel, LowerCtx,
    build_invariant_table, lower, relabel, substitute,
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
    table, _ = table_of(corpus_text("RelAcqDblMsgPassSplit.rsl"))
    for inv in table.whole_of:
        whole = table.body(table.whole(inv))
        parts = [table.body(i) for i in table.conjuncts(inv)]
        assert S.star(parts) == whole


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
        lower(S.AUp(body=S.AUp(body=S.APointsTo(loc="a", value=S.EInt(1)))), ctx)


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
