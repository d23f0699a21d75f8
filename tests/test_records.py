"""The record classes: equality, hashing, repr, `replace`, and a cold import
that leaves `dataclasses` out."""

import gc
import inspect
import os
import subprocess
import sys

import pytest

from weakmem import api, cli, encoder, frontend, symstate, syntax as S
from weakmem.diagnostics import Diagnostic
from weakmem.speclogic import EAcc, EPure, FIELD_VAL, FULL

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
AT_1 = S.Span(1, 1, 1, 5)
AT_2 = S.Span(2, 1, 2, 5)


def records(cls=S.Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from records(sub)


def test_cli_import_leaves_dataclasses_out():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import weakmem.cli; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_every_record_class_has_slots():
    assert cli.CorpusEntry in set(records())
    for cls in records():
        assert "__slots__" in cls.__dict__, cls


def test_every_statement_and_primitive_class_has_a_handler():
    # the walkers dispatch on a node's exact class, so a table names every
    # class that can occur and none of them has subclasses
    stmts = {cls for cls in records(S.Stmt) if not cls.__subclasses__()}
    assert set(frontend._ProcWalker._STMTS) == stmts
    assert set(encoder._ENCODERS) == stmts
    not_primitives = {encoder.BranchCond, encoder.Block, encoder.Obligation}
    prims = {cls for cls in records() if cls.__module__ == encoder.__name__}
    assert set(symstate._RUN) == prims - not_primitives
    for cls in [*stmts, *symstate._RUN]:
        assert not cls.__subclasses__(), cls


def test_span_is_left_out_only_of_source_nodes():
    source_nodes = (S.Assertion, S.Stmt, S.Thread, S.InvariantDecl, S.Procedure)
    for cls in records():
        if "span" in cls._fields:
            assert ("span" in cls._hidden) == issubclass(cls, source_nodes), cls
    assert S.APure(AT_1, S.EInt(1)) == S.APure(AT_2, S.EInt(1))
    assert S.SSkip(AT_1) == S.SSkip(AT_2)
    assert S.Procedure("p", span=AT_1) == S.Procedure("p", span=AT_2)
    assert EPure(S.EInt(1), AT_1) != EPure(S.EInt(1), AT_2)
    assert Diagnostic("k", AT_1) != Diagnostic("k", AT_2)
    assert encoder.HavocVar("x", AT_1) != encoder.HavocVar("x", AT_2)


def test_equality_needs_the_same_class_and_equal_fields():
    assert S.EBin("+", S.EVar("x"), S.EInt(1)) == S.EBin("+", S.EVar("x"), S.EInt(1))
    assert S.EBin("+", S.EVar("x"), S.EInt(1)) != S.EBin("+", S.EVar("x"), S.EInt(2))
    # classes with the same fields stay apart, and so do kinds of one class
    assert S.SFenceAcq() != S.SSkip()
    assert S.AResource(kind="Uninit", loc="a") != S.AResource(kind="Init", loc="a")
    assert S.EAny() == S.EAny() and S.EAny() != S.EInvVal()
    assert S.EInt(1) != (1,)


def test_records_do_not_hash():
    assert [cls for cls in records() if cls.__hash__ is not None] == []
    for x in (S.EInt(1), S.APure(expr=S.TRUE_E), S.SSkip(), Diagnostic("k"),
              encoder.HavocVar("x"), api.VerifyOptions(), symstate.Chunk(0, "val", 0, 0, 0),
              encoder.BranchCond("notread", loc="l", idx=1),
              frontend.Scope(frozenset("ab"), frozenset("c")),
              EAcc("a", FIELD_VAL, FULL, span=AT_1)):
        with pytest.raises(TypeError):
            hash(x)


def test_repr_names_the_shown_fields():
    assert repr(S.APure(AT_1, S.EInt(1))) == "APure(expr=EInt(value=1))"
    assert repr(S.SSkip(AT_1)) == "SSkip()"
    assert repr(Diagnostic("k", AT_1, message="m")) == (
        "Diagnostic(kind='k', span=Span(line=1, col=1, end_line=1, end_col=5), "
        "rule='', message='m', counter_facts=None)")


def test_replace_copies_with_changes():
    a = S.APointsTo(AT_1, "a", S.EInt(1), S.EInt(2))
    b = a.replace(span=AT_2, loc="b")
    assert type(b) is S.APointsTo
    assert (b.span, b.loc, b.value, b.frac) == (AT_2, "b", a.value, a.frac)
    assert (a.span, a.loc) == (AT_1, "a")
    with pytest.raises(TypeError):
        a.replace(nope=1)


def test_constructors_keep_their_defaults():
    assert api.VerifyOptions().soundness == "off"
    assert S.APure(AT_1).span == AT_1 and S.APure().span == S.NO_SPAN
    containers = 0
    for cls in records():
        # `Record` builds every constructor
        code = getattr(cls.__init__, "__code__", None)
        assert code is None or code.co_filename != inspect.getfile(cls), cls
        params = inspect.signature(cls).parameters
        assert list(params) == list(cls._fields), cls
        required = [None] * sum(p.default is p.empty for p in params.values())
        a, b = cls(*required), cls(*required)
        for f in cls._fields[len(required):]:
            if type(getattr(a, f)) in (list, dict, set):
                containers += 1
                assert getattr(a, f) == type(getattr(a, f))(), (cls, f)
                assert getattr(a, f) is not getattr(b, f), (cls, f)
            else:
                assert getattr(a, f) is params[f].default, (cls, f)
    assert containers > 30


def test_a_required_field_after_a_defaulted_one_fails_at_definition():
    for base in (S.Record, S.Stmt):
        with pytest.raises(TypeError, match="required field 'late' follows a defaulted one"):
            class Late(base):
                __slots__ = ("early", "late")
                _defaults = {"early": 0}
    with pytest.raises(TypeError, match="would be shared"):
        class Shared(S.Record):
            __slots__ = ("items",)
            _defaults = {"items": [1]}
    gc.collect()
    assert not [cls for cls in records() if cls.__name__ in ("Late", "Shared")]
