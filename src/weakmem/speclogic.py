"""Invariant defunctionalisation and the encoded assertion form.

Location invariants are functions from values to assertions.  Since only
finitely many appear in a program, each distinct syntactic form gets an
integer index; holding a ``Rel``/``Acq``/``RMWAcq`` resource then only needs
to mention indices.  The table records the whole-invariant index of every
form plus the indices of its top-level star conjuncts, so acquire resources
can be split along conjuncts, and which bodies mention the value parameter
``V``, in fractions or elsewhere.

A table body is lowered with ``V`` in place; ``substitute`` instantiates a
body, surface or encoded, at a value.  Only the parser keeps ``V`` out of
specifications: it reads a name as the value parameter (``EInvVal``) only
inside the invariant declaration that binds it, so ``lower`` checks nothing.

The encoder works on *encoded* assertions: the source tree's pure facts and
connectives (``APure``, ``AStar``, ``AImplies``, ``ACond``) over this
module's atoms, as Viper's assertions are.  An atom is a permission
(``EAcc``) to a field or to the AcqConjunct instance of one invariant
conjunct, or a field-value constraint (``EFieldEq``), each tagged with the
heap it lives in (real, up, down, or the tmp heap used inside the CAS
encoding); or an ``EError`` in place of a body that could not be lowered.
Carrying the heap as a tag on each atom makes the up/down mappings
bijective by construction, so no mapping axioms are needed.  A modality is
the heap ``relabel`` moves real-heap atoms to.  Ghost locations are immune
to relabeling.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from . import syntax as S
from .diagnostics import DOUBLE_MODALITY, Diagnostic, FrontendError, UnsupportedFeature
from .frontend import GHOST, CheckedProgram, fraction_amount
from .syntax import ACond, AImplies, APure, AStar, NO_SPAN, Record, Span


class HeapLabel(Enum):
    REAL = 0
    UP = 1
    DOWN = -1
    TMP = -3

    def __str__(self) -> str:
        return self.name.lower()


# ---------------------------------------------------------------------------
# Invariant table
# ---------------------------------------------------------------------------

class InvariantTable(Record):
    """Defunctionalised invariants: index -> body over the value parameter."""
    __slots__ = ("entries", "names", "whole_of", "conjuncts_of", "spans",
                 "uses_value", "value_fractions")
    _defaults = {"entries": {},
                 "names": {},    # display names
                 "whole_of": {}, "conjuncts_of": {}, "spans": {},
                 # the entries whose body mentions `V` outside fractions, and those
                 # whose fractions mention it (their amounts are only known at a value)
                 "uses_value": set(), "value_fractions": set()}

    def add(self, body: S.Assertion, name: str, span: Span) -> int:
        """Index a body under the next index, noting where it mentions `V`."""
        idx = len(self.entries)
        self.entries[idx] = body
        self.names[idx] = name
        self.spans[idx] = span
        for x in S.walk_assertion(body):
            if any(_mentions_value(getattr(x, f, None)) for f in ("expr", "cond", "value")):
                self.uses_value.add(idx)
            if isinstance(x, S.APointsTo) and _mentions_value(x.frac):
                self.value_fractions.add(idx)
        return idx

    def whole(self, inv: S.InvRef) -> int:
        return self.whole_of[inv]

    def conjuncts(self, inv: S.InvRef) -> tuple[int, ...]:
        return self.conjuncts_of[inv]

    def body(self, idx: int) -> S.Assertion:
        return self.entries[idx]

    def all_indices(self) -> list[int]:
        return sorted(self.entries)

    def conjunct_indices(self) -> list[int]:
        """The indices an AcqConjunct instance can have: those of single
        invariants, not of their combinations."""
        return sorted({i for idxs in self.conjuncts_of.values() for i in idxs})

    def to_json(self) -> list[dict]:
        out = []
        for idx in self.all_indices():
            span = self.spans.get(idx, NO_SPAN)
            out.append({
                "index": idx,
                "name": self.names.get(idx, ""),
                "line": span.line,
                "col": span.col,
                "body": S.pp_assertion(self.entries[idx]),
            })
        return out


def build_invariant_table(checked: CheckedProgram) -> InvariantTable:
    """Index every syntactic invariant occurrence of the program.

    Occurrences are the annotation sites the mode check recorded
    (allocations, rewrites, and Acq/Rel/RMWAcq parameters in specs, loop
    invariants and fences), then those in invariant bodies.  Forms are
    deduplicated syntactically, so the same named combination always maps
    to the same index; the star of the conjunct entries reassembles the
    whole invariant by construction.  The mode check has reported every
    name that no declaration defines, so each name here has a body.
    """
    program = checked.program
    table = InvariantTable()
    decl_of = {d.name: d for d in program.invariants}

    def ensure(inv: S.InvRef, span: Span) -> None:
        if inv in table.whole_of:
            return
        # index each single-name conjunct first, then the combination
        for name in inv:
            single = (name,)
            if single not in table.whole_of:
                d = decl_of[name]
                idx = table.add(d.body, name, d.span)
                table.whole_of[single] = idx
                table.conjuncts_of[single] = (idx,)
        if len(inv) > 1:
            idx = table.add(S.star([decl_of[n].body for n in inv]), " && ".join(inv), span)
            table.whole_of[inv] = idx
            table.conjuncts_of[inv] = tuple(table.whole_of[(n,)] for n in inv)

    for inv, span in checked.inv_sites:
        ensure(inv, span)
    # invariant bodies may themselves mention Acq/Rel resources
    for d in program.invariants:
        for x in S.walk_assertion(d.body):
            if isinstance(x, S.AResource) and x.inv:
                ensure(x.inv, x.span)
    return table


# ---------------------------------------------------------------------------
# Value substitution
# ---------------------------------------------------------------------------

def _mentions_value(e: Optional[S.Expr]) -> bool:
    return e is not None and any(isinstance(x, S.EInvVal) for x in S.walk_expr(e))


def substitute(q, value: S.Expr):
    """Instantiate an invariant body, surface or encoded, at a value.

    The assertion language has no binders, so plain structural replacement
    of the distinguished parameter is already capture-avoiding.  A star is
    flattened again by ``estar``, as lowering the instantiated body would.
    """
    def at_value(e: S.Expr) -> S.Expr:
        return value if isinstance(e, S.EInvVal) else e

    def restar(x):
        return estar(list(x.parts)) if type(x) is AStar else x

    return S.map_assertion(q, lambda e: S.map_expr(e, at_value), on_node=restar)


# ---------------------------------------------------------------------------
# Encoded assertions
# ---------------------------------------------------------------------------

WILDCARD = "wildcard"
FULL = 1   # the whole permission to a field or an AcqConjunct instance

# An exact amount, or the WILDCARD marker.  Exact amounts follow the rule of
# ``terms``: an int when integral, else a Fraction, so the executor sums and
# compares them with int arithmetic on the common path; an equal Fraction
# still compares, hashes and prints alike.
PermSpec = Union[int, Fraction, str]

FIELD_VAL = "val"
FIELD_INIT = "init"
FIELD_REL = "rel"
FIELD_ACQ = "acq"


class EAcc(Record):
    """A permission atom: to the field ``res`` (a name) of a location, or to
    its AcqConjunct instance of the conjunct ``res`` (a table index)."""
    # perm: for an instance, FULL for acquire mode and WILDCARD for RMW
    __slots__ = ("loc", "res", "perm", "label", "span", "vals_empty")
    _defaults = {"label": HeapLabel.REAL, "span": NO_SPAN,
                 "vals_empty": False}    # an instance: no value has been read through it


class EFieldEq(Record):
    # value: never EAny, as lowering drops a "_" points-to value
    __slots__ = ("loc", "fld", "value", "label", "span")
    _defaults = {"label": HeapLabel.REAL, "span": NO_SPAN}


class EError(Record):
    """A table body whose lowering at a site failed, in place of that body.
    The executor fails with its diagnostic only a path that reaches it."""
    __slots__ = ("diagnostic",)


EncAssertion = Union[APure, EAcc, EFieldEq, AStar, AImplies, ACond, EError]

E_TRUE = APure(expr=S.TRUE_E)


def estar(parts: list) -> EncAssertion:
    """The flat star of encoded parts, without their ``true`` facts."""
    flat: list = []
    for p in parts:
        t = type(p)
        if t is AStar:
            flat.extend(p.parts)
        elif t is APure and p.expr == S.TRUE_E:
            continue
        else:
            flat.append(p)
    if not flat:
        return E_TRUE
    if len(flat) == 1:
        return flat[0]
    return AStar(parts=tuple(flat))


# ---------------------------------------------------------------------------
# Lowering: surface assertion -> encoded assertion
# ---------------------------------------------------------------------------

class LowerCtx(Record):
    __slots__ = ("table", "classes")    # classes: variable classifications for this scope

    def is_ghost(self, loc: str) -> bool:
        return self.classes.get(loc) == GHOST


def lower(a: S.Assertion, ctx: LowerCtx, label: HeapLabel = HeapLabel.REAL) -> EncAssertion:
    """Encode a surface assertion; atoms on ghost locations keep the real label."""
    t = type(a)
    if t is APure:
        return a
    if t is S.APointsTo:
        k = _perm_of(a.frac, a.span)
        lbl = _loc_label(a.loc, label, ctx)
        parts = [
            EAcc(a.loc, FIELD_VAL, k, lbl, a.span),
            EAcc(a.loc, FIELD_INIT, k, lbl, a.span),
        ]
        if type(a.value) is not S.EAny:
            parts.append(EFieldEq(a.loc, FIELD_VAL, a.value, lbl, a.span))
        parts.append(EFieldEq(a.loc, FIELD_INIT, S.TRUE_E, lbl, a.span))
        return estar(parts)
    if t is S.AResource:
        lbl = _loc_label(a.loc, label, ctx)
        if a.kind == "Uninit":
            return estar([
                EAcc(a.loc, FIELD_VAL, FULL, lbl, a.span),
                EAcc(a.loc, FIELD_INIT, FULL, lbl, a.span),
                EFieldEq(a.loc, FIELD_INIT, S.FALSE_E, lbl, a.span),
            ])
        if a.kind == "Init":
            return EAcc(a.loc, FIELD_INIT, WILDCARD, lbl, a.span)
        if a.kind == "Rel":
            return estar([
                EAcc(a.loc, FIELD_REL, WILDCARD, lbl, a.span),
                EFieldEq(a.loc, FIELD_REL, S.EInt(ctx.table.whole(a.inv)), lbl, a.span),
            ])
        # Acq holds each conjunct whole, RMWAcq a wildcard share of it
        acq = a.kind == "Acq"
        parts: list = [
            EAcc(a.loc, FIELD_ACQ, WILDCARD, lbl, a.span),
            EFieldEq(a.loc, FIELD_ACQ, S.TRUE_E if acq else S.FALSE_E, lbl, a.span),
        ]
        for i in ctx.table.conjuncts(a.inv):
            parts.append(EAcc(a.loc, i, FULL if acq else WILDCARD, lbl, a.span,
                              vals_empty=acq))
        return estar(parts)
    if t is AStar:
        return estar([lower(p, ctx, label) for p in a.parts])
    if t is AImplies:
        return AImplies(a.span, a.cond, lower(a.body, ctx, label))
    if t is ACond:
        return ACond(a.span, a.cond, lower(a.then, ctx, label), lower(a.els, ctx, label))
    if t is S.AModal:
        target = HeapLabel.UP if a.kind == "Up" else HeapLabel.DOWN
        return lower(a.body, ctx, _shift(label, target, a.span))
    raise AssertionError(a)


def _loc_label(loc: str, label: HeapLabel, ctx: LowerCtx) -> HeapLabel:
    return HeapLabel.REAL if ctx.is_ghost(loc) else label


def _shift(current: HeapLabel, target: HeapLabel, span: Span) -> HeapLabel:
    if current != HeapLabel.REAL:
        raise FrontendError(Diagnostic(
            DOUBLE_MODALITY, span, rule="assertion-encoding",
            message="nested up/down modalities are not part of the logic"))
    return target


def _perm_of(frac: Optional[S.Expr], span: Span) -> PermSpec:
    if frac is None:
        return FULL
    k = fraction_amount(frac, span)
    if k is None:
        raise UnsupportedFeature(
            "symbolic fraction expressions (counting permissions) are outside "
            "the supported core", span)
    return k.numerator if k.denominator == 1 else k


# ---------------------------------------------------------------------------
# Relabeling (the up/down/tmp modalities)
# ---------------------------------------------------------------------------

def relabel(a: EncAssertion, target: HeapLabel, ctx: LowerCtx) -> EncAssertion:
    """Move every real-heap location atom to the ``target`` heap.

    The real heap is the identity modality, and ghost-location atoms are
    left untouched by every modality.  An atom already in another heap means
    a modality was stacked on another one, which the logic never does.
    """
    if target == HeapLabel.REAL:
        return a

    def on_node(x: EncAssertion) -> EncAssertion:
        if type(x) is AStar:
            return estar(list(x.parts))
        if not hasattr(x, "label") or ctx.is_ghost(x.loc):
            return x
        if x.label != HeapLabel.REAL:
            raise FrontendError(Diagnostic(
                DOUBLE_MODALITY, x.span, rule="assertion-encoding",
                message=f"cannot relabel a {x.label} atom with {{real->{target}}}"))
        return x.replace(label=target)

    return S.map_assertion(a, None, on_node=on_node)


def enc_labels(a: EncAssertion) -> set[HeapLabel]:
    """All heap labels on atoms of an encoded assertion."""
    return {x.label for x in S.walk_assertion(a) if hasattr(x, "label")}


def pp_enc(a: EncAssertion) -> str:
    if isinstance(a, APure):
        return S.pp_expr(a.expr)
    if isinstance(a, EAcc):
        amt = "wildcard" if a.perm == WILDCARD else str(a.perm)
        if type(a.res) is not int:
            return f"acc({a.loc}.{a.res}, {amt})@{a.label}"
        empty = ", valsRead == {}" if a.vals_empty else ""
        return f"acc(AcqConjunct({a.loc}, {a.res}), {amt})@{a.label}{empty}"
    if isinstance(a, EFieldEq):
        return f"{a.loc}.{a.fld}@{a.label} == {S.pp_expr(a.value)}"
    if isinstance(a, AStar):
        return " && ".join(pp_enc(p) for p in a.parts)
    if isinstance(a, AImplies):
        return f"({S.pp_expr(a.cond)} ==> {pp_enc(a.body)})"
    if isinstance(a, ACond):
        return f"({S.pp_expr(a.cond)} ? {pp_enc(a.then)} : {pp_enc(a.els)})"
    if isinstance(a, EError):
        return f"error({a.diagnostic.format()})"
    raise AssertionError(a)
