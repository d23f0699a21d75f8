"""Translation of source statements into verification primitives.

Each statement becomes a short, state-independent sequence of primitives
(inhale, exhale, havocs, branches, heap transfers), all of them plain data.
One ``Exhale`` serves every consume; its ``take`` is ``"own"`` (each atom's
heap pays), ``"tmp"`` (the CAS release: the tmp heap first) or ``"none"`` (a
check-only assert).  Where a statement acts on one invariant conjunct at a
time, the encoder gives it the body of every index a conjunct can have, that
of each single invariant; the executor iterates over the conjuncts a state
holds and runs only their bodies, which is equivalent to a static expansion
over those indices because only held conjuncts pass the permission guard.
A release chain branches on the whole invariant stored in ``rel``, so it
keeps a body for every index.

Each table body is lowered once per procedure and modality (the heap its
real-heap atoms move to), with its value parameter ``V`` left in place, as
the paper encodes an invariant once as a function of its value.  A
primitive that runs a body carries the expression ``V`` stands for at its
site, and the executor binds it; the printer instantiates it, so dumps and
traces read as if the body were lowered at each site.  A body whose
fractions mention ``V`` is the exception: lowering checks amounts, so it is
instantiated and lowered per site.  A body that cannot be lowered at a
site becomes an ``EError`` node, which fails only a path that runs it.

Loops take one of two shapes: with an annotated invariant they get the
standard exhale/havoc/inhale treatment (the body is verified against the
invariant alone), and annotation-free spin loops - an empty body whose
condition is a single atomic read or CAS compared against a value - are
treated as a single read or update constrained by the exit condition.
"""

from __future__ import annotations

from typing import Optional

from . import syntax as S
from . import speclogic as L
from .diagnostics import (
    Diagnostic, FrontendError,
    EXHALE_FAILURE, INSUFFICIENT_PERMISSION, READ_OF_UNINITIALISED,
    UNINITIALISED, NO_REL_PERMISSION, NO_ACQ_PERMISSION,
    MISSING_RMW_PERMISSIONS, REWRITE_NOT_JUSTIFIED, REWRITE_AFTER_READ,
    MISSING_LOOP_INVARIANT, SPIN_PATTERN_RESOURCE_LEAK, DOWN_IN_LOOP_INVARIANT,
)
from .frontend import CheckedProgram
from .speclogic import (
    EAcc, EError, EFieldEq, EncAssertion, HeapLabel, InvariantTable,
    FULL, LowerCtx, WILDCARD, estar, lower, relabel,
    substitute, enc_labels, FIELD_ACQ, FIELD_INIT, FIELD_REL, FIELD_VAL,
)
from .syntax import NO_SPAN, Record, Span


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

class BranchCond(Record):
    __slots__ = ("kind",    # expr | nondet | notread | releq
                 "expr", "loc", "idx", "value")
    _defaults = {"expr": None,     # expr
                 "loc": "",        # notread / releq
                 "idx": 0,         # notread / releq
                 "value": None}    # notread: the candidate value


class Inhale(Record):
    __slots__ = ("enc", "rule", "span", "value")
    _defaults = {"rule": "", "span": NO_SPAN,
                 "value": None}    # what `V` stands for in an invariant body


class Exhale(Record):
    __slots__ = ("enc", "rule", "kind", "vals_kind", "bindable", "span", "value", "take")
    _defaults = {"rule": "", "kind": EXHALE_FAILURE,
                 "vals_kind": EXHALE_FAILURE,    # kind for values-read emptiness failures
                 "bindable": frozenset(),        # logical variables open for unification
                 "span": NO_SPAN,
                 "value": None,    # as for Inhale
                 "take": "own"}    # own | tmp (tmp heap first) | none (assert)


class HavocVar(Record):
    __slots__ = ("name", "span")
    _defaults = {"span": NO_SPAN}


class AssignVar(Record):
    __slots__ = ("name", "rhs", "span")    # rhs: ("expr", Expr) or ("fieldval", loc, fld)
    _defaults = {"span": NO_SPAN}


class Branch(Record):
    __slots__ = ("cond", "then", "els", "span")
    _defaults = {"span": NO_SPAN}


class ForEachHeldConjunct(Record):
    # need_full: a full instance (acq) vs any positive (RMW);
    # bodies: table index -> primitives
    __slots__ = ("loc", "need_full", "bodies", "span")
    _defaults = {"span": NO_SPAN}


class TransferHeap(Record):
    __slots__ = ("src", "dst", "rule", "span")
    _defaults = {"rule": "", "span": NO_SPAN}


class KillBranch(Record):
    __slots__ = ("span",)
    _defaults = {"span": NO_SPAN}


class DropAllPerms(Record):
    __slots__ = ("span",)
    _defaults = {"span": NO_SPAN}


class NewLoc(Record):
    __slots__ = ("var", "ghost", "span")
    _defaults = {"ghost": False, "span": NO_SPAN}


class RecordReadValue(Record):
    __slots__ = ("loc", "idx", "value", "span")
    _defaults = {"span": NO_SPAN}


class SpinLeakCheck(Record):
    """Reject spin loops whose discarded reads would gain resources.

    ``lowered`` maps each conjunct index to its lowered body, whose ``V``
    stands for the probe variable; the executor checks, for every fully
    held conjunct, that no permission atom is feasibly gained for a value
    satisfying the continue condition.
    """
    __slots__ = ("loc", "probe", "cont", "lowered", "span")    # cont: over the probe
    _defaults = {"span": NO_SPAN}


# ---------------------------------------------------------------------------
# Obligations
# ---------------------------------------------------------------------------

class Block(Record):
    __slots__ = ("span", "desc", "prims")


class Obligation(Record):
    __slots__ = ("name",
                 "kind",    # procedure | thread
                 "span", "blocks", "var_classes")
    _defaults = {"blocks": [], "var_classes": {}}


# ---------------------------------------------------------------------------
# Encoding context
# ---------------------------------------------------------------------------

class EncodeCtx:
    def __init__(self, checked: CheckedProgram, table: InvariantTable,
                 proc_name: str):
        self.checked = checked
        self.program = checked.program
        self.table = table
        self.proc_name = proc_name
        self.info = checked.info[proc_name]
        self.classes = self.info.classes
        self.lower_ctx = LowerCtx(table, self.classes)
        self._bodies: dict[tuple, EncAssertion] = {}    # (index, label) -> body
        self._fresh = 0
        self.extra_obligations: list[Obligation] = []
        self._thread_count = 0

    def fresh(self, hint: str) -> str:
        self._fresh += 1
        return f"${hint}{self._fresh}"

    def lower(self, a: S.Assertion) -> EncAssertion:
        return lower(a, self.lower_ctx)

    def inv_body(self, idx: int, value: S.Expr, label: HeapLabel = HeapLabel.REAL
                 ) -> tuple[EncAssertion, Optional[S.Expr]]:
        """Table entry ``idx``'s body at ``value``, lowered into the ``label``
        heap: the encoded body and what its ``V`` stands for, None if it does
        not mention ``V``.

        Each body is lowered once per heap, with ``V`` left in place; the
        executor binds it.  A body whose fractions mention ``V`` is
        instantiated and lowered at each site instead, since lowering checks
        its amounts."""
        if idx in self.table.value_fractions:
            return self._lower_body(substitute(self.table.body(idx), value), label), None
        enc = self._bodies.get((idx, label))
        if enc is None:
            enc = self._bodies[idx, label] = self._lower_body(self.table.body(idx), label)
        return enc, (value if idx in self.table.uses_value else None)

    def _lower_body(self, body: S.Assertion, label: HeapLabel) -> EncAssertion:
        """A table body lowered into a heap.  An error that stops the lowering
        becomes an ``EError`` node, which fails only a path that reaches it:
        a site branches on which body runs, and only that one may fail."""
        try:
            return relabel(self.lower(body), label, self.lower_ctx)
        except FrontendError as exc:
            return EError(exc.diagnostic)

    def inv_bodies(self, value: S.Expr, label: HeapLabel = HeapLabel.REAL,
                   conjuncts: bool = False
                   ) -> dict[int, tuple[EncAssertion, Optional[S.Expr]]]:
        """``inv_body`` of every table index, or with ``conjuncts`` of every
        index an AcqConjunct instance can have."""
        indices = self.table.conjunct_indices() if conjuncts else self.table.all_indices()
        return {idx: self.inv_body(idx, value, label) for idx in indices}


def _enc_err(kind: str, span: Span, rule: str, msg: str) -> FrontendError:
    return FrontendError(Diagnostic(kind, span, rule=rule, message=msg))


# ---------------------------------------------------------------------------
# Statement encodings
# ---------------------------------------------------------------------------

def encode_stmt(st: S.Stmt, ctx: EncodeCtx) -> list:
    return _ENCODERS[type(st)](st, ctx)


def encode_block(stmts: list, ctx: EncodeCtx) -> list:
    out: list = []
    for st in stmts:
        out.extend(encode_stmt(st, ctx))
    return out


# -- allocation ---------------------------------------------------------------

def _alloc(st: S.SAlloc, ctx: EncodeCtx) -> list:
    """A new location and its resources: Uninit, or Rel and Acq / RMWAcq."""
    if st.inv:
        reader = "Acq" if st.kind == "acq" else "RMWAcq"
        res = S.star([S.AResource(st.span, "Rel", st.var, st.inv),
                      S.AResource(st.span, reader, st.var, st.inv)])
        rule = f"atomic allocation ({st.kind})"
    else:
        res = S.AResource(st.span, "Uninit", st.var)
        rule = "ghost allocation" if st.kind == "ghost" else "non-atomic allocation"
    return [NewLoc(st.var, st.kind == "ghost", st.span),
            Inhale(ctx.lower(res), rule, st.span)]


# -- non-atomic accesses --------------------------------------------------------

def _whole(loc: str, rule: str, span: Span) -> Exhale:
    """Take the whole permission to a non-atomic location."""
    full = estar([EAcc(loc, FIELD_VAL, FULL, span=span),
                  EAcc(loc, FIELD_INIT, FULL, span=span)])
    return Exhale(full, rule, kind=INSUFFICIENT_PERMISSION, span=span)


def _nonatomic_write(st: S.SWrite, ctx: EncodeCtx) -> list:
    rule = "non-atomic write"
    after = S.APointsTo(st.span, st.loc, st.value)
    return [_whole(st.loc, rule, st.span), Inhale(ctx.lower(after), rule, st.span)]


def _nonatomic_read(st: S.SRead, ctx: EncodeCtx) -> list:
    rule = "non-atomic read"
    return [
        Exhale(EAcc(st.loc, FIELD_VAL, WILDCARD, span=st.span),
               rule, kind=INSUFFICIENT_PERMISSION, span=st.span, take="none"),
        Exhale(EFieldEq(st.loc, FIELD_INIT, S.TRUE_E, span=st.span),
               rule, kind=READ_OF_UNINITIALISED, span=st.span, take="none"),
        AssignVar(st.target, ("fieldval", st.loc, FIELD_VAL), st.span),
    ]


# -- release / relaxed writes ----------------------------------------------------

def _rel_index_chain(loc: str, bodies: dict[int, list], span: Span,
                     rule: str) -> list:
    """Branch on the invariant index stored in the rel field."""
    chain: list = [Exhale(S.APure(span, S.FALSE_E), rule,
                          kind=NO_REL_PERMISSION, span=span, take="none")]
    for idx in reversed(list(bodies)):
        chain = [Branch(BranchCond("releq", loc=loc, idx=idx),
                        bodies[idx], chain, span)]
    return chain


def _atomic_write(loc: str, value: S.Expr, label: HeapLabel,
                  rule: str, span: Span, ctx: EncodeCtx) -> list:
    bodies = {idx: [Exhale(enc, rule, span=span, value=v)]
              for idx, (enc, v) in ctx.inv_bodies(value, label).items()}
    prims: list = [
        Exhale(EAcc(loc, FIELD_REL, WILDCARD, span=span),
               rule, kind=NO_REL_PERMISSION, span=span, take="none"),
    ]
    prims += _rel_index_chain(loc, bodies, span, rule)
    prims.append(Inhale(EAcc(loc, FIELD_INIT, WILDCARD, span=span), rule, span))
    return prims


# -- acquire / relaxed reads ------------------------------------------------------

def _read_gain(loc: str, value: S.Expr, label: HeapLabel,
               rule: str, span: Span, ctx: EncodeCtx) -> ForEachHeldConjunct:
    """Gain each held conjunct's body at a value not read through it before."""
    bodies = {idx: [Branch(
                  BranchCond("notread", loc=loc, idx=idx, value=value),
                  [Inhale(enc, rule, span, v), RecordReadValue(loc, idx, value, span)],
                  [], span)]
              for idx, (enc, v) in ctx.inv_bodies(value, label, conjuncts=True).items()}
    return ForEachHeldConjunct(loc, need_full=True, bodies=bodies, span=span)


def _init_held(loc: str, rule: str, span: Span) -> Exhale:
    return Exhale(EAcc(loc, FIELD_INIT, WILDCARD, span=span),
                  rule, kind=UNINITIALISED, span=span, take="none")


def _reader_held(loc: str, acq: bool, rule: str, span: Span) -> Exhale:
    """Assert the Acq (``acq``) or the RMWAcq permission to a location."""
    return Exhale(estar([EAcc(loc, FIELD_ACQ, WILDCARD, span=span),
                         EFieldEq(loc, FIELD_ACQ, S.TRUE_E if acq else S.FALSE_E,
                                  span=span)]),
                  rule, kind=NO_ACQ_PERMISSION if acq else MISSING_RMW_PERMISSIONS,
                  span=span, take="none")


def _atomic_read(target: str, loc: str, label: HeapLabel,
                 rule: str, span: Span, ctx: EncodeCtx) -> list:
    return [
        _init_held(loc, rule, span),
        _reader_held(loc, True, rule, span),
        HavocVar(target, span),
        _read_gain(loc, S.EVar(target), label, rule, span, ctx),
    ]


# -- compare-and-swap / fetch-update ----------------------------------------------

def _cas(target: str, tau: str, loc: str, expected: S.Expr, newval: S.Expr,
         span: Span, ctx: EncodeCtx, never_fails: bool) -> list:
    rule = "fetch-update" if never_fails else "compare-and-swap"
    write_sync = tau in ("rel", "rel_acq")
    read_sync = tau in ("acq", "rel_acq")

    tmp_gain = {idx: [Inhale(enc, rule + " read gain", span, v)]
                for idx, (enc, v) in ctx.inv_bodies(S.EVar(target), HeapLabel.TMP,
                                                    conjuncts=True).items()}
    release = {idx: [Exhale(enc, rule + " release", span=span, value=v, take="tmp")]
               for idx, (enc, v) in ctx.inv_bodies(
                   newval, HeapLabel.REAL if write_sync else HeapLabel.UP).items()}
    success: list = [
        ForEachHeldConjunct(loc, need_full=False, bodies=tmp_gain, span=span),
    ]
    success += _rel_index_chain(loc, release, span, rule)
    success.append(TransferHeap(
        HeapLabel.TMP, HeapLabel.REAL if read_sync else HeapLabel.DOWN,
        rule + " read transfer", span))

    prims: list = [
        _init_held(loc, rule, span),
        _reader_held(loc, False, rule, span),
        Exhale(EAcc(loc, FIELD_REL, WILDCARD, span=span),
               rule, kind=NO_REL_PERMISSION, span=span, take="none"),
        HavocVar(target, span),
    ]
    if never_fails:
        prims += success
    else:
        cond = BranchCond("expr", expr=S.EBin("==", S.EVar(target), expected))
        prims.append(Branch(cond, success, [], span))
    return prims


# -- invariant rewriting -----------------------------------------------------------

def _rewrite(st: S.SRewrite, ctx: EncodeCtx) -> list:
    rule = "invariant rewrite"
    probe = ctx.fresh("rw")

    def at_probe(inv: S.InvRef) -> EncAssertion:
        return estar([ctx.inv_body(i, S.EVar(probe))[0] for i in ctx.table.conjuncts(inv)])

    # V is bound to the probe even where no body mentions it
    justification = [
        DropAllPerms(st.span),
        HavocVar(probe, st.span),
        Inhale(at_probe(st.old), rule + " assumption", st.span, S.EVar(probe)),
        Exhale(at_probe(st.new), rule, kind=REWRITE_NOT_JUSTIFIED, span=st.span,
               value=S.EVar(probe)),
        KillBranch(st.span),
    ]
    old_insts = estar([EAcc(st.loc, i, FULL, span=st.span, vals_empty=True)
                       for i in ctx.table.conjuncts(st.old)])
    new_insts = estar([EAcc(st.loc, i, FULL, span=st.span, vals_empty=True)
                       for i in ctx.table.conjuncts(st.new)])
    return [
        _reader_held(st.loc, True, rule, st.span),
        Branch(BranchCond("nondet"), justification, [], st.span),
        Exhale(old_insts, rule + " update", kind=EXHALE_FAILURE,
               vals_kind=REWRITE_AFTER_READ, span=st.span),
        Inhale(new_insts, rule + " update", st.span),
    ]


# -- loops ---------------------------------------------------------------------------

def _negate_cmp(op: str, lhs: S.Expr, rhs: S.Expr) -> S.Expr:
    flip = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
    return S.EBin(flip[op], lhs, rhs)


def _while(st: S.SWhile, ctx: EncodeCtx) -> list:
    cond = st.cond
    if st.invariant is None:
        if not st.body and cond.kind == "read":
            return _spin_read(st, ctx)
        if not st.body and cond.kind == "cas":
            return _spin_cas(st, ctx)
        raise _enc_err(MISSING_LOOP_INVARIANT, st.span, "loop",
                       "loop needs an invariant (only empty spin loops over a "
                       "single atomic read or CAS may omit one)")
    inv_enc = ctx.lower(st.invariant)
    if HeapLabel.DOWN in enc_labels(inv_enc):
        raise _enc_err(DOWN_IN_LOOP_INVARIANT, st.span, "loop",
                       "loop invariants must not hold resources under the "
                       "down modality; insert an acquire fence first")
    targets = sorted(ctx.info.scope(st.body).binds)
    rule = "loop invariant"
    body_arm: list = [DropAllPerms(st.span)]
    body_arm += [HavocVar(v, st.span) for v in targets]
    body_arm += [
        Inhale(inv_enc, rule + " (body entry)", st.span),
        Inhale(S.APure(st.span, cond.expr), rule, st.span),
    ]
    body_arm += encode_block(st.body, ctx)
    body_arm += [
        Exhale(inv_enc, rule + " maintained", span=st.span),
        KillBranch(st.span),
    ]
    exit_arm: list = [HavocVar(v, st.span) for v in targets]
    exit_arm += [
        Inhale(inv_enc, rule + " (after loop)", st.span),
        Inhale(S.APure(st.span, S.EUn("!", cond.expr)), rule, st.span),
    ]
    return [
        Exhale(inv_enc, rule + " on entry", span=st.span),
        Branch(BranchCond("nondet"), body_arm, exit_arm, st.span),
    ]


def _spin_read(st: S.SWhile, ctx: EncodeCtx) -> list:
    cond = st.cond
    if cond.mode == "na":
        raise _enc_err(MISSING_LOOP_INVARIANT, st.span, "spin loop",
                       "spin loops must read atomically")
    label = HeapLabel.DOWN if cond.mode == "rlx" else HeapLabel.REAL
    rule = "spin loop (" + ("relaxed" if cond.mode == "rlx" else "acquire") + " read)"
    probe = ctx.fresh("spin")
    cont = S.EBin(cond.op, S.EVar(probe), cond.rhs)
    lowered = {idx: enc for idx, (enc, _) in ctx.inv_bodies(S.EVar(probe),
                                                              conjuncts=True).items()}
    prims: list = [
        _init_held(cond.loc, rule, st.span),
        _reader_held(cond.loc, True, rule, st.span),
        SpinLeakCheck(cond.loc, probe, cont, lowered, st.span),
    ]
    if cond.op == "==":
        # the only discarded value is the compare constant: record it
        record = {idx: [RecordReadValue(cond.loc, idx, cond.rhs, st.span)]
                  for idx in ctx.table.conjunct_indices()}
        prims.append(ForEachHeldConjunct(cond.loc, True, record, st.span))
    prims += [
        HavocVar(probe, st.span),
        _read_gain(cond.loc, S.EVar(probe), label, rule, st.span, ctx),
        Inhale(S.APure(st.span, _negate_cmp(cond.op, S.EVar(probe), cond.rhs)),
               rule + " exit", st.span),
    ]
    return prims


def _spin_cas(st: S.SWhile, ctx: EncodeCtx) -> list:
    cond = st.cond
    # the exit condition must coincide with CAS success: failed attempts are
    # no-ops, so the loop reduces to one successful CAS
    exit_is_success = (cond.op == "!=" and cond.rhs == cond.expected)
    if not exit_is_success:
        raise _enc_err(SPIN_PATTERN_RESOURCE_LEAK, st.span, "spin loop (CAS)",
                       "a CAS spin loop must exit exactly when the CAS "
                       "succeeds; use an annotated loop otherwise")
    probe = ctx.fresh("spin")
    prims = _cas(probe, cond.mode, cond.loc, cond.expected, cond.newval,
                 st.span, ctx, never_fails=False)
    prims.append(Inhale(S.APure(st.span, _negate_cmp(cond.op, S.EVar(probe), cond.rhs)),
                        "spin loop (CAS) exit", st.span))
    return prims


# -- structured parallelism and calls ---------------------------------------------

def _par(st: S.SPar, ctx: EncodeCtx) -> list:
    pres = [ctx.lower(th.pre) for th in st.threads]
    posts = [ctx.lower(th.post) for th in st.threads]
    prims: list = []
    for k, (th, pre) in enumerate(zip(st.threads, pres), start=1):
        prims.append(Exhale(pre, rule=f"thread {k} fork", span=th.span))
    for k, (th, post) in enumerate(zip(st.threads, posts), start=1):
        prims.append(Inhale(post, rule=f"thread {k} join", span=th.span))
    # each thread's own obligation, with its specs as lowered for the fork
    # and the join
    for th, pre, post in zip(st.threads, pres, posts):
        ctx._thread_count += 1
        name = f"{ctx.proc_name}::thread{ctx._thread_count}"
        ctx.extra_obligations.append(
            _obligation(name, th, pre, post, ctx, prefix="thread "))
    return prims


def _call(st: S.SCall, ctx: EncodeCtx) -> list:
    callee = next(p for p in ctx.program.procedures if p.name == st.callee)
    mapping: dict[str, S.Expr] = {
        p.name: a for p, a in zip(callee.params, st.args)
    }
    ret_targets: list[str] = []
    if callee.returns:
        if st.target:
            ret_targets = [st.target]
            ret_targets += [ctx.fresh("ret") for _ in callee.returns[1:]]
        else:
            ret_targets = [ctx.fresh("ret") for _ in callee.returns]
        for p, t in zip(callee.returns, ret_targets):
            mapping[p.name] = S.EVar(t)
    bound = {p.name for p in callee.params} | {p.name for p in callee.returns}
    logical = sorted(ctx.checked.info[callee.name].spec_vars(callee.pre) - bound)
    fresh_logical = {v: S.EVar(ctx.fresh("log")) for v in logical}
    mapping.update(fresh_logical)
    prims: list = [Exhale(
        ctx.lower(S.instantiate(callee.pre, mapping, st.span)[0]),
        rule=f"precondition of {st.callee}",
        bindable=frozenset(e.name for e in fresh_logical.values()), span=st.span)]
    prims += [HavocVar(t, st.span) for t in ret_targets]
    prims.append(Inhale(ctx.lower(S.instantiate(callee.post, mapping, st.span)[0]),
                        rule=f"postcondition of {st.callee}", span=st.span))
    return prims


def _free(st: S.SFree, ctx: EncodeCtx) -> list:
    return [_whole(st.var, "free", st.span)]


def _write(st: S.SWrite, ctx: EncodeCtx) -> list:
    if st.mode == "na":
        return _nonatomic_write(st, ctx)
    if st.mode == "rlx":
        return _atomic_write(st.loc, st.value, HeapLabel.UP, "relaxed write", st.span, ctx)
    return _atomic_write(st.loc, st.value, HeapLabel.REAL, "release write", st.span, ctx)


def _read(st: S.SRead, ctx: EncodeCtx) -> list:
    if st.mode == "na":
        return _nonatomic_read(st, ctx)
    if st.mode == "rlx":
        return _atomic_read(st.target, st.loc, HeapLabel.DOWN, "relaxed read", st.span, ctx)
    return _atomic_read(st.target, st.loc, HeapLabel.REAL, "acquire read", st.span, ctx)


def _fence_rel(st: S.SFenceRel, ctx: EncodeCtx) -> list:
    enc = ctx.lower(st.assertion)
    return [
        Exhale(enc, rule="release fence", span=st.span),
        Inhale(relabel(enc, HeapLabel.UP, ctx.lower_ctx), rule="release fence",
               span=st.span),
    ]


def _faa(st: S.SFaa, ctx: EncodeCtx) -> list:
    probe = S.EVar(st.target)
    newval = S.EBin("+", probe, st.delta)
    return _cas(st.target, st.tau, st.loc, probe, newval, st.span, ctx, never_fails=True)


def _if(st: S.SIf, ctx: EncodeCtx) -> list:
    return [Branch(BranchCond("expr", expr=st.cond),
                   encode_block(st.then, ctx), encode_block(st.els, ctx), st.span)]


# the encoding of each statement class
_ENCODERS = {
    S.SAssign: lambda st, ctx: [AssignVar(st.var, ("expr", st.value), st.span)],
    S.SWrite: _write, S.SRead: _read, S.SAlloc: _alloc,
    S.SCas: lambda st, ctx: _cas(st.target, st.tau, st.loc, st.expected, st.newval,
                                 st.span, ctx, never_fails=False),
    S.SFaa: _faa, S.SIf: _if, S.SWhile: _while, S.SCall: _call, S.SFree: _free,
    S.SRewrite: _rewrite, S.SFenceRel: _fence_rel, S.SPar: _par,
    S.SFenceAcq: lambda st, ctx: [TransferHeap(HeapLabel.DOWN, HeapLabel.REAL,
                                               "acquire fence", st.span)],
    S.SSkip: lambda st, ctx: [],
}


# ---------------------------------------------------------------------------
# Obligation assembly
# ---------------------------------------------------------------------------

# block descriptions, as dumps and reports name them: of each allocation
# kind, and of each other statement class
_ALLOC_DESCS = {"na": "allocna", "ghost": "ghostalloc", "acq": "allocatomic",
                "rmw": "allocatomic"}
_DESCS = {cls: cls.__name__[1:].lower() for cls in _ENCODERS}


def _describe(st: S.Stmt) -> str:
    return _ALLOC_DESCS[st.kind] if type(st) is S.SAlloc else _DESCS[type(st)]


def _obligation(name: str, owner, pre: EncAssertion, post: EncAssertion, ctx: EncodeCtx,
                extra: frozenset = frozenset(), prefix: str = "") -> Obligation:
    """The obligation of a procedure or, with ``prefix`` ``"thread "``, of a
    thread: havoc the names of its specs and body and the ``extra`` ones,
    inhale ``pre``, run the body a block per statement, exhale ``post``."""
    span = owner.span
    free = ctx.info.spec_vars(owner.pre) | ctx.info.spec_vars(owner.post)
    free |= ctx.info.scope(owner.body).uses | extra
    setup: list = [HavocVar(v, span) for v in sorted(free)]
    setup.append(Inhale(pre, prefix + "precondition", span))
    ob = Obligation(name, "thread" if prefix else "procedure", span,
                    var_classes=dict(ctx.classes))
    ob.blocks.append(Block(span, prefix + "setup", setup))
    for st in owner.body:
        ob.blocks.append(Block(st.span, _describe(st), encode_stmt(st, ctx)))
    ob.blocks.append(Block(span, prefix + "postcondition",
                           [Exhale(post, rule=prefix + "postcondition", span=span)]))
    return ob


def build_obligations(checked: CheckedProgram, table: InvariantTable,
                      proc: S.Procedure) -> list[Obligation]:
    """Encode one procedure: its own obligation plus one per forked thread.
    Its specs are lowered before its body, as a thread's are."""
    ctx = EncodeCtx(checked, table, proc.name)
    params = frozenset(p.name for p in proc.params + proc.returns)
    ob = _obligation(proc.name, proc, ctx.lower(proc.pre), ctx.lower(proc.post), ctx,
                     params)
    return [ob] + ctx.extra_obligations


# ---------------------------------------------------------------------------
# Primitive pretty-printing (--dump-primitives)
# ---------------------------------------------------------------------------

_EXHALE_WORDS = {"own": "exhale", "none": "assert", "tmp": "exhale[tmp-first]"}


def pp_primitive(p, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(p, Inhale):
        return [f"{pad}inhale {_pp_bound(p)}"]
    if isinstance(p, Exhale):
        return [f"{pad}{_EXHALE_WORDS[p.take]} {_pp_bound(p)}"]
    if isinstance(p, HavocVar):
        return [f"{pad}havoc {p.name}"]
    if isinstance(p, AssignVar):
        rhs = (S.pp_expr(p.rhs[1]) if p.rhs[0] == "expr"
               else f"{p.rhs[1]}.{p.rhs[2]}")
        return [f"{pad}{p.name} := {rhs}"]
    if isinstance(p, Branch):
        c = p.cond
        if c.kind == "expr":
            cond = S.pp_expr(c.expr)
        elif c.kind == "nondet":
            cond = "*"
        elif c.kind == "notread":
            cond = f"!({S.pp_expr(c.value)} in valsRead({c.loc}, {c.idx}))"
        else:
            cond = f"{c.loc}.rel == {c.idx}"
        out = [f"{pad}branch {cond} {{"]
        for q in p.then:
            out.extend(pp_primitive(q, indent + 1))
        if p.els:
            out.append(f"{pad}}} else {{")
            for q in p.els:
                out.extend(pp_primitive(q, indent + 1))
        out.append(f"{pad}}}")
        return out
    if isinstance(p, ForEachHeldConjunct):
        guard = "== 1" if p.need_full else "> 0"
        out = [f"{pad}foreach held AcqConjunct({p.loc}, i) with perm {guard} {{"]
        for i, body in p.bodies.items():
            out.append(f"{pad}  // i = {i}")
            for q in body:
                out.extend(pp_primitive(q, indent + 1))
        out.append(f"{pad}}}")
        return out
    if isinstance(p, TransferHeap):
        return [f"{pad}transfer {p.src} -> {p.dst}"]
    if isinstance(p, KillBranch):
        return [f"{pad}assume false // kill branch"]
    if isinstance(p, DropAllPerms):
        return [f"{pad}drop all permissions"]
    if isinstance(p, NewLoc):
        g = " (ghost)" if p.ghost else ""
        return [f"{pad}{p.var} := new(){g}"]
    if isinstance(p, RecordReadValue):
        return [f"{pad}valsRead({p.loc}, {p.idx}) += {S.pp_expr(p.value)}"]
    if isinstance(p, SpinLeakCheck):
        return [f"{pad}check spin-discarded reads of {p.loc} gain no resources"]
    raise AssertionError(p)


def _pp_bound(p) -> str:
    """A primitive's assertion with ``V`` instantiated at its value."""
    return L.pp_enc(p.enc if p.value is None else substitute(p.enc, p.value))


def dump_primitives(obligations: list[Obligation]) -> str:
    lines: list[str] = []
    for ob in obligations:
        lines.append(f"=== {ob.kind} {ob.name} ===")
        for blk in ob.blocks:
            lines.append(f"-- {blk.desc} @ {blk.span.line}:{blk.span.col}")
            for p in blk.prims:
                lines.extend(pp_primitive(p, 1))
    return "\n".join(lines) + "\n"
