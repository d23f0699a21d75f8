"""Dynamic soundness checks and state-to-assertion reconstruction.

The soundness argument for the encoding rests on invariants of the symbolic
states at statement boundaries; the central one for non-atomic locations is
that the val and init fields always carry identical permission amounts, and
that positive permission to an uninitialised location is full permission.
This module checks those invariants dynamically and can render a state back
as an assertion of the source logic, which is how end-to-end results are
inspected and tested.
"""

from __future__ import annotations

from typing import Optional

from . import terms as T
from .frontend import GHOST, NA
from .solver import Solver, YES
from .speclogic import HeapLabel, InvariantTable
from .symstate import SymState, entailed, model_value, perm_str
from .syntax import Record, Span


class Violation(Record):
    __slots__ = ("location", "label", "message")

    def format(self) -> str:
        tag = "" if self.label == HeapLabel.REAL else f" under {self.label}"
        return f"{self.location}{tag}: {self.message}"


class StateReport(Record):
    __slots__ = ("obligation", "boundary", "span", "violations", "assertion")
    _defaults = {"violations": [], "assertion": ""}

    def to_json(self) -> dict:
        return {
            "obligation": self.obligation,
            "boundary": self.boundary,
            "line": self.span.line,
            "col": self.span.col,
            "violations": [v.format() for v in self.violations],
            "assertion": self.assertion,
        }


def check_state_invariants(state: SymState, solver: Solver,
                           classes: dict[str, str]) -> list[Violation]:
    """Check the per-boundary invariants for every non-atomic location."""
    out: list[Violation] = []
    seen: set[tuple] = set()
    for key in sorted(state.heap):
        chunk = state.heap[key]
        name = chunk.ref.name
        if key[0] or not (chunk.ref.ghost or classes.get(name) == NA):
            continue
        group = (chunk.label.value, chunk.ref.id)
        if group in seen:
            continue
        seen.add(group)
        pv = state.perm(chunk.ref, "val", chunk.label)
        pi = state.perm(chunk.ref, "init", chunk.label)
        if pv is not pi and entailed(solver, state, T.eq(pv, pi)).verdict != YES:
            out.append(Violation(
                name, chunk.label, f"val permission {perm_str(pv)} differs "
                f"from init permission {perm_str(pi)}"))
            continue
        init_chunk = state.heap.get(state.key(chunk.ref, "init", chunk.label))
        if init_chunk is None or pv is T.ZERO:
            continue
        init_true = entailed(solver, state, init_chunk.value).verdict == YES
        if not init_true:
            full = pv is T.ONE or entailed(
                solver, state, T.eq(pv, T.ONE)).verdict == YES
            if not full:
                out.append(Violation(
                    name, chunk.label, "position may be uninitialised but "
                    f"permission is {perm_str(pv)}, not 1"))
    return out


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def _perm_str(p: T.Term) -> str:
    return "¹" if p is T.ONE else f"[{perm_str(p)}]"


def _value_str(state: SymState, solver: Solver, value: T.Term) -> str:
    if value.kind == "num":
        return T.num_str(value.data)
    if value.sort == T.BOOL:
        for lit, txt in ((value, "true"), (T.not_(value), "false")):
            if entailed(solver, state, lit).verdict == YES:
                return txt
        return T.pretty(value)
    v = model_value(solver, state, value)
    return T.num_str(v) if v is not None else T.pretty(value)


def reconstruct_assertion(state: SymState, solver: Solver,
                          classes: dict[str, str],
                          table: Optional[InvariantTable] = None) -> str:
    """Render the resources of a state as an assertion of the source logic.

    Non-atomics become Uninit or points-to atoms, atomics are summarised as
    Init / Rel / Acq / RMWAcq with invariant names from the table; values
    already read through an acquire conjunct are shown as obliterated.
    Up/down-labeled resources are wrapped in the matching modality.
    """
    by_label: dict[HeapLabel, list[str]] = {}

    refs = {(c.label.value, c.ref.id): c.ref for c in state.heap.values()}

    for (label_val, _id), ref in sorted(refs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        label = HeapLabel(label_val)
        name = ref.name
        cls = GHOST if ref.ghost else classes.get(name)
        parts: list[str] = []
        fields = {r: state.heap.get(state.key(ref, r, label))
                  for r in ("val", "init", "rel", "acq")}
        val_chunk, init_chunk = fields["val"], fields["init"]
        if cls in (NA, GHOST) or (cls is None and val_chunk):
            if val_chunk is not None:
                init_false = (init_chunk is not None and entailed(
                    solver, state, T.not_(init_chunk.value)).verdict == YES)
                if init_false:
                    parts.append(f"Uninit({name})")
                else:
                    parts.append(f"{name} ↦{_perm_str(val_chunk.perm)} "
                                 f"{_value_str(state, solver, val_chunk.value)}")
        else:
            if init_chunk is not None and init_chunk.perm is not T.ZERO:
                parts.append(f"Init({name})")
            rel_chunk = fields["rel"]
            if rel_chunk is not None:
                parts.append(f"Rel({name}, {_inv_name(state, solver, rel_chunk.value, table)})")
            acq_chunk = fields["acq"]
            conjuncts = [state.heap[k] for k in sorted(state.heap)
                         if k[0] and k[1] == label.value and k[2] == ref.id]
            if acq_chunk is not None and conjuncts:
                is_acq = entailed(solver, state, acq_chunk.value).verdict == YES
                bodies = []
                for pc in conjuncts:
                    nm = table.names.get(pc.res, f"#{pc.res}") if table else f"#{pc.res}"
                    if pc.value and is_acq:
                        vals = ", ".join(_value_str(state, solver, v) for v in pc.value)
                        nm += f" with V in {{{vals}}} obliterated"
                    bodies.append(nm)
                kind = "Acq" if is_acq else "RMWAcq"
                parts.append(f"{kind}({name}, {' && '.join(bodies)})")
        if parts:
            by_label.setdefault(label, []).extend(parts)

    rendered: list[str] = []
    for label in (HeapLabel.REAL, HeapLabel.UP, HeapLabel.DOWN, HeapLabel.TMP):
        parts = by_label.get(label, [])
        if not parts:
            continue
        body = " ∗ ".join(parts)
        if label == HeapLabel.UP:
            rendered.append(f"⇑({body})")
        elif label == HeapLabel.DOWN:
            rendered.append(f"⇓({body})")
        elif label == HeapLabel.TMP:
            rendered.append(f"[tmp]({body})")
        else:
            rendered.append(body)
    return " ∗ ".join(rendered) if rendered else "true"


def _inv_name(state: SymState, solver: Solver, value: T.Term,
              table: Optional[InvariantTable]) -> str:
    v = model_value(solver, state, value)
    if v is not None and table is not None:
        idx = int(v)
        if idx in table.names:
            return table.names[idx]
    if v is not None:
        return f"#{int(v)}"
    return T.pretty(value)


def make_report(obligation: str, boundary: str, span: Span, state: SymState,
                solver: Solver, classes: dict[str, str],
                table: Optional[InvariantTable] = None) -> StateReport:
    violations = check_state_invariants(state, solver, classes)
    return StateReport(obligation, boundary, span, violations,
                       reconstruct_assertion(state, solver, classes, table))
