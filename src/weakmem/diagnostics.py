"""Verification and well-formedness diagnostics."""

from __future__ import annotations

from .syntax import NO_SPAN, Record, Span

# frontend / well-formedness
SYNTAX_ERROR = "SyntaxError"
DUPLICATE_NAME = "DuplicateName"
MIXED_MODE_ACCESS = "MixedModeAccess"
CAS_ON_ACQ_LOCATION = "CASOnAcqLocation"
ATOMIC_ACCESS_TO_NON_ATOMIC = "AtomicAccessToNonAtomic"
DOUBLE_MODALITY = "DoubleModality"

# verification failures
EXHALE_FAILURE = "ExhaleFailure"
INSUFFICIENT_PERMISSION = "InsufficientPermission"
READ_OF_UNINITIALISED = "ReadOfUninitialised"
UNINITIALISED = "Uninitialised"
NO_REL_PERMISSION = "NoRelPermission"
NO_ACQ_PERMISSION = "NoAcqPermission"
MISSING_RMW_PERMISSIONS = "MissingRMWPermissions"
REWRITE_NOT_JUSTIFIED = "RewriteNotJustified"
REWRITE_AFTER_READ = "RewriteAfterRead"
MISSING_LOOP_INVARIANT = "MissingLoopInvariant"
SPIN_PATTERN_RESOURCE_LEAK = "SpinPatternResourceLeak"
DOWN_IN_LOOP_INVARIANT = "DownInLoopInvariant"
INCOMPLETE_SOLVER = "IncompleteSolver"
BRANCH_CAP_EXCEEDED = "BranchCapExceeded"
SOUNDNESS_VIOLATION = "SoundnessViolation"


class Diagnostic(Record):
    """One verification failure or well-formedness problem."""
    __slots__ = ("kind", "span", "rule", "message", "counter_facts")
    _defaults = {"span": NO_SPAN,
                 "rule": "",                # the proof rule / encoding step involved
                 "message": "",
                 "counter_facts": None}     # solver counter-model sketch

    def format(self) -> str:
        loc = f"{self.span.line}:{self.span.col}"
        rule = f" [{self.rule}]" if self.rule else ""
        extra = f" (counter: {self.counter_facts})" if self.counter_facts else ""
        return f"{loc}: {self.kind}{rule}: {self.message}{extra}"

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "line": self.span.line,
            "col": self.span.col,
            "end_line": self.span.end_line,
            "end_col": self.span.end_col,
            "rule": self.rule,
            "message": self.message,
        }
        if self.counter_facts:
            out["counter_facts"] = self.counter_facts
        return out


class UnsupportedFeature(Exception):
    """Raised when a program needs machinery outside the supported core."""

    def __init__(self, reason: str, span: Span = NO_SPAN):
        super().__init__(reason)
        self.reason = reason
        self.span = span


class FrontendError(Exception):
    """Raised for ill-formed input that later stages cannot recover from."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.format())
        self.diagnostic = diagnostic
