"""Deductive verifier for annotated C11-style weak-memory programs.

Programs annotated with location invariants, pre/postconditions and fence
assertions are verified against the proof rules for non-atomic accesses,
release/acquire atomics, relaxed accesses with fences, and compare-and-swap,
by executing an inhale/exhale encoding over an in-process symbolic state.
"""

from .api import (
    FAILED,
    FileResult,
    ProcVerdict,
    UNSUPPORTED,
    VERIFIED,
    VerifyOptions,
    verify_file,
    verify_source,
)
from .diagnostics import Diagnostic
from .frontend import mode_check, parse
from .monitor import check_state_invariants, reconstruct_assertion
from .solver import Solver
from .speclogic import InvariantTable, build_invariant_table, relabel, substitute

__version__ = "0.1.0"

__all__ = [
    "Diagnostic", "FAILED", "FileResult", "InvariantTable", "ProcVerdict",
    "Solver", "UNSUPPORTED", "VERIFIED", "VerifyOptions",
    "build_invariant_table", "check_state_invariants", "mode_check", "parse",
    "reconstruct_assertion", "relabel", "substitute", "verify_file", "verify_source",
]
