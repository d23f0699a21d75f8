"""High-level verification pipeline: parse, check, encode, execute, report."""

from __future__ import annotations

import time
from typing import Optional

from . import encoder, frontend, monitor, speclogic, symstate, syntax
from .diagnostics import Diagnostic, FrontendError, SOUNDNESS_VIOLATION, UnsupportedFeature
from .solver import Solver

VERIFIED = "verified"
FAILED = "failed"
UNSUPPORTED = "unsupported"


# what a run does with the soundness monitor: nothing, report its findings,
# or also fail a procedure on a violation
SOUNDNESS = ("off", "report", "strict")


class VerifyOptions(syntax.Record):
    """The settings of one run."""
    __slots__ = ("branch_cap", "soundness", "trace")
    _defaults = {"branch_cap": symstate.BRANCH_CAP,
                 "soundness": "off",     # one of SOUNDNESS
                 "trace": None}          # (span, text, digest) -> None


class ProcVerdict(syntax.Record):
    __slots__ = ("name", "status", "diagnostics", "reason", "time_ms", "obligations")
    _defaults = {"diagnostics": [],
                 "reason": "",           # for unsupported
                 "time_ms": 0.0,
                 "obligations": []}      # ObligationResult per obligation

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "time_ms": round(self.time_ms, 3),
        }
        if self.reason:
            out["reason"] = self.reason
        return out


class FileResult(syntax.Record):
    __slots__ = ("path", "program", "checked", "table", "parse_diagnostics", "verdicts",
                 "soundness", "solver")
    _defaults = {"program": None, "checked": None, "table": None, "parse_diagnostics": [],
                 "verdicts": [],
                 "soundness": [],    # StateReport per boundary
                 "solver": None}

    @property
    def ok(self) -> bool:
        return not self.parse_diagnostics and all(
            v.status == VERIFIED for v in self.verdicts)

    def verdict_of(self, name: str) -> ProcVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def _verify_proc(proc, checked, table, solver, opts, soundness_sink) -> ProcVerdict:
    start = time.monotonic()
    verdict = ProcVerdict(name=proc.name, status=VERIFIED)
    try:
        for ob in encoder.build_obligations(checked, table, proc):
            on_boundary = None
            if opts.soundness != "off":
                def on_boundary(state, span, desc, _ob=ob):
                    report = monitor.make_report(_ob.name, desc, span, state, solver,
                                                 _ob.var_classes, table)
                    soundness_sink.append(report)
                    if opts.soundness == "strict" and report.violations:
                        verdict.diagnostics.append(Diagnostic(
                            SOUNDNESS_VIOLATION, span, rule="soundness monitor",
                            message="; ".join(v.format() for v in report.violations)))
            result = symstate.run_obligation(ob, solver, opts.branch_cap,
                                             opts.trace, on_boundary)
            verdict.obligations.append(result)
            verdict.diagnostics.extend(result.diagnostics)
    except UnsupportedFeature as exc:
        verdict.status = UNSUPPORTED
        verdict.reason = exc.reason
    except FrontendError as exc:    # from the encoding: the executor fails a path
        verdict.status = FAILED
        verdict.diagnostics.append(exc.diagnostic)
    if verdict.status == VERIFIED and verdict.diagnostics:
        verdict.status = FAILED
    verdict.time_ms = (time.monotonic() - start) * 1000
    return verdict


def check_source(source: str, path: str = "<input>") -> FileResult:
    """Parse, mode-check and index the invariants of a program text; a
    file-level error stops there, with its diagnostics in parse_diagnostics."""
    result = FileResult(path=path)
    result.program, diags = frontend.parse(source)
    if not diags:
        result.checked = frontend.mode_check(result.program)
        diags = result.checked.diagnostics
    if not diags:
        result.table = speclogic.build_invariant_table(result.checked)
    result.parse_diagnostics = diags
    return result


def dump_primitives(result: FileResult) -> tuple[bool, str]:
    """What ``--dump-primitives`` prints for a checked file: True and the
    primitives of every procedure, or False and the error that stops the
    encoding."""
    try:
        obligations = [ob for proc in result.program.procedures
                       for ob in encoder.build_obligations(result.checked, result.table, proc)]
    except UnsupportedFeature as exc:
        return False, f"unsupported: {exc.reason}"
    except FrontendError as exc:
        return False, exc.diagnostic.format()
    return True, encoder.dump_primitives(obligations)


def verify_source(source: str, path: str = "<input>",
                  opts: Optional[VerifyOptions] = None) -> FileResult:
    """Verify every procedure of a program text."""
    opts = opts or VerifyOptions()
    if opts.soundness not in SOUNDNESS:
        raise ValueError(f"soundness must be one of {SOUNDNESS}, got {opts.soundness!r}")
    result = check_source(source, path)
    if result.parse_diagnostics:
        return result
    solver = result.solver = Solver()
    result.verdicts = [_verify_proc(p, result.checked, result.table, solver, opts,
                                    result.soundness)
                       for p in result.program.procedures]
    return result


def verify_file(path: str, opts: Optional[VerifyOptions] = None) -> FileResult:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return verify_source(source, path=path, opts=opts)
