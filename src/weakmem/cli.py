"""Command-line driver.

    weakmem verify <files> [--json out.json] [--branch-cap N] ...
    weakmem corpus <manifest.json>

Exit codes: 0 all verified / all expectations met; 1 verification failures,
unsupported features or expectation mismatches; 2 usage, IO or manifest
errors (a file that cannot be read, is not UTF-8 text or cannot be written),
and for `verify` malformed input (a parse, mode-check or invariant-table
diagnostic).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import api, syntax
from .api import FAILED, UNSUPPORTED, VERIFIED, VerifyOptions
from .symstate import BRANCH_CAP

SCHEMA_VERSION = 1


class FileError(Exception):
    """A file the command reads or writes cannot be used."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FileError(f"{path}: not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise FileError(str(exc)) from exc


def _write_json(path: str, report: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise FileError(str(exc)) from exc


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmem",
        description="Deductive verifier for annotated weak-memory programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--branch-cap", type=_positive_int, default=BRANCH_CAP)
        p.add_argument("--trace", action="store_true",
                       help="stream executed primitives as JSON lines on stderr")
        p.add_argument("--check-soundness-invariants", action="store_true",
                       dest="check_soundness")
        p.add_argument("--strict-invariants", action="store_true")

    pv = sub.add_parser("verify", help="verify annotated source files")
    pv.add_argument("files", nargs="+")
    common(pv)
    pv.add_argument("--json", dest="json_out", help="write a JSON report")
    pv.add_argument("--dump-primitives", action="store_true")
    pv.add_argument("--dump-invariants", action="store_true")

    pc = sub.add_parser("corpus", help="run a corpus manifest and check expectations")
    pc.add_argument("manifest")
    common(pc)
    pc.add_argument("--json", dest="json_out", help="write a JSON report")
    return parser


def trace_line(span, text, digest) -> str:
    """One primitive's ``--trace`` record: a JSON line ending in a newline."""
    return json.dumps({
        "line": span.line, "col": span.col,
        "primitive": text, "state": digest,
    }, sort_keys=True) + "\n"


def _trace(span, text, digest) -> None:
    sys.stderr.write(trace_line(span, text, digest))


def _options(args: argparse.Namespace) -> VerifyOptions:
    return VerifyOptions(
        branch_cap=args.branch_cap,
        soundness="strict" if args.strict_invariants
        else "report" if args.check_soundness else "off",
        trace=_trace if args.trace else None)


def _file_json(result: api.FileResult) -> dict:
    return {
        "path": result.path,
        "parse_diagnostics": [d.to_json() for d in result.parse_diagnostics],
        "procedures": [v.to_json() for v in result.verdicts],
    }


def _report_json(results: list, soundness: bool) -> dict:
    report = {"schema": SCHEMA_VERSION, "files": [_file_json(r) for r in results]}
    if soundness:
        report["soundness"] = [rep.to_json() for r in results for rep in r.soundness]
    return report


def _print_result(result: api.FileResult, out) -> None:
    print(f"{result.path}:", file=out)
    for d in result.parse_diagnostics:
        print(f"  {d.format()}", file=out)
    for v in result.verdicts:
        mark = {VERIFIED: "ok", FAILED: "FAIL", UNSUPPORTED: "unsupported"}[v.status]
        extra = f" ({v.reason})" if v.reason else ""
        print(f"  {v.name}: {mark}{extra} [{v.time_ms:.0f} ms]", file=out)
        for d in v.diagnostics:
            print(f"    {d.format()}", file=out)


def cmd_verify(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    opts = _options(args)
    results: list[api.FileResult] = []
    for path in args.files:
        source = _read(path)
        if args.dump_invariants or args.dump_primitives:
            code = _dump(source, path, args, out)
            if code is not None:
                return code
            continue
        results.append(api.verify_source(source, path=path, opts=opts))
    for r in results:
        _print_result(r, out)
    if args.json_out and results:
        _write_json(args.json_out, _report_json(results, opts.soundness != "off"))
    if any(r.parse_diagnostics for r in results):
        return 2
    return 0 if all(r.ok for r in results) else 1


def _dump(source: str, path: str, args: argparse.Namespace, out) -> Optional[int]:
    front = api.check_source(source, path)
    if front.parse_diagnostics:
        for d in front.parse_diagnostics:
            print(f"{path}: {d.format()}", file=sys.stderr)
        return 2
    if args.dump_invariants:
        json.dump(front.table.to_json(), out, indent=2, sort_keys=True)
        out.write("\n")
    if args.dump_primitives:
        ok, text = api.dump_primitives(front)
        if not ok:
            print(f"{path}: {text}", file=sys.stderr)
            return 1
        out.write(text)
    return None


# ---------------------------------------------------------------------------
# Corpus runner
# ---------------------------------------------------------------------------

class ManifestError(Exception):
    pass


class CorpusEntry(syntax.Record):
    __slots__ = ("name", "file",
                 "expect",    # verified | failed | unsupported
                 "pp_max", "li_max", "error_line", "reason")
    _defaults = {"pp_max": None, "li_max": None, "error_line": None, "reason": ""}


def load_manifest(path: str) -> list[CorpusEntry]:
    try:
        raw = json.loads(_read(path))
    except (FileError, json.JSONDecodeError) as exc:
        raise ManifestError(str(exc)) from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("entries", []), list):
        raise ManifestError('a manifest is an object with an "entries" list')
    entries = []
    for item in raw.get("entries", []):
        if not isinstance(item, dict):
            raise ManifestError(f"manifest entry is not an object: {item!r}")
        for key in ("name", "file", "expect"):
            if not isinstance(item.get(key), str):
                raise ManifestError(f"manifest entry {item!r} lacks a string {key!r}")
        if item["expect"] not in (VERIFIED, FAILED, UNSUPPORTED):
            raise ManifestError(f"manifest entry {item!r}: 'expect' is not one of "
                                f"{VERIFIED!r}, {FAILED!r} and {UNSUPPORTED!r}")
        for key in ("pp_max", "li_max", "error_line"):
            # a bool is an int to isinstance, but not a count or a line
            if type(item.get(key, 0)) is not int:
                raise ManifestError(f"manifest entry {item!r}: {key!r} is not an integer")
        entries.append(CorpusEntry(
            name=item["name"], file=item["file"], expect=item["expect"],
            pp_max=item.get("pp_max"), li_max=item.get("li_max"),
            error_line=item.get("error_line"), reason=item.get("reason", "")))
    if not entries:
        raise ManifestError("manifest has no entries")
    return entries


def count_annotations(program: syntax.Program) -> dict:
    """Pre/post pairs, loop invariants and other annotations of a program."""
    pp = sum(1 for p in program.procedures if p.has_spec)
    li = 0
    other = 0
    funcs = len(program.procedures)
    loops = 0
    stmts = 0
    for proc in program.procedures:
        for st in syntax.walk_stmts(proc.body):
            stmts += 1
            if isinstance(st, syntax.SWhile):
                loops += 1
                if st.invariant is not None:
                    li += 1
            elif isinstance(st, syntax.SPar):
                funcs += len(st.threads)
                pp += sum(1 for t in st.threads if t.has_spec)
            elif isinstance(st, (syntax.SFenceRel, syntax.SRewrite)) or (
                    isinstance(st, syntax.SAlloc) and st.kind != "na"):
                other += 1
    return {"pp": pp, "li": li, "other": other,
            "funcs": funcs, "loops": loops, "stmts": stmts}


def _loc_of(source: str) -> int:
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def run_corpus(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    import os
    entries = load_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    opts = _options(args)
    mismatches: list[str] = []
    rows: list[dict] = []
    for entry in entries:
        path = os.path.join(base, entry.file)
        try:
            source = _read(path)
        except FileError as exc:
            raise ManifestError(f"{entry.name}: {exc}") from exc
        start = time.monotonic()
        result = api.verify_source(source, path=path, opts=opts)
        elapsed = time.monotonic() - start
        program = result.program
        counts = count_annotations(program) if program else {}
        if result.parse_diagnostics:
            status = FAILED
            diags = result.parse_diagnostics
        else:
            if any(v.status == UNSUPPORTED for v in result.verdicts):
                status = UNSUPPORTED
            elif all(v.status == VERIFIED for v in result.verdicts):
                status = VERIFIED
            else:
                status = FAILED
            diags = [d for v in result.verdicts for d in v.diagnostics]
        if status != entry.expect:
            mismatches.append(
                f"{entry.name}: expected {entry.expect}, got {status}")
        if entry.expect == FAILED and entry.error_line is not None:
            if not any(d.span.line == entry.error_line for d in diags):
                lines = sorted({d.span.line for d in diags})
                mismatches.append(
                    f"{entry.name}: no diagnostic at seeded line "
                    f"{entry.error_line} (got lines {lines})")
        if entry.pp_max is not None and counts and counts["pp"] > entry.pp_max:
            mismatches.append(
                f"{entry.name}: {counts['pp']} pre/post pairs exceed budget "
                f"{entry.pp_max}")
        if entry.li_max is not None and counts and counts["li"] > entry.li_max:
            mismatches.append(
                f"{entry.name}: {counts['li']} loop invariants exceed budget "
                f"{entry.li_max}")
        rows.append({
            "name": entry.name,
            "size": f"{_loc_of(source)},{counts.get('funcs', 0)},{counts.get('loops', 0)}",
            "time_s": f"{elapsed:.2f}",
            "pp": counts.get("pp", 0),
            "li": counts.get("li", 0),
            "other": counts.get("other", 0),
            "verdict": status,
        })

    widths = {k: max(len(str(r[k])) for r in rows + [dict.fromkeys(rows[0], k)])
              for k in rows[0]}
    header = {"name": "Program", "size": "Size(LOC,funcs,loops)",
              "time_s": "Time(s)", "pp": "PP", "li": "LI",
              "other": "Other", "verdict": "Verdict"}
    widths = {k: max(widths[k], len(header[k])) for k in widths}
    fmt = "  ".join(f"{{{k}:<{widths[k]}}}" for k in rows[0])
    print(fmt.format(**header), file=out)
    for r in rows:
        print(fmt.format(**r), file=out)
    if args.json_out:
        _write_json(args.json_out, {"schema": SCHEMA_VERSION, "rows": rows,
                                    "mismatches": mismatches})
    if mismatches:
        print("", file=out)
        for m in mismatches:
            print(f"MISMATCH {m}", file=out)
        return 1
    print(f"\nall {len(rows)} corpus expectations met", file=out)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return run_corpus(args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
