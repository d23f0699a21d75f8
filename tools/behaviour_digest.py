#!/usr/bin/env python3
"""Print one digest of the verifier's observable behaviour.

    python3 tools/behaviour_digest.py [--out FILE]

Every program of the three benchmark workloads (corpus, lockchain and
manyprocs, built by bench/workloads.py for seeds 1-3) is verified with
soundness checking off, on and strict.  Each run records:

- the file's diagnostics, and each procedure's status, reason and
  diagnostics in their JSON form (counter-model hints included);
- each obligation's `states_seen` and the digests of its final states;
- the soundness reports;
- `Solver.queries`;
- a sha256 of the `--trace` stream, each line made by `cli.trace_line`
  as `weakmem --trace` makes it;
- what `workloads.mismatches` finds.

The output gives the number of runs, the total of `Solver.queries`, a
sha256 of the verdicts alone, a sha256 of the records with `queries`
left out, a sha256 of the encodings (`dumps:`) and a sha256 of the parse
trees (`parse:`).  Its last line is a sha256 over all records.  Two source trees
behave alike on these inputs when their digests are equal; a change that
only asks the solver less keeps the digest without `queries` and changes
the last line.  The verdicts line hashes only the parse diagnostics, each
procedure's status, reason and diagnostics without their hints, each
obligation's `states_seen` and number of final states, the soundness
violations and the mismatches: a change that only renders symbolic values
differently, in hints, state digests, traces or soundness reports, keeps
it.  The `dumps:` line hashes, for every program, what `--dump-primitives`
prints for it (`api.dump_primitives`), or the text of the error that stops
the encoding; it is kept outside the records, so a change of encoding alone
moves only it.
The `parse:` line hashes, for every program, the tree `frontend.parse`
builds, with every field of every node, each statement's full span among
them, and the parser's diagnostics; it too is kept outside the records,
so a change of the parser's output alone moves only it.
`--out FILE` writes the records as JSON, to diff two trees that
differ.  Timings are left out, so the digests do not depend on the host.
bench/ is only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True          # write nothing under bench/
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads                         # noqa: E402
from weakmem import api, cli, frontend   # noqa: E402
from weakmem.syntax import Record        # noqa: E402

WORKLOADS = ("corpus", "lockchain", "manyprocs")
SEEDS = (1, 2, 3)
MODES = {
    "off": {},
    "soundness": {"soundness": "report"},
    "strict": {"soundness": "strict"},
}


def run_record(prog: workloads.Program, mode: str) -> dict:
    trace = hashlib.sha256()

    def on_trace(span, text, digest) -> None:
        trace.update(cli.trace_line(span, text, digest).encode())

    opts = api.VerifyOptions(trace=on_trace, **MODES[mode])
    result = api.verify_source(prog.source, path=prog.name, opts=opts)
    return {
        "program": prog.name,
        "mode": mode,
        "parse_diagnostics": [d.to_json() for d in result.parse_diagnostics],
        "verdicts": [{
            "name": v.name,
            "status": v.status,
            "reason": v.reason,
            "diagnostics": [d.to_json() for d in v.diagnostics],
            "obligations": [{
                "name": ob.name,
                "kind": ob.kind,
                "states_seen": ob.states_seen,
                "final_states": [s.digest() for s in ob.final_states],
            } for ob in v.obligations],
        } for v in result.verdicts],
        "soundness": [r.to_json() for r in result.soundness],
        "queries": result.solver.queries if result.solver is not None else 0,
        "trace": trace.hexdigest(),
        "mismatches": workloads.mismatches(prog, result),
    }


def programs():
    for workload in WORKLOADS:
        for seed in SEEDS:
            for prog in workloads.make(workload, ROOT, seed):
                yield workload, seed, prog


def records() -> list[dict]:
    return [dict(run_record(prog, mode), workload=workload, seed=seed)
            for workload, seed, prog in programs() for mode in MODES]


def dump_text(prog: workloads.Program) -> str:
    """The primitives of every procedure, as `--dump-primitives` prints
    them, or the error that stops the encoding."""
    front = api.check_source(prog.source, prog.name)
    if front.parse_diagnostics:
        return "".join(d.format() + "\n" for d in front.parse_diagnostics)
    ok, text = api.dump_primitives(front)
    return text if ok else text + "\n"


def dumps_digest() -> str:
    h = hashlib.sha256()
    for _, _, prog in programs():
        h.update(f"=== {prog.name}\n{dump_text(prog)}".encode())
    return h.hexdigest()


def tree(x):
    """A parsed node as plain data: its class and every field, spans
    included, which equality and `repr` leave out."""
    if isinstance(x, Record):
        return [type(x).__name__] + [tree(getattr(x, f)) for f in x._fields]
    if isinstance(x, (list, tuple)):
        return [tree(y) for y in x]
    return x


def parse_digest() -> str:
    h = hashlib.sha256()
    for _, _, prog in programs():
        program, diags = frontend.parse(prog.source)
        text = json.dumps([tree(program), [d.to_json() for d in diags]], default=repr)
        h.update(f"=== {prog.name}\n{text}\n".encode())
    return h.hexdigest()


def verdicts(rec: dict) -> dict:
    """The parts of a record that a change of symbolic values leaves alone."""
    return {
        "parse_diagnostics": rec["parse_diagnostics"],
        "verdicts": [{
            "status": v["status"],
            "reason": v["reason"],
            "diagnostics": [{k: x for k, x in d.items() if k != "counter_facts"}
                            for d in v["diagnostics"]],
            "obligations": [(ob["states_seen"], len(ob["final_states"]))
                            for ob in v["obligations"]],
        } for v in rec["verdicts"]],
        "violations": [r["violations"] for r in rec["soundness"]],
        "mismatches": rec["mismatches"],
    }


def sha256(recs: list[dict]) -> str:
    return hashlib.sha256(dump(recs).encode()).hexdigest()


def dump(recs: list[dict]) -> str:
    return json.dumps(recs, sort_keys=True, indent=1) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", help="also write every record as JSON to this file")
    args = ap.parse_args(argv)
    recs = records()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump(recs))
    without = [{k: v for k, v in r.items() if k != "queries"} for r in recs]
    print(f"{len(recs)} runs")
    print(f"queries: {sum(r['queries'] for r in recs)}")
    print(f"verdicts: {sha256([verdicts(r) for r in recs])}")
    print(f"without queries: {sha256(without)}")
    print(f"dumps: {dumps_digest()}")
    print(f"parse: {parse_digest()}")
    print(sha256(recs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
