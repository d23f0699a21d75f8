"""Benchmark workloads: the program texts a pass verifies and what each must yield.

Every workload is a list of `Program`s. A `Program` carries the source text
that is handed to the verifier and its expected outcome, fixed by
construction: the corpus takes it from `corpus/manifest.json`, and the two
generators know where they seeded each bug because they put it there. Nothing
here imports weakmem, so no expectation can come from the verifier itself.

    corpus     the 21 manifest entries, in an order drawn from the seed
    lockchain  clients that take and release a CAS lock n times
    manyprocs  files of long straight-line procedures
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Optional

VERIFIED = "verified"
FAILED = "failed"
UNSUPPORTED = "unsupported"


@dataclass
class Program:
    name: str
    source: str
    expect: str                               # verified | failed | unsupported
    error_lines: frozenset = frozenset()      # seeded-error lines
    pp_max: Optional[int] = None              # annotation budgets
    li_max: Optional[int] = None
    # Generated programs also fix each procedure's status, and their
    # diagnostics must sit exactly on the seeded lines.
    proc_status: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Checking a verdict against its expectation
# ---------------------------------------------------------------------------

_COMMENT = re.compile(r"//[^\n]*")


def count_annotations(source: str) -> tuple[int, int]:
    """(pre/post pairs, loop invariants) of a program text.

    Every spec, of a procedure or of a thread, starts with `requires`; a loop
    invariant is `invariant {`, while a location invariant is `invariant Q(`.
    """
    text = _COMMENT.sub("", source)
    return (len(re.findall(r"\brequires\b", text)),
            len(re.findall(r"\binvariant\s*\{", text)))


def mismatches(prog: Program, result) -> list[str]:
    """How a `weakmem.api.FileResult` departs from the expectation.

    The rules are those of `weakmem corpus`: the file's status, a diagnostic
    at the seeded line, and the annotation budgets. Generated programs are
    held to more: every procedure's status, and no diagnostic off the seeded
    lines.
    """
    out = []
    if result.parse_diagnostics:
        status = FAILED
        diags = result.parse_diagnostics
    else:
        statuses = [v.status for v in result.verdicts]
        if UNSUPPORTED in statuses:
            status = UNSUPPORTED
        elif all(s == VERIFIED for s in statuses):
            status = VERIFIED
        else:
            status = FAILED
        diags = [d for v in result.verdicts for d in v.diagnostics]
    if status != prog.expect:
        out.append(f"{prog.name}: expected {prog.expect}, got {status}")
    lines = {d.span.line for d in diags}
    missing = prog.error_lines - lines
    if missing:
        out.append(f"{prog.name}: no diagnostic at seeded line(s) "
                   f"{sorted(missing)} (got lines {sorted(lines)})")
    if prog.proc_status and lines - prog.error_lines:
        out.append(f"{prog.name}: diagnostics off the seeded lines: "
                   f"{sorted(lines - prog.error_lines)}")
    if prog.proc_status:
        got = {v.name: v.status for v in result.verdicts}
        if got != prog.proc_status:
            out.append(f"{prog.name}: procedure verdicts {got}, "
                       f"expected {prog.proc_status}")
    pp, li = count_annotations(prog.source)
    if prog.pp_max is not None and pp > prog.pp_max:
        out.append(f"{prog.name}: {pp} pre/post pairs exceed budget {prog.pp_max}")
    if prog.li_max is not None and li > prog.li_max:
        out.append(f"{prog.name}: {li} loop invariants exceed budget {prog.li_max}")
    return out


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def corpus(root: str, seed: int) -> list[Program]:
    """The manifest's entries, shuffled by the seed."""
    base = os.path.join(root, "corpus")
    with open(os.path.join(base, "manifest.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    progs = []
    for e in entries:
        with open(os.path.join(base, e["file"]), encoding="utf-8") as fh:
            source = fh.read()
        line = e.get("error_line")
        progs.append(Program(
            name=e["name"], source=source, expect=e["expect"],
            error_lines=frozenset() if line is None else frozenset([line]),
            pp_max=e.get("pp_max"), li_max=e.get("li_max")))
    random.Random(seed).shuffle(progs)
    return progs


# ---------------------------------------------------------------------------
# Program text that knows the line of every statement it emits
# ---------------------------------------------------------------------------

class _Text:
    def __init__(self):
        self.lines: list[str] = []

    def add(self, line: str = "") -> int:
        """Append one line and return its 1-based line number."""
        self.lines.append(line)
        return len(self.lines)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# lockchain
# ---------------------------------------------------------------------------

# Every seed gets the same mix, so that the work of a pass does not depend
# on the seed: for each number of rounds, two correct clients and one of
# each bug. The seed draws the values and the order.
LOCKCHAIN_ROUNDS = (1, 2, 3)
LOCKCHAIN_BUGS = (None, None, "wrong_value", "after_unlock")


def _lock_library(t: _Text, value: int) -> None:
    # The lock of corpus/RSLLockNoSpin.rsl: the CAS spin loop needs no loop
    # invariant, so the lock itself is cheap and the client dominates.
    t.add(f"define J = j |-> {value};")
    t.add("invariant Q(V) = V == 0 ? true : (V == 1 ? J : false);")
    t.add("define Lock(x) = Init(x) && RMWAcq(x, Q) && Rel(x, Q);")
    t.add()
    t.add("proc lock(x, j)")
    t.add("  requires { Lock(x) }")
    t.add("  ensures { Lock(x) && J }")
    t.add("{")
    t.add("  while (CAS_rel_acq(x, 1, 0) != 1);")
    t.add("}")
    t.add()
    t.add("proc unlock(x, j)")
    t.add("  requires { Lock(x) && J }")
    t.add("  ensures { Lock(x) }")
    t.add("{")
    t.add("  [x]_rel := 1;")
    t.add("}")


def lockchain_program(rng: random.Random, name: str, rounds: int,
                      bug: Optional[str]) -> Program:
    """One client that takes and releases the lock `rounds` times.

    Inside each critical section it changes the protected location `j` and
    restores it, so `unlock` can give `J` back. A buggy client either
    restores the wrong value in its last round, which the last `call unlock`
    must report, or touches `j` after its last unlock, which that access
    must report. Either way every round is executed, so the seed does not
    change how much work a client is.
    """
    value = rng.randint(1, 9)
    t = _Text()
    t.add(f"// lockchain client: {rounds} critical section(s)")
    _lock_library(t, value)
    t.add()
    t.add("proc client(x, j)")
    t.add("  requires { Lock(x) }")
    t.add("  ensures { Lock(x) }")
    t.add("{")
    error_line = None
    for r in range(rounds):
        d = rng.randint(1, 5)
        t.add("  call lock(x, j);")
        t.add(f"  v{r} := [j]_na;")
        t.add(f"  [j]_na := v{r} + {d};")
        t.add(f"  w{r} := [j]_na;")
        off = rng.randint(1, 3) if bug == "wrong_value" and r == rounds - 1 else 0
        t.add(f"  [j]_na := w{r} - {d - off};" if off < d
              else f"  [j]_na := w{r} + {off - d};")
        line = t.add("  call unlock(x, j);")
        if off:
            error_line = line
    if bug == "after_unlock":
        error_line = t.add("  u := [j]_na;")
    t.add("}")
    status = VERIFIED if bug is None else FAILED
    return Program(
        name=name, source=t.source(), expect=status,
        error_lines=frozenset() if error_line is None else frozenset([error_line]),
        pp_max=3, li_max=0,
        proc_status={"lock": VERIFIED, "unlock": VERIFIED, "client": status})


def lockchain(seed: int) -> list[Program]:
    rng = random.Random(f"lockchain/{seed}")
    mix = [(n, bug) for n in LOCKCHAIN_ROUNDS for bug in LOCKCHAIN_BUGS]
    rng.shuffle(mix)
    return [lockchain_program(rng, f"lockchain_{i}", n, bug)
            for i, (n, bug) in enumerate(mix)]


# ---------------------------------------------------------------------------
# manyprocs
# ---------------------------------------------------------------------------

# As for lockchain, the seed draws the statements, not the amount of work:
# every file has the same number of procedures of each kind and of bugs.
MANYPROCS_PROGRAMS = 12
MANYPROCS_KINDS = ("plain",) * 6 + ("writer", "reader")
MANYPROCS_BUGS = 2             # procedures per file with a wrong postcondition
MANYPROCS_LOCS = ("a", "b", "c")
# The statements of each procedure: reads, local additions, constant writes
# and writes of the local, in an order drawn from the seed. Reads and writes
# add facts and solver queries; local arithmetic does not, so mostly-local
# procedures keep the solver's share of the time low. Fixed counts, rather
# than counts drawn from the seed, keep the work of a file the same for every
# seed.
MANYPROCS_OPS = ("read",) + ("add",) * 35 + ("const",) * 2 + ("store",) * 2


def _straight_line(t: _Text, rng: random.Random, vals: dict) -> None:
    """Emit the statements of `MANYPROCS_OPS` over the locations and one
    local `s`, tracking every value."""
    s = rng.randint(0, 9)
    t.add(f"  s := {s};")
    for op in rng.sample(MANYPROCS_OPS, len(MANYPROCS_OPS)):
        loc = rng.choice(MANYPROCS_LOCS)
        k = rng.randint(1, 4)
        if op == "read":
            t.add(f"  s := [{loc}]_na;")
            s = vals[loc]
        elif op == "add":
            t.add(f"  s := s + {k};")
            s += k
        elif op == "const":
            t.add(f"  [{loc}]_na := {k};")
            vals[loc] = k
        else:
            t.add(f"  [{loc}]_na := s;")
            vals[loc] = s


def _manyprocs_proc(t: _Text, rng: random.Random, idx: int, kind: str,
                    buggy: bool) -> int:
    """Emit one procedure; return the line its proc header is on.

    A `plain` procedure owns `a`, `b` and `c` throughout. A `writer` ends by
    handing `a` over through a release write to `f`; a `reader` starts
    without `a` and obtains it by spinning on an acquire read of `f`.
    """
    vals = {loc: rng.randint(0, 9) for loc in MANYPROCS_LOCS}
    pre_vals = dict(vals)
    body = _Text()
    if kind == "reader":
        body.add("  while ([f]_acq == 0);")
    _straight_line(body, rng, vals)
    if kind == "writer":
        body.add("  [f]_rel := 1;")
        t.add(f"invariant M{idx}(V) = V != 0 ==> a |-> {vals['a']};")
    elif kind == "reader":
        t.add(f"invariant M{idx}(V) = V != 0 ==> a |-> {pre_vals['a']};")
    post_vals = dict(vals)
    if buggy:
        loc = rng.choice(MANYPROCS_LOCS if kind != "writer" else ("b", "c"))
        post_vals[loc] += rng.randint(1, 3)
    pre = [f"{loc} |-> {pre_vals[loc]}" for loc in MANYPROCS_LOCS
           if not (kind == "reader" and loc == "a")]
    post = [f"{loc} |-> {post_vals[loc]}" for loc in MANYPROCS_LOCS
            if not (kind == "writer" and loc == "a")]
    if kind == "writer":
        pre.append(f"Rel(f, M{idx})")
        post.append("Init(f)")
    elif kind == "reader":
        pre.append(f"Acq(f, M{idx}) && Init(f)")
    params = "a, b, c" if kind == "plain" else "a, b, c, f"
    header = t.add(f"proc p{idx}({params})")
    t.add(f"  requires {{ {' && '.join(pre)} }}")
    t.add(f"  ensures {{ {' && '.join(post)} }}")
    t.add("{")
    for line in body.lines:
        t.add(line)
    t.add("}")
    t.add()
    return header


def manyprocs_program(rng: random.Random, name: str) -> Program:
    """A file of straight-line procedures, a few with a wrong postcondition,
    which must be reported at that procedure's header."""
    t = _Text()
    t.add("// manyprocs: straight-line procedures over non-atomic locations")
    kinds = list(MANYPROCS_KINDS)
    rng.shuffle(kinds)
    nprocs = len(kinds)
    bugs = set(rng.sample(range(nprocs), MANYPROCS_BUGS))
    error_lines = set()
    proc_status = {}
    for i, kind in enumerate(kinds):
        header = _manyprocs_proc(t, rng, i, kind, i in bugs)
        proc_status[f"p{i}"] = FAILED if i in bugs else VERIFIED
        if i in bugs:
            error_lines.add(header)
    return Program(
        name=name, source=t.source(),
        expect=FAILED if error_lines else VERIFIED,
        error_lines=frozenset(error_lines), pp_max=nprocs, li_max=0,
        proc_status=proc_status)


def manyprocs(seed: int) -> list[Program]:
    rng = random.Random(f"manyprocs/{seed}")
    return [manyprocs_program(rng, f"manyprocs_{i}")
            for i in range(MANYPROCS_PROGRAMS)]


def make(workload: str, root: str, seed: int) -> list[Program]:
    if workload == "corpus":
        return corpus(root, seed)
    if workload == "lockchain":
        return lockchain(seed)
    if workload == "manyprocs":
        return manyprocs(seed)
    raise ValueError(f"unknown workload {workload!r}")
