"""Mutation oracle: small changes to the verifying corpus entries must be
rejected, unless the mutant is equivalent (mutation analysis, DeMillo, Lipton
and Sayward, "Hints on Test Data Selection", 1978).

Each mutant changes one occurrence of one operator in one core entry:

* text operators: a release or acquire access made relaxed, a CAS mode
  weakened, a fence dropped, a written literal incremented, an empty spin
  loop dropped;
* an invariant operator: one use of an invariant name swapped for another
  invariant the file declares;
* an AST operator: one top-level conjunct dropped from a procedure's or a
  thread's precondition, printed back with ``printer.pp_program``.

A mutant survives when every procedure still verifies.  Each survivor must
be on ``EQUIVALENT`` with the reason it is equivalent; a new survivor and a
stale entry both fail the test.
"""

import re

from conftest import corpus_text
from printer import pp_program
from weakmem import api, frontend, syntax as S

CORE_ENTRIES = [
    "RSLSpinLock", "RSLLockNoSpin", "RelAcqMsgPass", "RelAcqDblMsgPassSplit",
    "CASModesTest", "FencesDblMsgPass", "FencesDblMsgPassSplit",
    "FencesDblMsgPassAcqRewrite",
]

# (pattern, label of one match, its replacement)
TEXT_OPERATORS = [
    (r"\]_rel\b", lambda m: "]_rel->]_rlx", lambda m: "]_rlx"),
    (r"\]_acq\b", lambda m: "]_acq->]_rlx", lambda m: "]_rlx"),
    (r"CAS_(acq|rel)\(", lambda m: f"CAS_{m[1]}->CAS_rlx", lambda m: "CAS_rlx("),
    (r"CAS_rel_acq\(", lambda m: "CAS_rel_acq->CAS_acq", lambda m: "CAS_acq("),
    (r"\bfence_acq;", lambda m: "fence_acq->skip", lambda m: "skip;"),
    (r"\bfence_rel\([^;]*\);", lambda m: "fence_rel->skip", lambda m: "skip;"),
    (r"(\]_\w+ := )(\d+);", lambda m: f"write {m[2]}->{int(m[2]) + 1}",
     lambda m: f"{m[1]}{int(m[2]) + 1};"),
    (r"\bwhile \(.*\);", lambda m: "spin->skip", lambda m: "skip;"),
]

EQUIVALENT = {
    # relaxed initialising writes: the invariant instance released for 0 is
    # trivially true, so no release is needed
    "RelAcqMsgPass:10 ]_rel->]_rlx": "Q(0) is true",
    "RelAcqDblMsgPassSplit:13 ]_rel->]_rlx": "Q1(0) and Q2(0) are true",
    "CASModesTest:13 ]_rel->]_rlx": "Q(0) is true",
    "FencesDblMsgPass:13 ]_rel->]_rlx": "Q1(0) and Q2(0) are true",
    "FencesDblMsgPassSplit:13 ]_rel->]_rlx": "Q1(0) and Q2(0) are true",
    "FencesDblMsgPassAcqRewrite:16 ]_rel->]_rlx": "Q3(0) is true",
    # the invariants distinguish only zero from nonzero, so 2 is 1
    "RelAcqMsgPass:17 write 1->2": "Q(V) reads only V != 0",
    "RelAcqDblMsgPassSplit:29 write 1->2": "Q1(V) and Q2(V) read only V != 0",
    "FencesDblMsgPass:22 write 1->2": "Q1(V) and Q2(V) read only V != 0",
    "FencesDblMsgPassSplit:31 write 1->2": "Q1(V) and Q2(V) read only V != 0",
    "FencesDblMsgPassAcqRewrite:34 write 1->2": "Q3(V) reads only V != 0",
    # the lock CAS writes 0 and Q(0) is true: its release half gives nothing
    "RSLSpinLock:23 CAS_rel_acq->CAS_acq": "the CAS releases Q(0), which is true",
    "RSLLockNoSpin:19 CAS_rel_acq->CAS_acq": "the CAS releases Q(0), which is true",
    # unlock's release write needs only Rel(x, Q) and itself gives Init(x)
    "RSLSpinLock: unlock requires drops Init(x)": "the release write establishes Init(x)",
    "RSLLockNoSpin: unlock requires drops Init(x)": "the release write establishes Init(x)",
}


def text_mutants(entry, source):
    for pattern, label, replace in TEXT_OPERATORS:
        for m in re.finditer(pattern, source):
            line = source.count("\n", 0, m.start()) + 1
            yield (f"{entry}:{line} {label(m)}",
                   source[:m.start()] + replace(m) + source[m.end():])


def invariant_mutants(entry, source):
    names = re.findall(r"^invariant (\w+)\(", source, re.M)
    for m in re.finditer(rf"(?<!invariant )\b({'|'.join(names)})\b", source):
        line = source.count("\n", 0, m.start()) + 1
        for other in names:
            if other != m[1]:
                yield (f"{entry}:{line} {m[1]}->{other}",
                       source[:m.start()] + other + source[m.end():])


def _specs(program):
    """(name, owner) of every procedure and thread with a precondition."""
    for proc in program.procedures:
        yield proc.name, proc
        threads = [t for s in S.walk_stmts(proc.body) if isinstance(s, S.SPar)
                   for t in s.threads]
        for i, t in enumerate(threads, 1):
            yield f"{proc.name} thread {i}", t


def precondition_mutants(entry, source):
    program, diags = frontend.parse(source)
    assert not diags
    for where, owner in _specs(program):
        pre = owner.pre
        if not isinstance(pre, S.AStar):
            continue
        for i, part in enumerate(pre.parts):
            owner.pre = S.star(list(pre.parts[:i] + pre.parts[i + 1:]))
            yield (f"{entry}: {where} requires drops {S.pp_assertion(part)}",
                   pp_program(program))
            owner.pre = pre


def verifies(source):
    result = api.verify_source(source)
    return not result.parse_diagnostics and all(
        v.status == api.VERIFIED for v in result.verdicts) and bool(result.verdicts)


def test_mutants_are_rejected_or_equivalent():
    survivors, counts = [], {"text": 0, "invariant": 0, "precondition": 0}
    for entry in CORE_ENTRIES:
        source = corpus_text(f"{entry}.rsl")
        program, _ = frontend.parse(source)
        assert verifies(source) and verifies(pp_program(program)), entry
        for kind, mutants in (("text", text_mutants(entry, source)),
                              ("invariant", invariant_mutants(entry, source)),
                              ("precondition", precondition_mutants(entry, source))):
            for name, mutant in mutants:
                counts[kind] += 1
                if verifies(mutant):
                    survivors.append(name)
    assert counts == {"text": 61, "invariant": 32, "precondition": 51}
    new = sorted(set(survivors) - set(EQUIVALENT))
    stale = sorted(set(EQUIVALENT) - set(survivors))
    assert not new, f"mutants that verify and are not known equivalent: {new}"
    assert not stale, f"equivalent mutants that no longer survive: {stale}"
