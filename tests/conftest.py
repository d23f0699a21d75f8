import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from weakmem import api  # noqa: E402
from weakmem import frontend, speclogic  # noqa: E402
from weakmem.solver import Solver  # noqa: E402

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
MANIFEST = os.path.join(CORPUS, "manifest.json")


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name)


def corpus_text(name: str) -> str:
    with open(corpus_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def solver():
    return Solver()


def checked(source: str) -> frontend.CheckedProgram:
    program, diags = frontend.parse(source)
    assert not diags, [d.format() for d in diags]
    out = frontend.mode_check(program)
    assert not out.diagnostics, [d.format() for d in out.diagnostics]
    return out


def verify(source: str, **kw) -> api.FileResult:
    return api.verify_source(source, opts=api.VerifyOptions(**kw))


def single_verdict(source: str, **kw) -> api.ProcVerdict:
    res = verify(source, **kw)
    assert not res.parse_diagnostics, [d.format() for d in res.parse_diagnostics]
    assert len(res.verdicts) == 1
    return res.verdicts[0]


def pipeline(source: str):
    """(checked, table, solver) for encoder/symstate level tests."""
    chk = checked(source)
    table = speclogic.build_invariant_table(chk)
    return chk, table, Solver()


# A lockchain-shaped client: it takes the lock of corpus/RSLLockNoSpin.rsl
# three times, changing and restoring the protected location each time.
LOCK_CLIENT = """
define J = j |-> 4;
invariant Q(V) = V == 0 ? true : (V == 1 ? J : false);
define Lock(x) = Init(x) && RMWAcq(x, Q) && Rel(x, Q);

proc lock(x, j) requires { Lock(x) } ensures { Lock(x) && J }
{ while (CAS_rel_acq(x, 1, 0) != 1); }

proc unlock(x, j) requires { Lock(x) && J } ensures { Lock(x) }
{ [x]_rel := 1; }

proc client(x, j) requires { Lock(x) } ensures { Lock(x) }
{
""" + "".join(f"  call lock(x, j); v{r} := [j]_na; [j]_na := v{r} + {r + 1};\n"
              f"  w{r} := [j]_na; [j]_na := w{r} - {r + 1}; call unlock(x, j);\n"
              for r in range(3)) + "}\n"


# The read gives x the value v itself, so the product written and the
# post's v * v are one atom.
SQUARE = """
proc main(a) requires { a |-> v } ensures { a |-> v * v }
{ x := [a]_na; [a]_na := x * x; }
"""
