"""A concrete-execution oracle for straight-line code over non-atomic locations.

Seeded procedures read, write and assign with ``+ - *`` and ``if`` over two or
three ``_na`` locations.  The precondition bounds each location's initial value,
``a |-> va && lo <= va && va <= hi``, so an interpreter here can run the body on
every input.  The postcondition is a chain of conditional assertions, one branch
per path of the body, that gives each location its final value as an expression
over the inputs; half of them are then made false at one value.  Whether a post
holds is decided only by running the body, never by the verifier: a post that
holds on every input is true, otherwise false.  The verifier must never answer
``verified`` for a false post, and for a true one it may fail only as
``IncompleteSolver`` (products of two variables are opaque atoms).
"""

import itertools
import random

from conftest import verify

from weakmem.diagnostics import INCOMPLETE_SOLVER

LOCS = ("a", "b", "c")
PROGRAMS = 1000

# An expression is ("lit", n) | ("var", name) | (op, left, right) with op in
# "+ - *"; a condition is (cmp, left, right).


def show(e) -> str:
    if e[0] == "lit":
        return str(e[1]) if e[1] >= 0 else f"(-{-e[1]})"
    if e[0] == "var":
        return e[1]
    return f"({show(e[1])} {e[0]} {show(e[2])})"


def value(e, env: dict) -> int:
    if e[0] == "lit":
        return e[1]
    if e[0] == "var":
        return env[e[1]]
    left, right = value(e[1], env), value(e[2], env)
    return left + right if e[0] == "+" else left - right if e[0] == "-" else left * right


def holds(cond, env: dict) -> bool:
    left, right = value(cond[1], env), value(cond[2], env)
    return {"==": left == right, "!=": left != right, "<": left < right,
            "<=": left <= right}[cond[0]]


def height(e) -> int:
    return 1 if e[0] in ("lit", "var") else 1 + max(height(e[1]), height(e[2]))


def subst(e, env: dict):
    """The expression with each local replaced by its value over the inputs."""
    if e[0] == "lit":
        return e
    if e[0] == "var":
        return env[e[1]]
    return (e[0], subst(e[1], env), subst(e[2], env))


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

class Gen:
    def __init__(self, rng: random.Random, locs: tuple):
        self.rng = rng
        self.locs = locs
        self.count = 0

    def expr(self, names: list, depth: int = 2):
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            if names and rng.random() < 0.8:
                return ("var", rng.choice(names))
            return ("lit", rng.randint(-3, 5))
        return (rng.choice("+-*"), self.expr(names, depth - 1), self.expr(names, depth - 1))

    def stmts(self, names: list, n: int, nested: bool) -> list:
        names = list(names)
        out = []
        for _ in range(n):
            pick = self.rng.random()
            if pick < 0.3:
                self.count += 1
                x = f"x{self.count}"
                out.append(("read", x, self.rng.choice(self.locs)))
                names.append(x)
            elif pick < 0.55:
                out.append(("write", self.rng.choice(self.locs), self.expr(names)))
            elif pick < 0.8 or nested:
                self.count += 1
                x = f"x{self.count}"
                out.append(("assign", x, self.expr(names)))
                names.append(x)
            else:
                cond = (self.rng.choice(("==", "!=", "<", "<=")),
                        self.expr(names, 1), self.expr(names, 1))
                # names bound in a branch are not used after the if
                out.append(("if", cond, self.stmts(names, self.rng.randint(1, 2), True),
                            self.stmts(names, self.rng.randint(0, 2), True)))
        return out


def show_stmts(stmts: list, indent: str) -> list[str]:
    lines = []
    for s in stmts:
        if s[0] == "read":
            lines.append(f"{indent}{s[1]} := [{s[2]}]_na;")
        elif s[0] == "write":
            lines.append(f"{indent}[{s[1]}]_na := {show(s[2])};")
        elif s[0] == "assign":
            lines.append(f"{indent}{s[1]} := {show(s[2])};")
        else:
            cond = s[1]
            lines.append(f"{indent}if ({show(cond[1])} {cond[0]} {show(cond[2])}) {{")
            lines += show_stmts(s[2], indent + "  ")
            lines.append(f"{indent}}} else {{")
            lines += show_stmts(s[3], indent + "  ") or [f"{indent}  skip;"]
            lines.append(f"{indent}}}")
    return lines


def paths(stmts: list, env: dict, heap: dict, conds: tuple) -> list:
    """Every path of the body as (conditions, final heap), each condition a
    (condition, taken) pair and each value an expression over the inputs."""
    if not stmts:
        return [(conds, heap)]
    s, rest = stmts[0], stmts[1:]
    if s[0] == "read":
        return paths(rest, dict(env, **{s[1]: heap[s[2]]}), heap, conds)
    if s[0] == "write":
        return paths(rest, env, dict(heap, **{s[1]: subst(s[2], env)}), conds)
    if s[0] == "assign":
        return paths(rest, dict(env, **{s[1]: subst(s[2], env)}), heap, conds)
    cond = (s[1][0], subst(s[1][1], env), subst(s[1][2], env))
    out = []
    for taken, branch in ((True, s[2]), (False, s[3])):
        # the branch's own names go out of scope with it, as in the generator
        out += paths(branch, env, heap, conds + ((cond, taken),))
    return [p for c, h in out for p in paths(rest, env, h, c)]


def show_post(ps: list, locs: tuple) -> str:
    """``pc1 ? P1 : (pc2 ? P2 : P3)``: each branch holds every location."""
    def star(heap):
        return "(" + " && ".join(f"{loc} |-> {show(heap[loc])}" for loc in locs) + ")"

    def pc(conds):
        bits = [f"{show(c[1])} {c[0]} {show(c[2])}" for c, taken in conds]
        bits = [b if taken else f"!({b})" for b, (_, taken) in zip(bits, conds)]
        return "(" + " && ".join(bits) + ")"

    text = star(ps[-1][1])
    for conds, heap in reversed(ps[:-1]):
        text = f"{pc(conds)} ? {star(heap)} : ({text})"
    return text


def program(seed: int):
    """(source, the body, the bounds, the post's paths) for one seed."""
    rng = random.Random(seed)
    locs = LOCS[:rng.randint(2, 3)]
    gen = Gen(rng, locs)
    while True:
        # most bodies start from a value read
        first = [("read", "x0", rng.choice(locs))] if rng.random() < 0.8 else []
        body = first + gen.stmts([x[1] for x in first], rng.randint(2, 5), False)
        inputs = {loc: ("var", f"v{loc}") for loc in locs}
        ps = paths(body, {}, inputs, ())
        if len(ps) <= 4 and all(height(e) <= 6 for _, h in ps for e in h.values()):
            break
    if rng.random() < 0.5:
        # make the post false at one value, unless that path never runs
        conds, heap = ps[rng.randrange(len(ps))]
        loc = rng.choice(locs)
        heap[loc] = (rng.choice("+-"), heap[loc], ("lit", rng.randint(1, 2)))
    bounds = {}
    for loc in locs:
        lo = rng.randint(-3, 2)
        bounds[loc] = (lo, lo + rng.randint(0, 3))
    pre = " && ".join(f"{loc} |-> v{loc} && {lo} <= v{loc} && v{loc} <= {hi}"
                      for loc, (lo, hi) in bounds.items())
    source = "\n".join([f"proc main({', '.join(locs)})",
                        f"  requires {{ {pre} }}",
                        f"  ensures {{ {show_post(ps, locs)} }}",
                        "{"] + show_stmts(body, "  ") + ["}", ""])
    return source, body, bounds, ps


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

def run(stmts: list, env: dict, heap: dict) -> None:
    for s in stmts:
        if s[0] == "read":
            env[s[1]] = heap[s[2]]
        elif s[0] == "write":
            heap[s[1]] = value(s[2], env)
        elif s[0] == "assign":
            env[s[1]] = value(s[2], env)
        else:
            run(s[2] if holds(s[1], env) else s[3], dict(env), heap)


def post_holds(ps: list, inputs: dict, heap: dict) -> bool:
    """The conditional post at the final heap: the first path whose
    conditions hold on the inputs names the values."""
    for conds, want in ps:
        if all(holds(c, inputs) == taken for c, taken in conds):
            return all(value(want[loc], inputs) == heap[loc] for loc in heap)
    raise AssertionError("the paths cover every input")


def true_post(body: list, bounds: dict, ps: list) -> bool:
    for vals in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds.values())):
        heap = dict(zip(bounds, vals))
        inputs = {f"v{loc}": v for loc, v in heap.items()}
        run(body, {}, heap)
        if not post_holds(ps, inputs, heap):
            return False
    return True


def test_interpreter_on_a_known_program():
    body = [("read", "x", "a"), ("if", ("<", ("var", "x"), ("lit", 1)),
                                     [("write", "a", ("lit", 1))], []),
            ("write", "b", ("*", ("var", "x"), ("var", "x")))]
    ps = paths(body, {}, {"a": ("var", "va"), "b": ("var", "vb")}, ())
    assert len(ps) == 2
    assert true_post(body, {"a": (-2, 2), "b": (0, 0)}, ps)
    ps[1][1]["a"] = ("+", ("var", "va"), ("lit", 0))
    assert true_post(body, {"a": (-2, 2), "b": (0, 0)}, ps)
    ps[1][1]["a"] = ("lit", 1)
    assert not true_post(body, {"a": (-2, 2), "b": (0, 0)}, ps)
    assert true_post(body, {"a": (-2, 0), "b": (0, 0)}, ps)


def test_no_false_post_verifies():
    counts = {"true": 0, "false": 0, "verified": 0, INCOMPLETE_SOLVER: 0}
    for seed in range(PROGRAMS):
        source, body, bounds, ps = program(seed)
        res = verify(source)
        assert not res.parse_diagnostics, (source, [d.format() for d in res.parse_diagnostics])
        (verdict,) = res.verdicts
        kinds = {d.kind for d in verdict.diagnostics}
        if true_post(body, bounds, ps):
            counts["true"] += 1
            if verdict.status == "verified":
                counts["verified"] += 1
            else:
                assert kinds == {INCOMPLETE_SOLVER}, (source, verdict.diagnostics)
                counts[INCOMPLETE_SOLVER] += 1
        else:
            counts["false"] += 1
            assert verdict.status != "verified", source
    assert counts["true"] > PROGRAMS // 4 and counts["false"] > PROGRAMS // 4, counts
    assert counts["verified"] > 0 and counts[INCOMPLETE_SOLVER] > 0, counts
