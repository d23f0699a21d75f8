"""The statement printer: a program back to source text.

The round-trip test in test_frontend.py and the mutation oracle print parsed
programs back and parse them again; node equality ignores spans, so the
second parse must give an equal tree.  Diagnostics only print expressions
and assertions, which `weakmem.syntax` keeps.
"""

from weakmem import syntax as S


def _pp_block(stmts: list, indent: int) -> list[str]:
    pad = "  " * indent
    out: list[str] = []
    for s in stmts:
        out.extend(pp_stmt(s, indent))
    return out or [pad + "skip;"]


def pp_stmt(s: S.Stmt, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(s, S.SAlloc):
        kw = "ghost_alloc" if s.kind == "ghost" else "alloc_" + s.kind
        inv = f", {' && '.join(s.inv)}" if s.inv else ""
        return [f"{pad}{kw}({s.var}{inv});"]
    if isinstance(s, S.SWrite):
        return [f"{pad}[{s.loc}]_{s.mode} := {S.pp_expr(s.value)};"]
    if isinstance(s, S.SRead):
        return [f"{pad}{s.target} := [{s.loc}]_{s.mode};"]
    if isinstance(s, S.SFenceAcq):
        return [f"{pad}fence_acq;"]
    if isinstance(s, S.SFenceRel):
        return [f"{pad}fence_rel({S.pp_assertion(s.assertion)});"]
    if isinstance(s, S.SCas):
        return [f"{pad}{s.target} := CAS_{s.tau}({s.loc}, {S.pp_expr(s.expected)}, "
                f"{S.pp_expr(s.newval)});"]
    if isinstance(s, S.SFaa):
        return [f"{pad}{s.target} := FAA_{s.tau}({s.loc}, {S.pp_expr(s.delta)});"]
    if isinstance(s, S.SRewrite):
        return [f"{pad}rewrite Acq({s.loc}, {' && '.join(s.old)}) to "
                f"Acq({s.loc}, {' && '.join(s.new)});"]
    if isinstance(s, S.SWhile):
        c = s.cond
        if c.kind == "pure":
            cond = S.pp_expr(c.expr)
        elif c.kind == "read":
            cond = f"[{c.loc}]_{c.mode} {c.op} {S.pp_expr(c.rhs)}"
        else:
            cond = (f"CAS_{c.mode}({c.loc}, {S.pp_expr(c.expected)}, "
                    f"{S.pp_expr(c.newval)}) {c.op} {S.pp_expr(c.rhs)}")
        head = f"{pad}while ({cond})"
        lines = [head]
        if s.invariant is not None:
            lines.append(f"{pad}  invariant {{ {S.pp_assertion(s.invariant)} }}")
        if s.body:
            lines.append(pad + "{")
            lines.extend(_pp_block(s.body, indent + 1))
            lines.append(pad + "}")
        else:
            lines[-1] += " ;" if s.invariant is not None else ";"
            if s.invariant is None:
                lines[0] = head + ";"
                lines = [lines[0]]
        return lines
    if isinstance(s, S.SIf):
        lines = [f"{pad}if ({S.pp_expr(s.cond)}) {{"]
        lines.extend(_pp_block(s.then, indent + 1))
        if s.els:
            lines.append(pad + "} else {")
            lines.extend(_pp_block(s.els, indent + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(s, S.SPar):
        lines = [pad + "par {"]
        for t in s.threads:
            lines.append(f"{pad}  thread")
            lines.append(f"{pad}    requires {{ {S.pp_assertion(t.pre)} }}")
            lines.append(f"{pad}    ensures {{ {S.pp_assertion(t.post)} }}")
            lines.append(pad + "  {")
            lines.extend(_pp_block(t.body, indent + 2))
            lines.append(pad + "  }")
        lines.append(pad + "}")
        return lines
    if isinstance(s, S.SCall):
        args = ", ".join(S.pp_expr(a) for a in s.args)
        if s.target:
            return [f"{pad}{s.target} := call {s.callee}({args});"]
        return [f"{pad}call {s.callee}({args});"]
    if isinstance(s, S.SAssign):
        return [f"{pad}{s.var} := {S.pp_expr(s.value)};"]
    if isinstance(s, S.SFree):
        return [f"{pad}free({s.var});"]
    if isinstance(s, S.SSkip):
        return [f"{pad}skip;"]
    raise AssertionError(s)


def pp_program(p: S.Program) -> str:
    lines: list[str] = []
    for d in p.invariants:
        lines.append(f"invariant {d.name}({d.param}) = {S.pp_assertion(d.body)};")
    if p.invariants:
        lines.append("")
    for proc in p.procedures:
        def params_of(ps):
            return ", ".join(("ghost " if q.ghost else "") + q.name for q in ps)
        head = f"proc {proc.name}({params_of(proc.params)})"
        if proc.returns:
            head += f" returns ({params_of(proc.returns)})"
        lines.append(head)
        if proc.has_spec:
            lines.append(f"  requires {{ {S.pp_assertion(proc.pre)} }}")
            lines.append(f"  ensures {{ {S.pp_assertion(proc.post)} }}")
        lines.append("{")
        lines.extend(_pp_block(proc.body, 1))
        lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
