"""Task execution and deterministic report assembly.

The parser has built every declaration; tasks run one after another in
declaration order, so a task sees the outputs of every deform before it.
Reports are built from canonical renderings only, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from . import __version__
from .brackets import (
    NotABivector,
    certify_bivector,
    is_zero_trivector,
    magri_defects,
    poisson,
    schouten,
)
from .deform import DeformedSystem, deform, lift_hierarchy
from .equivalence import (
    EquivalenceData,
    equivalence_residuals,
    equivalent_as_bivectors,
    transport,
)
from .ops import CDiffOp
from .parser import Direction, NameRef, Program, TaskDecl
from .poly import DiffPoly, VectorFunction, as_vector, run_scope
from .render import op_text, poly_text, vector_text
from .systems import EquationSystem, HamcheckError

OK = "ok"
FAIL = "fail"
RESIDUAL = "residual"


class TaskResult:
    __slots__ = ("index", "kind", "status", "detail", "seconds")

    def __init__(self, index: int, kind: str, status: str, detail: dict,
                 seconds: float):
        self.index = index
        self.kind = kind
        self.status = status
        self.detail = detail
        self.seconds = seconds


class RunContext:
    """The value of every name of a program, and the bivector memo.

    The values are the ones the parser built, copied so that a run's
    deform outputs stay out of the program.  A name the kernel rejected
    holds its error, and each task that names it fails with that error.
    A deform output's name holds its task until the task has run, and
    the task's error if it failed.
    """

    def __init__(self, program: Program):
        self.values = dict(program.names)
        self.bivectors = {}

    # -- argument resolution ------------------------------------------------

    def lookup(self, name):
        value = self.values[name]
        if isinstance(value, Exception):
            raise HamcheckError(str(value))
        if isinstance(value, TaskDecl):
            raise HamcheckError(f"{name!r} has not been produced yet")
        return value

    def resolve(self, arg):
        return self.lookup(arg.name) if isinstance(arg, NameRef) else arg

    def need_system(self, value):
        if isinstance(value, DeformedSystem):
            return value.system
        if isinstance(value, EquationSystem):
            return value
        raise HamcheckError(f"expected a system, got {type(value).__name__}")

    def need_op(self, value):
        if isinstance(value, CDiffOp):
            return value
        raise HamcheckError(f"expected an operator, got {type(value).__name__}")

    def need_vector(self, value, system):
        if isinstance(value, CDiffOp):
            value = value.as_poly()
            if value is None:
                raise HamcheckError("expected a vector of densities, got an operator")
        if not isinstance(value, (VectorFunction, DiffPoly)):
            raise HamcheckError(
                f"expected a vector of densities, got {type(value).__name__}"
            )
        value = as_vector(value)
        bad = set()
        for p in value:
            bad |= {d for d in p.deps() if d >= system.frame.m}
        if bad:
            raise HamcheckError("vector mentions dependents outside the system frame")
        return value

    def certify(self, system, op: CDiffOp):
        """The Bivector of op on system, or the NotABivector carrying its
        residual; certified at most once per (system, operator)."""
        key = _bivector_key(system, op)
        got = self.bivectors.get(key)
        if got is None:
            try:
                got = certify_bivector(system, op)
            except NotABivector as exc:
                # without its traceback the memo keeps no frames of the build alive
                got = exc.with_traceback(None)
            self.bivectors[key] = got
        return got

    def certified(self, system, op: CDiffOp):
        """The Bivector of op on system; HamcheckError if it is not one."""
        got = self.certify(system, op)
        if isinstance(got, NotABivector):
            raise HamcheckError(
                "operator fails the bivector condition; residual "
                + op_text(system.frame, got.residual)
            )
        return got

    def remember(self, biv):
        """Record a Bivector certified elsewhere (the deformed blocks)."""
        self.bivectors[_bivector_key(biv.home, biv.op)] = biv


def _bivector_key(system, op: CDiffOp):
    # by decoded terms: an operator of the program and one a task built
    # may be packed apart, one outside the run and one in it
    return (
        id(system),
        op.rows,
        op.cols,
        tuple(
            (r, c, sigma, frozenset(a.items()))
            for (r, c, sigma), a in sorted(op.entries.items())
        ),
    )


def _verdict_detail(verdict) -> dict:
    out = {"zero": verdict.zero, "exact": verdict.exact}
    if not verdict.zero:
        out["residual_wrt"] = verdict.frame.dependents[verdict.residual_dep]
        out["residual"] = poly_text(verdict.frame, verdict.residual)
    return out


def run_task(ctx: RunContext, task: TaskDecl) -> TaskResult:
    t0 = time.perf_counter()
    kind = task.kind
    try:
        status, detail = _dispatch(ctx, task)
    except (HamcheckError, ValueError) as exc:
        status, detail = FAIL, {"error": str(exc)}
    except Exception as exc:
        # a kernel bug: fail this task only, and keep the traceback on stderr;
        # the interpreter's built-in display needs no import and does not
        # raise, so it works even when memory is short
        sys.__excepthook__(type(exc), exc, exc.__traceback__)
        status, detail = FAIL, {
            "error": f"internal error: {type(exc).__name__}: {exc}"
        }
    return TaskResult(0, kind, status, detail, time.perf_counter() - t0)


def _args(task, count_min, count_max=None):
    count_max = count_max if count_max is not None else count_min
    if not (count_min <= len(task.args) <= count_max):
        raise HamcheckError(
            f"{task.kind} expects {count_min}"
            + (f"..{count_max}" if count_max != count_min else "")
            + f" arguments, got {len(task.args)}"
        )
    return task.args


def _dispatch(ctx: RunContext, task: TaskDecl):
    kind = task.kind
    if kind == "reduce":
        args = _args(task, 2)
        system = ctx.need_system(ctx.resolve(args[0]))
        vec = ctx.need_vector(ctx.resolve(args[1]), system)
        out = system.reduce_vector(vec)
        return OK, {"normal_form": vector_text(system.frame, out)}

    if kind in ("symmetry", "genfn"):
        args = _args(task, 2)
        system = ctx.need_system(ctx.resolve(args[0]))
        vec = ctx.need_vector(ctx.resolve(args[1]), system)
        if kind == "symmetry":
            residual = system.symmetry_residual(vec)
        else:
            residual = system.genfn_residual(vec)
        if residual.is_zero():
            return OK, {kind: True}
        return FAIL, {kind: False, "residual": vector_text(system.frame, residual)}

    if kind in ("bivector", "hamiltonian"):
        args = _args(task, 2)
        system = ctx.need_system(ctx.resolve(args[0]))
        biv = ctx.certify(system, ctx.need_op(ctx.resolve(args[1])))
        if isinstance(biv, NotABivector):
            return FAIL, {"bivector": False,
                          "residual": op_text(system.frame, biv.residual)}
        if kind == "bivector":
            return OK, {"bivector": True}
        verdict = is_zero_trivector(system, schouten(system, biv, biv))
        detail = {"bivector": True, **_verdict_detail(verdict)}
        return (OK if verdict.zero else RESIDUAL), detail

    if kind == "schouten":
        args = _args(task, 3)
        system = ctx.need_system(ctx.resolve(args[0]))
        b1 = ctx.certified(system, ctx.need_op(ctx.resolve(args[1])))
        b2 = ctx.certified(system, ctx.need_op(ctx.resolve(args[2])))
        verdict = is_zero_trivector(system, schouten(system, b1, b2))
        detail = _verdict_detail(verdict)
        return (OK if verdict.zero else RESIDUAL), detail

    if kind == "poisson":
        args = _args(task, 4)
        system = ctx.need_system(ctx.resolve(args[0]))
        biv = ctx.certified(system, ctx.need_op(ctx.resolve(args[1])))
        psi1 = ctx.need_vector(ctx.resolve(args[2]), system)
        psi2 = ctx.need_vector(ctx.resolve(args[3]), system)
        out = poisson(system, biv, psi1, psi2)
        return OK, {"bracket": vector_text(system.frame, out)}

    if kind == "magri":
        # a relation needs two vectors; with one the check would be vacuous
        args = _args(task, 5, 64)
        system = ctx.need_system(ctx.resolve(args[0]))
        b1 = ctx.certified(system, ctx.need_op(ctx.resolve(args[1])))
        b2 = ctx.certified(system, ctx.need_op(ctx.resolve(args[2])))
        chain = [ctx.need_vector(ctx.resolve(a), system) for a in args[3:]]
        defects = magri_defects(system, b1, b2, chain)
        bad = [
            (i, vector_text(system.frame, d))
            for i, d in enumerate(defects)
            if not d.is_zero()
        ]
        if bad:
            return FAIL, {"magri": False, "defects": dict(bad)}
        return OK, {"magri": True, "pairs_checked": len(defects)}

    if kind == "equivalence":
        args = _args(task, 1)
        data = ctx.resolve(args[0])
        if not isinstance(data, EquivalenceData):
            raise HamcheckError("equivalence task needs an equivalence block name")
        residuals = equivalence_residuals(data)
        failing = {
            name: op_text(data.e2.frame, op)
            for name, op in residuals.items()
            if not op.is_zero()
        }
        if failing:
            return FAIL, {"relations": failing}
        return OK, {"relations": sorted(residuals)}

    if kind == "transport":
        args = _args(task, 3, 4)
        data = ctx.resolve(args[0])
        if not isinstance(data, EquivalenceData):
            raise HamcheckError("transport needs an equivalence block name")
        op = ctx.need_op(ctx.resolve(args[1]))
        direction = args[2]
        if not isinstance(direction, Direction):
            raise HamcheckError("transport direction must be 1->2 or 2->1")
        target = data.e2 if direction.text == "1->2" else data.e1
        source = data.e1 if direction.text == "1->2" else data.e2
        ctx.certified(source, op)
        moved = transport(data, op, direction.text)
        got = ctx.certify(target, moved)
        recertified = not isinstance(got, NotABivector)
        detail = {"transported": op_text(target.frame, moved),
                  "recertified": recertified}
        if not recertified:
            detail["residual"] = op_text(target.frame, got.residual)
            return FAIL, detail
        if len(args) == 4:
            other = ctx.need_op(ctx.resolve(args[3]))
            verdict = equivalent_as_bivectors(
                target, got, ctx.certified(target, other)
            )
            detail["comparison"] = _verdict_detail(verdict)
            return (OK if verdict.zero else RESIDUAL), detail
        return OK, detail

    if kind == "deform":
        names = (task.alias, f"{task.alias}_A1", f"{task.alias}_A2") if task.alias else ()
        try:
            args = _args(task, 3)
            system = ctx.need_system(ctx.resolve(args[0]))
            b1 = ctx.certified(system, ctx.need_op(ctx.resolve(args[1])))
            b2 = ctx.certified(system, ctx.need_op(ctx.resolve(args[2])))
            deformed = deform(system, b1, b2)
        except (HamcheckError, ValueError) as exc:
            # the outputs' names hold the error, as a rejected declaration's do
            for name in names:
                ctx.values[name] = HamcheckError(str(exc))
            raise
        ctx.remember(deformed.a1_til)
        ctx.remember(deformed.a2_til)
        frame = deformed.system.frame
        detail = {
            "equations": vector_text(frame, deformed.system.originals),
            "block_operators_certified": True,
        }
        if names:
            ctx.values.update(zip(names, (deformed, deformed.a1_til.op, deformed.a2_til.op)))
            detail["registered"] = list(names)
        return OK, detail

    if kind == "lift":
        args = _args(task, 3, 64)
        deformed = ctx.resolve(args[0])
        if not isinstance(deformed, DeformedSystem):
            raise HamcheckError("lift needs the name of a deform task result")
        vecs = [ctx.need_vector(ctx.resolve(a), deformed.base) for a in args[1:]]
        lifted = lift_hierarchy(deformed, vecs)
        frame = deformed.system.frame
        detail = {
            "entries": [vector_text(frame, v) for v in lifted.entries],
            "genfn_certified": [r.is_zero() for r in lifted.genfn_residuals],
            "magri_certified": [d.is_zero() for d in lifted.magri_defects],
        }
        if lifted.conserved is None:
            detail["error"] = "conservation check needs an evolution base system"
        else:
            detail["conserved"] = list(lifted.conserved)
        return (OK if lifted.all_certified else FAIL), detail

    raise HamcheckError(f"unhandled task kind {kind!r}")


def run_program(program: Program) -> list:
    """Execute all tasks; never aborts mid-suite, results in declaration order.

    A declaration the kernel rejected fails the tasks that name it.  The
    tasks share one ``Run``, joined if the caller opened one (the CLI opens
    it before parsing, so the declarations share it too): a derivative
    taken once is not taken again, and the table is released when the
    outermost scope ends.
    """
    with run_scope():
        ctx = RunContext(program)
        results = []
        for i, task in enumerate(program.tasks):
            result = run_task(ctx, task)
            result.index = i
            results.append(result)
    return results


def build_report(results, source_bytes: bytes, with_timings: bool = False) -> dict:
    """Structured report; byte-deterministic unless timings are requested."""
    tasks = []
    counts = {OK: 0, FAIL: 0, RESIDUAL: 0}
    for r in results:
        counts[r.status] += 1
        entry = {"index": r.index, "kind": r.kind, "status": r.status,
                 "detail": r.detail}
        if with_timings:
            entry["seconds"] = round(r.seconds, 3)
        tasks.append(entry)
    return {
        "tool": "hamcheck",
        "version": __version__,
        "input_digest": "sha256:" + hashlib.sha256(source_bytes).hexdigest(),
        "tasks": tasks,
        "summary": counts,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def report_text(report: dict) -> str:
    """Human-readable report; a task line ends with its seconds when the
    report carries timings."""
    lines = []
    for entry in report["tasks"]:
        line = f"[{entry['index']:03d}] {entry['kind']:<12} {entry['status']}"
        if "seconds" in entry:
            line += f"  {entry['seconds']:.3f} s"
        lines.append(line)
        for key, value in entry["detail"].items():
            lines.append(f"      {key}: {value}")
    s = report["summary"]
    lines.append(
        f"summary: {s[OK]} ok, {s[FAIL]} failed, {s[RESIDUAL]} with residuals"
    )
    return "\n".join(lines) + "\n"


def exit_code(results) -> int:
    return 0 if all(r.status == OK for r in results) else 1
