"""Spans around the public functions of each hamcheck layer.

The wrappers are installed from outside the package: every module and
class attribute of ``hamcheck`` that holds a traced function is replaced,
so a function is traced wherever it is looked up (``certify_bivector`` in
``brackets``, ``runner`` and ``deform``; ``DiffPoly.__mul__`` also as
``__rmul__``).  A target that a later version of the package removes or
renames is skipped.

A span is (name, parent, start, end); spans stay in flat arrays in
memory and are written out once, at the end.  Self time is a span's
duration minus the durations of its children; the program runs in one
thread, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

# (span name, module, attribute path).  Several targets may share a name.
TARGETS = (
    ("parser.parse_program", "parser", "parse_program"),
    ("poly.mul", "poly", "DiffPoly.__mul__"),
    ("poly.add", "poly", "DiffPoly.__add__"),
    ("poly.total", "poly", "DiffPoly.total"),
    ("poly.subst_jet", "poly", "DiffPoly.subst_jet"),
    ("poly.jetvars", "poly", "DiffPoly.jetvars"),
    ("poly.euler", "poly", "euler"),
    ("poly.relabel_deps", "poly", "DiffPoly.relabel_deps"),
    ("ops.compose", "ops", "CDiffOp.compose"),
    ("ops.adjoint", "ops", "CDiffOp.adjoint"),
    ("ops.apply", "ops", "CDiffOp.apply"),
    ("ops.linearize", "ops", "linearize"),
    ("systems.reduce", "systems", "EquationSystem.reduce"),
    ("systems.prolonged_rhs", "systems", "EquationSystem.prolonged_rhs"),
    ("systems.factor_through_f", "systems", "EquationSystem.factor_through_f"),
    ("systems.make_system", "systems", "make_system"),
    ("brackets.certify_bivector", "brackets", "certify_bivector"),
    ("brackets.bivector_residual", "brackets", "bivector_residual"),
    ("brackets._theta", "brackets", "_theta"),
    ("brackets.schouten", "brackets", "schouten"),
    ("brackets.is_zero_trivector", "brackets", "is_zero_trivector"),
    ("brackets.skew_density_verdict", "brackets", "skew_density_verdict"),
    ("brackets.constraint_system", "brackets", "constraint_system"),
    ("brackets.poisson", "brackets", "poisson"),
    ("brackets.magri_defects", "brackets", "magri_defects"),
    ("equivalence.equivalence_residuals", "equivalence", "equivalence_residuals"),
    ("equivalence.transport", "equivalence", "transport"),
    ("equivalence.equivalent_as_bivectors", "equivalence", "equivalent_as_bivectors"),
    ("deform.deform", "deform", "deform"),
    ("deform.lift_hierarchy", "deform", "lift_hierarchy"),
    ("deform.check_conserved", "deform", "check_conserved"),
    ("render", "render", "jet_text"),
    ("render", "render", "poly_text"),
    ("render", "render", "vector_text"),
    ("render", "render", "entry_text"),
    ("render", "render", "op_text"),
    ("runner.task", "runner", "run_task"),
    ("runner.report_json", "runner", "report_json"),
)

TASK_KINDS = (
    "reduce", "symmetry", "genfn", "bivector", "schouten", "hamiltonian",
    "poisson", "magri", "equivalence", "transport", "deform", "lift",
)

CALLS_AND_SELF = (
    "poly.mul", "poly.add", "poly.total", "poly.subst_jet", "poly.jetvars",
    "ops.compose", "ops.adjoint", "ops.apply",
    "systems.reduce", "systems.factor_through_f", "systems.make_system",
    "brackets.certify_bivector",
)
SELF_ONLY = (
    "poly.euler", "poly.relabel_deps", "ops.linearize",
    "brackets.schouten", "brackets.is_zero_trivector",
    "brackets.skew_density_verdict", "brackets.constraint_system",
    "brackets.poisson", "brackets.magri_defects",
    "equivalence.equivalence_residuals", "equivalence.transport",
    "equivalence.equivalent_as_bivectors",
    "deform.deform", "deform.lift_hierarchy", "deform.check_conserved",
    "render",
)
THETA = ("brackets.bivector_residual", "brackets._theta")


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = ["parser.parse_program.s"]
    for n in CALLS_AND_SELF:
        names += [f"{n}.calls", f"{n}.self_s"]
    names += ["poly.mul.terms_out", "poly.subst_jet.terms_out"]
    names += [f"{n}.self_s" for n in SELF_ONLY]
    names += [
        "systems.reduce.subst_per_call",
        "systems.prolonged_rhs.calls", "systems.prolonged_rhs.hit_ratio",
        "brackets.theta.builds", "brackets.theta.per_operator",
    ]
    names += [f"runner.task.{k}.s" for k in TASK_KINDS]
    names += ["runner.report_json.s", "trace.overhead_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".builds", ".terms_out")):
        return "count"
    if name.endswith((".hit_ratio", ".per_operator", ".subst_per_call")):
        return "ratio"
    return "s"


def _op_key(op):
    return (op.rows, op.cols, tuple(sorted(
        (key, tuple(sorted(a.terms.items()))) for key, a in op.entries.items()
    )))


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.patched = []
        self.passes = []
        self.pass_starts = []
        self._begin_pass()

    def _id(self, name):
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    # -- installing ------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "hamcheck" or n.startswith("hamcheck.")]
        owners = list(modules)
        for mod in modules:
            owners += [
                v for v in vars(mod).values()
                if isinstance(v, type) and getattr(v, "__module__", "").startswith("hamcheck")
            ]
        for name, module, path in TARGETS:
            target = sys.modules.get(f"hamcheck.{module}")
            for part in path.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                continue
            wrapper = self._wrapper(name, target)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is target:
                        self.patched.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self.patched):
            setattr(owner, attr, value)
        self.patched = []

    def _wrapper(self, name, fn):
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        stack = self.stack
        clock = time.perf_counter
        nid = self._id(name)
        before = after = None
        if name == "runner.task":
            ids = {k: self._id(f"runner.task.{k}") for k in TASK_KINDS}

            def before(args):
                names[-1] = ids.get(args[1].kind, nid)
        elif name == "systems.prolonged_rhs":
            def before(args):
                self.prolonged_keys.add(args[:3])
        elif name in THETA:
            def before(args):
                self.theta_pairs.add((args[0], _op_key(args[1])))
        elif name in ("poly.mul", "poly.subst_jet"):
            def after(out):
                terms = getattr(out, "terms", None)
                if terms is not None:
                    self.terms_out[name] = self.terms_out.get(name, 0) + len(terms)

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            if before is not None:
                before(args)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- passes ----------------------------------------------------------

    def _begin_pass(self):
        self.pass_start = len(self.span_name)
        self.pass_starts.append(self.pass_start)
        self.prolonged_keys = set()
        self.theta_pairs = set()
        self.terms_out = {}

    def close_open_spans(self):
        """Close spans left open by an exception that escaped its own
        bookkeeping (a RecursionError can strike inside ``finally``)."""
        now = time.perf_counter()
        for i in self.stack[1:]:
            self.span_end[i] = now
        del self.stack[1:]

    def end_pass(self):
        """Fold the spans of the pass just run into per-layer figures."""
        self.close_open_spans()
        lo, hi = self.pass_start, len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        reduce_id = self.name_ids.get("systems.reduce", -1)
        subst_id = self.name_ids.get("poly.subst_jet", -1)
        dur = [ends[i] - starts[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        in_reduce = [False] * (hi - lo)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        subst_in_reduce = 0
        for j in range(hi - lo):
            p = parents[lo + j] - lo
            if p >= 0:
                child[p] += dur[j]
                in_reduce[j] = in_reduce[p] or names[lo + p] == reduce_id
        for j in range(hi - lo):
            nid = names[lo + j]
            calls[nid] += 1
            total[nid] += dur[j]
            self_s[nid] += dur[j] - child[j]
            if nid == subst_id and in_reduce[j]:
                subst_in_reduce += 1

        def get(table, name):
            nid = self.name_ids.get(name)
            return 0 if nid is None else table[nid]

        out = {"parser.parse_program.s": get(total, "parser.parse_program")}
        for n in CALLS_AND_SELF:
            out[f"{n}.calls"] = get(calls, n)
            out[f"{n}.self_s"] = get(self_s, n)
        for n in ("poly.mul", "poly.subst_jet"):
            out[f"{n}.terms_out"] = self.terms_out.get(n, 0)
        for n in SELF_ONLY:
            out[f"{n}.self_s"] = get(self_s, n)
        reduces = get(calls, "systems.reduce")
        out["systems.reduce.subst_per_call"] = subst_in_reduce / reduces if reduces else 0.0
        prolonged = get(calls, "systems.prolonged_rhs")
        out["systems.prolonged_rhs.calls"] = prolonged
        out["systems.prolonged_rhs.hit_ratio"] = (
            (prolonged - len(self.prolonged_keys)) / prolonged if prolonged else 0.0
        )
        builds = sum(get(calls, n) for n in THETA)
        out["brackets.theta.builds"] = builds
        out["brackets.theta.per_operator"] = (
            builds / len(self.theta_pairs) if self.theta_pairs else 0.0
        )
        for k in TASK_KINDS:
            out[f"runner.task.{k}.s"] = get(total, f"runner.task.{k}")
        out["runner.report_json.s"] = get(total, "runner.report_json")
        self.passes.append(out)
        self._begin_pass()

    def metrics(self, overhead_s: float) -> dict:
        """Median of each figure over the traced passes (the counts are the
        same in every pass), and the given tracing overhead."""
        out = {
            name: statistics.median(p[name] for p in self.passes)
            for name in metric_names() if name != "trace.overhead_s"
        }
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path):
        """Span table: a length-prefixed JSON header, then four arrays."""
        header = json.dumps({
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "pass_starts": self.pass_starts,
        }).encode()
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
