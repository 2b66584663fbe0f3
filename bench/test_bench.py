"""The benchmark's own tests; not part of the repository's test suite.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import tracing
from workloads import KDV_LEADS, WORKLOADS, NormalForm

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]


def test_smoke_passes_every_check():
    done = subprocess.run(RUN + ["--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "deep-reduce: attempted 4, failed 1, correct True" in lines
    assert "hierarchy: attempted 39, failed 0, correct True" in lines
    assert "constrained: attempted 19, failed 0, correct True" in lines


def test_traced_run_reports_every_per_layer_metric():
    done = subprocess.run(
        RUN + ["--workload", "hierarchy", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == tracing.metric_names()
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ops.compose.calls"] > 0
    assert metrics["brackets.theta.per_operator"] > 1
    assert metrics["runner.task.lift.s"] > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in spec["per_layer"])


def test_normal_form_checks_reject_wrong_answers():
    spec = NormalForm(KDV_LEADS, kdv_t_order=1)
    point = checks.rational_point(5)
    assert checks.check_normal_form("[6*u*u_x + u_xxx]", spec, point) == []
    assert checks.check_normal_form("[5*u*u_x + u_xxx]", spec, point)
    assert checks.check_normal_form("[u_t]", spec, point)  # reducible jet
    assert checks.check_normal_form("[6*u*u_x + u_xx]", spec, point)  # wrong weight


def test_exact_solution_derivatives_agree_with_sympy():
    import sympy

    x, t = sympy.symbols("x t")
    u = -6 * x * (x ** 3 + 24 * t) / (x ** 3 - 12 * t) ** 2
    x0, t0 = Fraction(3, 7), Fraction(-2, 5)
    at = {x: sympy.Rational(3, 7), t: sympy.Rational(-2, 5)}
    dx, dt = checks.kdv_solution_derivatives(x0, t0, 4)
    for j in range(5):
        assert sympy.Rational(dx[j].numerator, dx[j].denominator) == sympy.diff(u, x, j).subs(at)
        assert sympy.Rational(dt[j].numerator, dt[j].denominator) == sympy.diff(u, t, j).subs(at)
    assert checks.kdv_solution_residual() == 0


def test_manifest_matches_the_input_files():
    for inputs in WORKLOADS.values():
        for inp in inputs:
            source = (ROOT / inp.path).read_text(encoding="utf-8")
            assert checks.declared_tasks(source) == [e.task for e in inp.tasks]
