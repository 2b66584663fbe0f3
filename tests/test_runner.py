import hashlib
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from hamcheck import brackets, cli, poly, runner
from hamcheck.ops import CDiffOp
from hamcheck.parser import parse_program
from hamcheck.runner import (
    build_report,
    exit_code,
    report_json,
    run_program,
)
from hamcheck.systems import EquationSystem

DEMOS = Path(__file__).resolve().parent.parent / "demos"

KDV_SOURCE = """
independents x, t;
dependents u;
equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }
operator A1 = Dx;
operator A2 = Dx^3 + 4*u*Dx + 2*u_x;
vector psi1 = [3*u^2 + u_xx];
task reduce(kdv, u_t);
task bivector(kdv, A2);
task schouten(kdv, A1, A2);
task genfn(kdv, u_x);
task poisson(kdv, A1, psi1, [u]);
"""


def run_source(source):
    program = parse_program(source)
    return program, run_program(program)


def test_statuses_and_order():
    program, results = run_source(KDV_SOURCE)
    assert [r.kind for r in results] == [
        "reduce", "bivector", "schouten", "genfn", "poisson",
    ]
    assert [r.status for r in results] == ["ok", "ok", "ok", "fail", "ok"]
    assert [r.index for r in results] == list(range(5))


def test_reduce_detail_and_genfn_residual():
    _, results = run_source(KDV_SOURCE)
    assert results[0].detail["normal_form"] == "[6*u*u_x + u_xxx]"
    assert results[3].detail["residual"] == "[-6*u_x^2]"


def test_exit_code_contract():
    _, results = run_source(KDV_SOURCE)
    assert exit_code(results) == 1
    _, good = run_source(KDV_SOURCE.replace("task genfn(kdv, u_x);\n", ""))
    assert exit_code(good) == 0


def test_runner_never_aborts_on_task_errors(monkeypatch, capsys):
    source = KDV_SOURCE + "task poisson(kdv, A1, [u_x], [u]);\n"
    _, results = run_source(source)
    assert results[-1].status == "fail"
    assert "error" in results[-1].detail

    # a direction where a vector belongs
    source = KDV_SOURCE + (
        "task reduce(kdv, 1->2);\n"
        "task genfn(kdv, 1->2);\n"
        "task poisson(kdv, A1, 1->2, [u]);\n"
        "task magri(kdv, A1, A2, psi1, 1->2);\n"
        "task reduce(kdv, u_t);\n"
    )
    _, results = run_source(source)
    assert [r.status for r in results[5:]] == ["fail"] * 4 + ["ok"]
    for r in results[5:9]:
        assert r.detail == {"error": "expected a vector of densities, got Direction"}

    # an exponent past the kernel's limit fails only its own task, naming it
    source = KDV_SOURCE + (
        "equation big { solve u_t = u^20000; ranking t > x; }\n"
        "task reduce(big, u_t^2);\n"
        "task reduce(big, u_t);\n"
    )
    _, results = run_source(source)
    assert [r.status for r in results[5:]] == ["fail", "ok"]
    assert "32768" in results[5].detail["error"]
    assert "internal error" not in results[5].detail["error"]

    # an unexpected exception inside the kernel fails only its own task
    def boom(self, v):
        raise KeyError("lost")

    monkeypatch.setattr(EquationSystem, "reduce_vector", boom)
    capsys.readouterr()
    _, results = run_source(KDV_SOURCE)
    assert results[0].status == "fail"
    assert results[0].detail == {"error": "internal error: KeyError: 'lost'"}
    assert results[1].kind == "bivector" and results[1].status == "ok"
    # ... and its traceback still reaches stderr
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in boom\n" in err
    assert err.endswith("KeyError: 'lost'\n")


def test_magri_with_one_vector_fails_and_names_the_count():
    # one vector states no relation A1(psi_i) = A2(psi_{i+1}), so the check
    # would pass vacuously; two vectors state one
    source = KDV_SOURCE.replace("task genfn(kdv, u_x);\n", "")
    _, results = run_source(source + "task magri(kdv, A1, A2, psi1);\n")
    assert results[-1].status == "fail"
    assert results[-1].detail == {"error": "magri expects 5..64 arguments, got 4"}
    assert exit_code(results) == 1
    _, results = run_source(source + "task magri(kdv, A1, A2, psi1, [u]);\n")
    assert results[-1].status == "ok"
    assert results[-1].detail == {"magri": True, "pairs_checked": 1}
    assert exit_code(results) == 0


def test_report_is_byte_deterministic():
    _, results = run_source(KDV_SOURCE)
    raw = KDV_SOURCE.encode()
    a = report_json(build_report(results, raw))
    _, results2 = run_source(KDV_SOURCE)
    b = report_json(build_report(results2, raw))
    assert a == b
    report = json.loads(a)
    assert report["tool"] == "hamcheck"
    assert report["input_digest"].startswith("sha256:")
    assert report["summary"] == {"ok": 4, "fail": 1, "residual": 0}
    assert all("seconds" not in t for t in report["tasks"])


def test_deform_segment_ordering():
    source = """
independents x, t;
dependents u;
equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }
operator A1 = Dx;
operator A2 = Dx^3 + 4*u*Dx + 2*u_x;
vector psi1 = [3*u^2 + u_xx];
vector psi2 = [u];
task deform(kdv, A1, A2) as sys6;
task bivector(sys6, sys6_A1);
task lift(sys6, psi1, psi2);
"""
    _, results = run_source(source)
    assert [r.status for r in results] == ["ok", "ok", "ok"]
    assert results[2].detail["genfn_certified"] == [True]
    assert results[2].detail["conserved"] == [True]


_FAILED_DEFORM_SOURCE = """
independents x, t;
dependents u;
equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }
operator Z = 0;
vector c = [u];
task deform(kdv, Z, Z) as d;
task lift(d, c, c);
task bivector(d, d_A2);
"""


def test_failed_deform_names_hold_its_error():
    _, results = run_source(_FAILED_DEFORM_SOURCE)
    error = {"error": "equation 1 contains no jet variables"}
    assert [r.status for r in results] == ["fail", "fail", "fail"]
    assert [r.detail for r in results] == [error, error, error]


def test_deform_name_used_before_its_task_runs_is_not_produced_yet():
    program = parse_program(_FAILED_DEFORM_SOURCE)
    ctx = runner.RunContext(program)
    lift, deform = program.tasks[1], program.tasks[0]
    assert runner.run_task(ctx, lift).detail == {"error": "'d' has not been produced yet"}
    assert runner.run_task(ctx, deform).status == "fail"
    assert runner.run_task(ctx, lift).detail == {
        "error": "equation 1 contains no jet variables"
    }


def test_theta_built_once_per_system_and_operator(monkeypatch):
    calls = []
    systems = []  # kept alive, so that no two systems share an id()
    theta = brackets._theta

    def counted(system, op):
        systems.append(system)
        calls.append((id(system), op.rows, op.cols, tuple(sorted(
            (key, tuple(sorted(a.terms.items()))) for key, a in op.entries.items()
        ))))
        return theta(system, op)

    monkeypatch.setattr(brackets, "_theta", counted)
    for name in ("kdv.ham", "kdv6.ham"):
        results = run_program(parse_program((DEMOS / name).read_text()))
        assert all(r.status == "ok" for r in results)
    assert calls
    assert len(calls) == len(set(calls))


def _spy_on_runs(monkeypatch, fail_at=None):
    """Record the active Run at each task; raise out of the task loop at
    task number ``fail_at``."""
    runs = []
    run_task = runner.run_task

    def spy(ctx, task):
        runs.append(poly._RUN.get())
        if len(runs) == fail_at:
            raise RuntimeError("out of the loop")
        return run_task(ctx, task)

    monkeypatch.setattr(runner, "run_task", spy)
    return runs


def test_run_program_sets_one_run_and_releases_it(monkeypatch):
    runs = _spy_on_runs(monkeypatch)
    assert poly._RUN.get() is None
    program, results = run_source(KDV_SOURCE)
    # every task, genfn's failing one too, saw the same Run
    assert results[3].status == "fail"
    assert len(runs) == 5 and runs[0] is not None
    assert all(r is runs[0] for r in runs)
    assert runs[0].table(poly.DiffPoly.const(1, 1)) is not None
    ref = weakref.ref(runs[0])
    runs.clear()
    # no Run is active after the run, and its table is unreachable
    assert poly._RUN.get() is None
    assert ref() is None


def test_run_is_released_when_a_task_or_the_loop_fails(monkeypatch):
    # an internal error inside a builder that holds the run's table
    program = parse_program(KDV_SOURCE)
    total = poly.Run.total

    def lost(self, base, sigma):
        if any(sigma) and not self._by_value:
            raise KeyError("lost")
        return total(self, base, sigma)

    monkeypatch.setattr(poly.Run, "total", lost)
    runs = _spy_on_runs(monkeypatch)
    results = run_program(program)
    assert any(r.detail == {"error": "internal error: KeyError: 'lost'"} for r in results)
    ref = weakref.ref(runs[0])
    runs.clear()
    assert poly._RUN.get() is None and ref() is None

    # an error that leaves run_program
    monkeypatch.undo()
    runs = _spy_on_runs(monkeypatch, fail_at=2)
    with pytest.raises(RuntimeError):
        run_source(KDV_SOURCE)
    ref = weakref.ref(runs[0])
    runs.clear()
    assert poly._RUN.get() is None and ref() is None


def test_two_runs_of_one_program_share_no_table(monkeypatch):
    runs = _spy_on_runs(monkeypatch)
    program = parse_program(KDV_SOURCE)
    first = run_program(program)
    second = run_program(program)
    assert [(r.status, r.detail) for r in first] == [(r.status, r.detail) for r in second]
    one, two = runs[0], runs[-1]
    assert one is not two
    tables = {id(t) for t in one._by_value.values()}
    assert tables and tables.isdisjoint(id(t) for t in two._by_value.values())


def test_builders_outside_a_run_leave_no_run_behind():
    a = CDiffOp.d(1, 0, 3) + CDiffOp.mult(poly.DiffPoly.jet(1, 0, (1,)))
    assert poly._RUN.get() is None
    a.compose(a.adjoint()).apply(poly.VectorFunction([poly.DiffPoly.jet(1, 0, (0,))]))
    assert poly._RUN.get() is None
    # a scope inside a run joins it; the Run ends with the outer scope
    with poly.run_scope() as outer:
        with poly.run_scope() as inner:
            assert inner is outer is poly._RUN.get()
        assert poly._RUN.get() is outer
    assert poly._RUN.get() is None
    with pytest.raises(KeyError):
        with poly.run_scope():
            raise KeyError("inside")
    assert poly._RUN.get() is None


def _child_env():
    # the child imports the package from this checkout, PYTHONPATH set or not
    path = [str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "hamcheck.cli"] + args,
        capture_output=True, text=True, env=_child_env(),
    )
    return proc


def test_start_up_loads_no_code_generators():
    # importing the CLI, parsing a demo and building its systems needs
    # neither dataclasses (and the inspect it loads) nor traceback, which
    # only a kernel bug uses; -S keeps site-packages hooks from loading
    # modules of their own first
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(DEMOS.parent / 'src')!r})\n"
        "import hamcheck.cli\n"
        "from hamcheck.parser import parse_program\n"
        "from hamcheck.runner import RunContext\n"
        f"with open({str(DEMOS / 'kdv.ham')!r}, encoding='utf-8') as fh:\n"
        "    RunContext(parse_program(fh.read()))\n"
        "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_exponent_overflow_in_a_prolongation_fails_its_task(tmp_path):
    # reducing u_tt climbs D_t(u^32767) = 32767*u^32766*u_t with the image
    # u^32767 of u_t, which takes u past the exponent limit
    src = tmp_path / "big.ham"
    src.write_text(
        "independents x, t;\ndependents u;\n"
        "equation e { solve u_t = u^32767; ranking t > x; }\n"
        "task reduce(e, u_tt);\ntask reduce(e, u_t);\n"
    )
    out = tmp_path / "report.json"
    proc = _cli(["run", str(src), "--report", str(out)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    tasks = json.loads(out.read_text())["tasks"]
    assert [t["status"] for t in tasks] == ["fail", "ok"]
    assert tasks[0]["detail"] == {
        "error": "exponent limit exceeded: every exponent must stay below 32768 (2^15)"
    }


def test_cli_renders_coefficients_past_the_digit_limit(tmp_path, capsys):
    # (10^3000 - 1)^2 = 10^6000 - 2*10^3000 + 1 has 6,000 digits, past the
    # interpreter's 4,300-digit limit on int-to-text conversion
    nines = "9" * 3000
    square = "9" * 2999 + "8" + "0" * 2999 + "1"
    src = tmp_path / "coefficients.ham"
    src.write_text(
        "independents x, t;\ndependents u;\n"
        "equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }\n"
        f"vector v = [({nines})^2*u + (1/{nines})^2*u_x - ({nines})^2];\n"
        "task reduce(kdv, v);\n"
    )
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "report.json"
    assert cli.main(["run", str(src), "--report", str(out), "--text"]) == 0
    assert sys.get_int_max_str_digits() == limit
    normal_form = f"[1/{square}*u_x + {square}*u - {square}]"
    [task] = json.loads(out.read_text())["tasks"]
    assert task["detail"] == {"normal_form": normal_form}
    assert f"normal_form: {normal_form}\n" in capsys.readouterr().out


def test_cli_unsolvable_constraint_row_fails_its_tasks(tmp_path):
    # on u_t = u*v_t, v_x = u the argument constraints have a maximal jet
    # with a non-constant coefficient, so no joint constraint system exists
    src = tmp_path / "constraint.ham"
    src.write_text(
        "independents x, t;\ndependents u, v;\n"
        "equation e { solve u_t = u*v_t; solve v_x = u; ranking t > x; }\n"
        "operator Z = [[0, 0], [0, 0]];\n"
        "task bivector(e, Z);\ntask schouten(e, Z, Z);\ntask hamiltonian(e, Z);\n"
    )
    proc = _cli(["run", str(src), "--text"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    error = ("error: constraint 1 on the first argument (p1, p2) cannot be solved "
             "for its maximal argument jet")
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["[000]", "bivector", "ok"]
    for kind in ("schouten", "hamiltonian"):
        at = next(i for i, line in enumerate(lines) if kind in line.split())
        assert lines[at].split()[1:] == [kind, "fail"]
        assert lines[at + 1].strip() == error


def test_kdv_pencil_members_are_hamiltonian_and_compatible():
    # A1 + λ*A2 at two rational λ: each is Hamiltonian, and their
    # Schouten bracket vanishes, exactly
    program = parse_program(
        "independents x, t;\ndependents u;\n"
        "equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }\n"
        "operator A1 = Dx;\noperator A2 = Dx^3 + 4*u*Dx + 2*u_x;\n"
        "operator P = A1 + 3/7*A2;\noperator Q = A1 - 5/2*A2;\n"
        "task hamiltonian(kdv, P);\ntask hamiltonian(kdv, Q);\ntask schouten(kdv, P, Q);\n"
    )
    results = run_program(program)
    assert [(r.status, r.detail) for r in results] == [
        ("ok", {"bivector": True, "zero": True, "exact": True}),
        ("ok", {"bivector": True, "zero": True, "exact": True}),
        ("ok", {"zero": True, "exact": True}),
    ]


# A metamorphic case: reordering the dependents and the equations of the
# three-component KdV system, with each operator conjugated to P*A*P^T,
# leaves every verdict and exact flag as it was.
_KDV3_DEPS = ("u", "v", "w")
_KDV3_EQS = ("u_x = v", "v_x = w", "w_x = u_t - 6*u*v")
_KDV3_OPS = {
    "B1": [["0", "-1", "0"], ["1", "0", "-6*u"], ["0", "6*u", "Dt"]],
    "B2": [
        ["0", "-2*u", "-Dt - 2*v"],
        ["2*u", "Dt", "-12*u^2 - 2*w"],
        ["-Dt + 2*v", "12*u^2 + 2*w", "8*u*Dt + 4*u_t"],
    ],
    # skew, but not a bivector of kdv3
    "C": [["0", "-u", "0"], ["u", "0", "0"], ["0", "0", "Dt"]],
}
_KDV3_TASKS = (
    "bivector(kdv3, B1)", "bivector(kdv3, B2)", "bivector(kdv3, C)",
    "schouten(kdv3, B1, B2)", "schouten(kdv3, B2, B2)",
    "hamiltonian(kdv3, B2)", "hamiltonian(kdv3, C)",
)


def _kdv3_source(perm):
    """The program with dependent perm[j] in slot j."""
    lines = ["independents x, t;", f"dependents {', '.join(_KDV3_DEPS[a] for a in perm)};"]
    lines += ["equation kdv3 {", *(f"solve {_KDV3_EQS[a]};" for a in perm), "ranking x > t;", "}"]
    for name, rows in _KDV3_OPS.items():
        conj = ", ".join("[" + ", ".join(rows[a][b] for b in perm) + "]" for a in perm)
        lines.append(f"operator {name} = [{conj}];")
    lines += [f"task {t};" for t in _KDV3_TASKS]
    return "\n".join(lines) + "\n"


def test_permuted_dependents_keep_every_verdict():
    def verdicts(perm):
        _, results = run_source(_kdv3_source(perm))
        return [
            (r.kind, r.status, *(r.detail.get(k) for k in ("bivector", "zero", "exact")))
            for r in results
        ]

    base = verdicts((0, 1, 2))
    assert [v[1] for v in base] == ["ok", "ok", "fail", "ok", "ok", "ok", "fail"]
    assert all(v[4] is True for v in base if v[0] == "schouten")
    assert verdicts((2, 0, 1)) == base


def test_readme_declaration_example_runs():
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Declaration language\n", 1)[1]
    example = section.split("```\n", 2)[1]
    assert [r.status for r in run_program(parse_program(example))] == ["ok"] * 4


def test_cli_demo_files(tmp_path):
    out = tmp_path / "report.json"
    proc = _cli(["run", str(DEMOS / "kdv.ham"), "--report", str(out)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    proc2 = _cli(["run", str(DEMOS / "kdv.ham"), "--report", str(out) + "2"])
    assert (tmp_path / "report.json").read_bytes() == Path(str(out) + "2").read_bytes()


# sha256 of each demo's JSON report and of its --text output; a kernel
# change that keeps every verdict and rendering must keep these bytes.
DEMO_DIGESTS = {
    "camassa_holm": (
        "d3f26f00b8532ca92d7f3098354c7d0c903d6072cb05d207dcbe3ebdbac5e4a6",
        "780ee01e72057e7e5a07012755f6072db6444a594a949dda829b4e5ca89da201",
    ),
    "kdv": (
        "4e9a396476eee238267c623c455873efa5d80594170f257743960d335fb4a800",
        "bfa9a33c2a5dfb280d5ff87797df3dcdde18cb3a5e767f184e586b2bb9889e6b",
    ),
    "kdv6": (
        "00a6a1e38a86f8562616454f7bcbb0c746dae5e3e38b41e774f1cd05821eceb4",
        "7eb71d9a79ebb34e2ea4e194f59e6927d855b584dfab3356c12b1bbce710ffbb",
    ),
    "kdv_three_component": (
        "ce47a81f88e4f5a4ab1152cb4c1ec664b708d5a99a88f153fbde12e13206a4ba",
        "27087d88fde11a44902aa43e79f5873fee6f66cc25776b50bac20dbf45fc1a9e",
    ),
}


def _check_report_digests(path, json_digest, text_digest, tmp_path, capsys):
    out = tmp_path / f"{path.stem}.json"
    cli.main(["run", str(path), "--report", str(out)])
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_digest, path.name
    cli.main(["run", str(path), "--text"])
    text = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == text_digest, path.name


def test_demo_reports_match_pinned_digests(tmp_path, capsys):
    assert sorted(DEMO_DIGESTS) == sorted(p.stem for p in DEMOS.glob("*.ham"))
    for name, (json_digest, text_digest) in DEMO_DIGESTS.items():
        _check_report_digests(DEMOS / f"{name}.ham", json_digest, text_digest, tmp_path, capsys)


# The id table and the raise map outlive runs, so a file's ids depend on
# what the process ran before it; its report must not.
_ORDER_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from hamcheck import cli
demos, out = Path(sys.argv[1]), Path(sys.argv[2])
seen = []
for name in sys.argv[3:]:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", str(demos / f"{name}.ham"), "--report", str(out)])
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(["run", str(demos / f"{name}.ham"), "--text"])
    seen.append([
        name,
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest(),
    ])
print(json.dumps(seen))
"""


def test_demo_reports_do_not_depend_on_the_order_ids_were_given(tmp_path):
    # one fresh process runs the files in one order, then in another
    order = ["camassa_holm", "kdv6", "kdv", "kdv", "camassa_holm", "kdv6"]
    proc = subprocess.run(
        [sys.executable, "-c", _ORDER_CHILD, str(DEMOS), str(tmp_path / "r.json"), *order],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [name for name, _, _ in seen] == order
    for name, json_digest, text_digest in seen:
        assert (json_digest, text_digest) == DEMO_DIGESTS[name], name


# The same for the benchmark's workload inputs; the JSON digests are the
# benchmark's own, in bench/digests.json.
BENCH = DEMOS.parent / "bench"
WORKLOAD_DIGESTS = {
    "constrained_reduce": (
        "22875c536261ade24b6b40e0f818fb77fedccec3c88dc28ef25a4912c25659cc",
        "f5a34458ea9c2fd1f0b21b81a10d974e1124dbce89385abff9780458f5e7aeac",
    ),
    "deep_reduce": (
        "73850b8b51b4d9a63d9598be394d4ced497faae44f3fe53f18075a262178f936",
        "376b58e2bd47f8ceeb7193dd7082bbad376fac060f13f9d7352905e995904828",
    ),
    "kdv3_transport": (
        "72be5828c0f7e576658eebfe0c00e15e785216d088261f75f6d39441fdc923e0",
        "8313eec96bc072792c4d0dbebdb4baf056f83f25aa38dca8fb9783863474d828",
    ),
    "kdv5_suite": (
        "e50b3c11a12f24ef82307221836e5e905909e68ab62a7d644e902be78e22e4f5",
        "766cc9e4f075b8564e3ac4d42a59e5157385b86d58567b9d2ae6116bbe111892",
    ),
    "kdv7_suite": (
        "9fca1a499c38342dd1dcbc4e498d4427a713a91c953e44f79be8052fab3d09c7",
        "45013f14a0f7c33efae6e7ba81dce8d4c4cd8b4a529a70d45fc73596b6e1a708",
    ),
}


def test_workload_reports_match_pinned_digests(tmp_path, capsys):
    pinned = json.loads((BENCH / "digests.json").read_text())
    for name, (json_digest, text_digest) in WORKLOAD_DIGESTS.items():
        assert pinned[f"bench/inputs/{name}.ham"] == f"sha256:{json_digest}", name
        path = BENCH / "inputs" / f"{name}.ham"
        _check_report_digests(path, json_digest, text_digest, tmp_path, capsys)


# The recursion probe climbs 1,199 restricted derivatives in one table;
# bench/digests.json pins no digest for it, so it has its own.
PROBE_DIGESTS = (
    "d1cfca2493598385cac60455a7e0832241ce845348379d3b146d38211046d60e",
    "6fc32575f10ca88d36e9cb3342aef3c3c81adc2a7d7473433d03d581c8cc8624",
)


def test_recursion_probe_report_matches_pinned_digests(tmp_path, capsys):
    path = BENCH / "inputs" / "recursion_probe.ham"
    _check_report_digests(path, *PROBE_DIGESTS, tmp_path, capsys)


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.ham"
    bad.write_text("independents x, t;\ndependents u;\noperator Bad = Dx +;\n")
    proc = _cli(["run", str(bad)])
    assert proc.returncode == 2
    assert "3:20" in proc.stderr
    assert "expected" in proc.stderr
    deep = "(" * 2000 + "Dx" + ")" * 2000
    bad.write_text(f"independents x, t;\ndependents u;\noperator A = {deep};\n")
    proc = _cli(["run", str(bad)])
    assert proc.returncode == 2
    assert "3:114" in proc.stderr
    assert "Traceback" not in proc.stderr
    bad.write_text("independents x, t;\ndependents u;\nvector v = [u^40000];\n")
    proc = _cli(["run", str(bad)])
    assert proc.returncode == 2
    assert "3:14" in proc.stderr and "32768" in proc.stderr
    assert "Traceback" not in proc.stderr
    # literals that int() rejects: a superscript digit, and more digits
    # than the interpreter converts
    for line3, pos in (("operator A = Dx^\u00b2;", "3:17"), ("vector v = [\u00b2*u];", "3:13"),
                       ("vector v = [" + "7" * 5000 + "*u];", "3:13")):
        bad.write_text(f"independents x, t;\ndependents u;\n{line3}\n", encoding="utf-8")
        proc = _cli(["run", str(bad)])
        assert proc.returncode == 2
        assert pos in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_task_failure_exit_1(tmp_path):
    f = tmp_path / "fail.ham"
    f.write_text(
        "independents x, t;\ndependents u;\n"
        "equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }\n"
        "task genfn(kdv, u_x);\n"
    )
    proc = _cli(["run", str(f)])
    assert proc.returncode == 1


def test_cli_text_report(tmp_path):
    proc = _cli(["run", str(DEMOS / "kdv.ham"), "--text"])
    assert proc.returncode == 0
    assert "summary:" in proc.stdout
    assert "normal_form" in proc.stdout


def test_cli_run_options_shape_only_the_report(capsys):
    # the file is the run's only input: no option reaches the kernel
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--help"])
    assert exit_.value.code == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert options == {"--report", "--text", "--timings"}
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", str(DEMOS / "kdv.ham"), "--passivity-depth", "2"])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: --passivity-depth 2\n"
    )


def test_cli_main_repeats_alike_in_one_process(tmp_path, capsys):
    # one argument parser serves every call: a good run, a bad option and
    # the good run again give the same exit codes, output and report bytes
    out = tmp_path / "r.json"
    good = ["run", str(DEMOS / "kdv.ham"), "--report", str(out)]
    assert cli.main(good) == 0
    first, first_out = out.read_bytes(), capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", str(DEMOS / "kdv.ham"), "--bogus"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hamcheck ")
    assert err.endswith("error: unrecognized arguments: --bogus\n")
    out.unlink()
    assert cli.main(good) == 0
    assert out.read_bytes() == first
    assert capsys.readouterr().out == first_out


def test_cli_timings_flag_adds_seconds(tmp_path):
    out = tmp_path / "r.json"
    proc = _cli(["run", str(DEMOS / "kdv.ham"), "--report", str(out), "--timings"])
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert all("seconds" in t for t in report["tasks"])


def test_cli_timings_reach_the_text_report():
    timed = _cli(["run", str(DEMOS / "kdv.ham"), "--text", "--timings"])
    assert timed.returncode == 0
    task_lines = [line for line in timed.stdout.splitlines() if line.startswith("[")]
    assert task_lines
    assert all(re.fullmatch(r"\[\d{3}\] \S+ +ok  \d+\.\d{3} s", line)
               for line in task_lines)
    # without the seconds it is the text report without --timings
    plain = _cli(["run", str(DEMOS / "kdv.ham"), "--text"]).stdout
    assert re.sub(r"  \d+\.\d{3} s$", "", timed.stdout, flags=re.M) == plain


def test_cli_lift_texts(tmp_path):
    # a Magri failure, a non-generating function and a good pair, each
    # lifted to the deformed KdV system
    src = tmp_path / "lift.ham"
    src.write_text(
        (DEMOS / "kdv.ham").read_text()
        + "task deform(kdv, A1, A2) as k6;\n"
        "task lift(k6, [u], [u]);\n"
        "task lift(k6, [u_x], [1/2]);\n"
        "task lift(k6, [3*u^2 + u_xx], [u]);\n"
    )
    out = tmp_path / "report.json"
    proc = _cli(["run", str(src), "--report", str(out)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    lifts = [t for t in json.loads(out.read_text())["tasks"] if t["kind"] == "lift"]
    assert [t["status"] for t in lifts] == ["fail", "fail", "ok"]
    assert lifts[0]["detail"] == {
        "error": "adjacent entries do not satisfy the Magri relation"
    }
    assert lifts[1]["detail"] == {
        "error": "vector is not a generating function on this system"
    }
    assert lifts[2]["detail"] == {
        "entries": ["[3*u^2 + u_xx, -u]"],
        "genfn_certified": [True],
        "magri_certified": [],
        "conserved": [True],
    }
    text = _cli(["run", str(src), "--text"]).stdout
    assert "      error: adjacent entries do not satisfy the Magri relation\n" in text
    assert "      error: vector is not a generating function on this system\n" in text


def test_cli_lift_on_a_non_evolution_base_keeps_its_verdicts(tmp_path):
    # the Camassa-Holm equation is not in evolution form, so the lift
    # cannot check conservation, but it still reports the lifted entries
    # and their generating-function and Magri verdicts
    src = tmp_path / "ch_lift.ham"
    src.write_text(
        (DEMOS / "camassa_holm.ham").read_text()
        + "task deform(ch, A1, A2) as c6;\n"
        "task lift(c6, [0], [0]);\n"
    )
    out = tmp_path / "report.json"
    proc = _cli(["run", str(src), "--report", str(out)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    lift = json.loads(out.read_text())["tasks"][-1]
    assert (lift["kind"], lift["status"]) == ("lift", "fail")
    assert lift["detail"] == {
        "entries": ["[0, 0]"],
        "genfn_certified": [True],
        "magri_certified": [],
        "error": "conservation check needs an evolution base system",
    }


def test_cli_names_a_joint_system_that_is_not_passive(tmp_path):
    # deforming KdV by (A1, A1) gives a non-evolution system whose joint
    # system with the argument constraints has a nonzero integrability
    # condition; the file declares neither the constraints nor the slots
    # p1, p2, so the text says they are the first bracket argument's
    src = tmp_path / "joint.ham"
    src.write_text(
        "independents x, t;\ndependents u;\n"
        "equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }\n"
        "operator A1 = Dx;\n"
        "task deform(kdv, A1, A1) as e;\n"
        "task schouten(e, e_A1, e_A2);\n"
    )
    out = tmp_path / "report.json"
    proc = _cli(["run", str(src), "--report", str(out)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    tasks = json.loads(out.read_text())["tasks"]
    assert [t["status"] for t in tasks] == ["ok", "fail"]
    assert tasks[1]["detail"] == {"error": (
        "the joint system of the equation and the argument constraints is not "
        "passive, so the bracket is not decided (constraints 0 and 1 on the "
        "first argument (p1, p2): the integrability condition at p1_xt "
        "reduces to -6*u_x*p2_x - 6*u*p2_xx "
        "- p2_xxxx + p2_xt, not 0)"
    )}


def test_two_brackets_on_one_non_passive_joint_system_fail_alike():
    # two equal brackets on the deformed system ask for the same joint
    # system, which is not passive: both tasks fail alike, naming it
    _, results = run_source(
        "independents x, t;\ndependents u;\n"
        "equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }\n"
        "operator A1 = Dx;\n"
        "task deform(kdv, A1, A1) as e;\n"
        + "task schouten(e, e_A1, e_A2);\n" * 2
    )
    assert [r.status for r in results] == ["ok", "fail", "fail"]
    assert results[1].detail == results[2].detail
    assert "constraints 0 and 1 on the first argument" in results[1].detail["error"]


@pytest.mark.parametrize("source, message", [
    (
        "independents x, t;\ndependents u;\n"
        "equation e { solve u_t = u_xx; ranking t; }\ntask reduce(e, u_t);\n",
        "ranking must mention every independent exactly once",
    ),
    (
        "independents x, t;\ndependents u;\n"
        "equation e { solve u_t = u_xx; ranking t > y; }\ntask reduce(e, u_t);\n",
        "unknown independent variable 'y'",
    ),
], ids=["ranking-too-short", "ranking-unknown-name"])
def test_cli_declaration_value_error_exit_2(tmp_path, source, message):
    # a ranking is checked against the frame while parsing, so a bad one
    # is a parse error at its clause
    src = tmp_path / "decl.ham"
    src.write_text(source)
    proc = _cli(["run", str(src)])
    assert proc.returncode == 2
    assert proc.stderr == f"{src}:3:32: {message}\n"
    assert "Traceback" not in proc.stdout + proc.stderr


def test_cli_bad_equivalence_fails_only_its_tasks(tmp_path):
    # the kernel rejects the connecting operators: the tasks on the
    # equivalence fail with its error, and every other task keeps its status
    demo = DEMOS / "kdv_three_component.ham"
    src = tmp_path / "decl.ham"
    src.write_text(demo.read_text().replace(
        "alpha  = [[1], [Dx], [Dx^2]];", "alpha = [[1], [Dx]];"
    ))
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    assert _cli(["run", str(demo), "--report", str(good)]).returncode == 1
    proc = _cli(["run", str(src), "--report", str(bad)])
    assert proc.returncode == 1
    assert proc.stderr == ""
    before = json.loads(good.read_text())["tasks"]
    after = json.loads(bad.read_text())["tasks"]
    assert [t["kind"] for t in after] == [t["kind"] for t in before]
    for was, got in zip(before, after):
        if got["kind"] in ("equivalence", "transport"):
            assert (got["status"], got["detail"]) == (
                "fail", {"error": "alpha must be 3x1, got 2x1"}
            )
        else:
            assert got == was


def test_cli_equivalence_over_a_rejected_system_carries_its_error(tmp_path):
    # the kernel rejects the system (its lead is not ranking-maximal); the
    # tasks on it and on the equivalence over it fail with that error
    src = tmp_path / "decl.ham"
    src.write_text(
        "independents x, t;\ndependents u;\n"
        "equation good { solve u_t = u_xxx; ranking t > x; }\n"
        "equation bad { solve u_t = u_xxx; ranking x > t; }\n"
        "equivalence e { systems good, bad; alpha = 1; alpha' = 1; beta = 1;\n"
        "  beta' = 1; s1 = 0; s2 = 0; }\n"
        "task reduce(good, u_t);\ntask reduce(bad, u_t);\ntask equivalence(e);\n"
    )
    out = tmp_path / "report.json"
    assert _cli(["run", str(src), "--report", str(out)]).returncode == 1
    tasks = json.loads(out.read_text())["tasks"]
    assert [t["status"] for t in tasks] == ["ok", "fail", "fail"]
    error = "equation 0: lead is not ranking-maximal in its solved form"
    assert tasks[1]["detail"] == tasks[2]["detail"] == {"error": error}


def test_cli_input_that_is_not_utf8_exits_2(tmp_path):
    src = tmp_path / "latin1.ham"
    src.write_bytes("# caf\u00e9\n".encode("latin-1"))
    proc = _cli(["run", str(src)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"hamcheck: {src}: 'utf-8' codec can't decode")
    assert proc.stderr.count("\n") == 1


def test_cli_report_in_a_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "report.json"
    proc = _cli(["run", str(DEMOS / "kdv.ham"), "--report", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == (
        f"hamcheck: [Errno 2] No such file or directory: {str(out)!r}\n"
    )


@pytest.mark.parametrize("depth", ["-1", "x"])
def test_cli_negative_passivity_depth_is_rejected(tmp_path, depth):
    # passivity is decided exactly, so there is no depth clause: any depth,
    # valid or not, is a parse error at the clause word
    src = tmp_path / "depth.ham"
    src.write_text(
        "independents x, t;\ndependents u;\n"
        f"equation e {{ solve u_t = u_xx; ranking t > x; passivity {depth}; }}\n"
        "task reduce(e, u_t);\n"
    )
    proc = _cli(["run", str(src)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"{src}:3:47: unknown equation clause 'passivity' "
                           "(expected: dependents, ranking, solve)\n")


def test_cli_passivity_failure_is_named(tmp_path):
    # an incompatible pair fails only the task that names it, and says
    # which equations disagree, where, and by what
    src = tmp_path / "passivity.ham"
    src.write_text(
        "independents x, t;\ndependents u;\n"
        "equation bad { solve u_t = u; solve u_x = 1; ranking t > x; }\n"
        "equation good { solve u_t = u; solve u_x = u; ranking t > x; }\n"
        "task reduce(bad, u_t);\ntask reduce(good, u_xt);\n"
    )
    out = tmp_path / "report.json"
    proc = _cli(["run", str(src), "--report", str(out)])
    assert proc.returncode == 1
    bad, good = json.loads(out.read_text())["tasks"]
    assert bad["status"] == "fail"
    assert bad["detail"] == {"error": "equations 0 and 1: the integrability "
                             "condition at u_xt reduces to 1, not 0"}
    assert good["status"] == "ok" and good["detail"] == {"normal_form": "[u]"}


def test_cli_parses_inside_the_run_its_tasks_see(monkeypatch):
    # operator algebra at parse time shares the run's derivative table,
    # and the run is released when the CLI returns
    seen = []
    compose = CDiffOp.compose

    def compose_spy(self, other):
        seen.append(poly._RUN.get())
        return compose(self, other)

    monkeypatch.setattr(CDiffOp, "compose", compose_spy)
    runs = _spy_on_runs(monkeypatch)
    assert cli.main(["run", str(DEMOS / "kdv.ham")]) == 0
    assert seen and runs[0] is not None
    assert all(run is runs[0] for run in seen + runs)
    ref = weakref.ref(runs[0])
    seen.clear()
    runs.clear()
    assert poly._RUN.get() is None and ref() is None


def test_cli_lift_checks_each_base_identity_once(tmp_path, monkeypatch):
    # each base entry is checked once as a generating function, each base
    # Magri relation once, and the evolution direction is found once
    src = tmp_path / "lift.ham"
    src.write_text(
        "independents x, t;\ndependents u;\n"
        "equation kdv { solve u_t = u_xxx + 6*u*u_x; ranking t > x; }\n"
        "operator A1 = Dx;\noperator A2 = Dx^3 + 4*u*Dx + 2*u_x;\n"
        "task deform(kdv, A1, A2) as k6;\n"
        "task lift(k6, [3*u^2 + u_xx], [u], [1/2]);\n"
    )
    seen = {"kind": None, "reduce": [], "magri": [], "evolution": []}
    run_task = runner.run_task
    reduce_vector = EquationSystem.reduce_vector
    is_evolution = EquationSystem.is_evolution
    # the package's ``deform`` attribute is the function of that name
    lift_module = sys.modules["hamcheck.deform"]
    magri_defects = lift_module.magri_defects

    def task_spy(ctx, task):
        seen["kind"] = task.kind
        return run_task(ctx, task)

    def reduce_spy(self, v):
        if seen["kind"] == "lift":
            seen["reduce"].append(self)
        return reduce_vector(self, v)

    def evolution_spy(self):
        if seen["kind"] == "lift":
            seen["evolution"].append(self)
        return is_evolution(self)

    def magri_spy(system, b1, b2, vecs):
        seen["magri"].append((system, len(vecs)))
        return magri_defects(system, b1, b2, vecs)

    monkeypatch.setattr(runner, "run_task", task_spy)
    monkeypatch.setattr(EquationSystem, "reduce_vector", reduce_spy)
    monkeypatch.setattr(EquationSystem, "is_evolution", evolution_spy)
    monkeypatch.setattr(lift_module, "magri_defects", magri_spy)
    assert cli.main(["run", str(src)]) == 0
    [base, lifted] = [system for system, _ in seen["magri"]]
    assert base is not lifted
    assert [n for _, n in seen["magri"]] == [3, 2]
    assert seen["evolution"] == [base]
    # three generating-function residuals and two Magri defects on the base
    assert sum(system is base for system in seen["reduce"]) == 5


def test_every_tracer_target_exists():
    # the tracer skips a target it cannot find, which would read as a
    # per-layer metric of 0; these two are known stale (ROADMAP item 1)
    path = DEMOS.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("hamcheck_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, module, attr_path in tracing.TARGETS:
        target = importlib.import_module(f"hamcheck.{module}")
        for part in attr_path.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr_path}")
    assert missing == ["poly.DiffPoly.subst_jet", "deform.check_conserved"]
