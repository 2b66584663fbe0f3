"""Benchmark of the hamcheck exact kernel on three fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke            # one checked pass per workload
    python3 bench/run.py --record-digests   # rewrite bench/digests.json

One pass runs every input file of the workload through
``hamcheck.cli.main(["run", FILE, "--report", PATH])`` in this process,
so it takes the whole command-line path except interpreter start-up.
An operation is one task in one pass; it fails if it raises out of the
runner or if its verdict or output disagrees with a check.

With ``--trace 0`` the run reports the end-to-end metrics ``run_s``,
``setup_s`` and ``peak_rss_mib``; with ``--trace 1`` it reports the
per-layer metrics of ``tracing.py``.  The seed picks the rational points
at which the checks evaluate normal forms; the inputs are fixed.

Both times are calibrated.  On a shared host the speed of the processor
drifts with other tenants' load by tens of percent within a minute, and
a pass's wall time drifts with it.  So a fixed pure-Python job runs
between the measured pieces of work, each piece's wall time is divided
by the mean of the calibrations just before and after it, and the
median ratio is reported in seconds at the speed where that job takes
``CALIBRATION_REF_S``.  README.md has the figures that led to this.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_CHILD = Path(__file__).resolve().parent / "setup_child.py"

SETUP_REPEATS = 11
MIN_TIMED_PASSES = 3
# Time of calibrate() on the reference host (2 vCPU VM, CPython 3.11.7)
# when it is quiet; calibrated times are seconds at that speed.
CALIBRATION_REF_S = 0.1
# Calibrate after each pass for this share of its time.
CALIBRATION_SHARE = 0.2


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken child)."""


def import_hamcheck():
    src = ROOT / "src"
    if not (src / "hamcheck" / "__init__.py").is_file():
        raise BenchError(f"no hamcheck sources under {src}")
    sys.path.insert(0, str(src))
    import hamcheck
    from hamcheck import cli

    if Path(hamcheck.__file__).resolve().parent != (src / "hamcheck").resolve():
        raise BenchError(f"imported hamcheck from {hamcheck.__file__}, not from {src}")
    return cli


def _calibration_poly():
    """A fixed sparse polynomial: tuple-of-(variable, exponent) monomials
    with large exact rational coefficients, as in the kernel."""
    rng = random.Random(7)
    poly = {}
    while len(poly) < 120:
        mono = {}
        for _ in range(rng.randint(1, 3)):
            v = (rng.randrange(3), rng.randrange(2))
            mono[v] = mono.get(v, 0) + rng.randint(1, 2)
        coeff = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.choice((1, 1, 2, 3)))
        poly[tuple(sorted(mono.items()))] = coeff
    return poly


CALIBRATION_POLY = _calibration_poly()


def calibrate() -> float:
    """Wall time of a fixed pure-Python job shaped like the kernel's inner
    loop: the square of a sparse polynomial, summed into a dict with the
    ``res.get(m, 0) + c`` idiom."""
    t0 = time.perf_counter()
    res = {}
    for m1, c1 in CALIBRATION_POLY.items():
        for m2, c2 in CALIBRATION_POLY.items():
            acc = dict(m1)
            for v, e in m2:
                acc[v] = acc.get(v, 0) + e
            m = tuple(sorted(acc.items()))
            s = res.get(m, 0) + c1 * c2
            if s:
                res[m] = s
            elif m in res:
                del res[m]
    return time.perf_counter() - t0


def calibrate_for(seconds: float) -> float:
    """Median time of calibrate() over at least ``seconds`` (one run at least)."""
    times = [calibrate()]
    while sum(times) < seconds:
        times.append(calibrate())
    return statistics.median(times)


class Calibrated:
    """Times measured between calibrations.  Each time is divided by the
    mean of the calibrations just before and just after it, so that the
    drift of the host's speed cancels; reported in reference seconds."""

    def __init__(self):
        self.before = calibrate_for(0)
        self.ratios = []

    def add(self, seconds: float, share: float = CALIBRATION_SHARE) -> None:
        after = calibrate_for(share * seconds)
        self.ratios.append(seconds / ((self.before + after) / 2))
        self.before = after

    def median_s(self) -> float:
        return statistics.median(self.ratios) * CALIBRATION_REF_S


def measure_setup(inputs) -> float:
    """Calibrated median time, in fresh interpreters, to import hamcheck,
    parse every input and build its RunContext.  The first child also
    writes the bytecode caches and is not counted."""
    cmd = [sys.executable, str(SETUP_CHILD), *(str(ROOT / i.path) for i in inputs)]
    times = Calibrated()
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up child failed: {done.stderr.strip()[-400:]}")
        seconds = float(done.stdout.split()[-1])
        if k:
            times.add(seconds, share=0)
    return times.median_s()


def run_pass(cli, inputs, out_dir: Path):
    """Run every input once; return the wall time and, per input, the
    report bytes or the name of the exception that escaped."""
    reports = [out_dir / f"{Path(i.path).stem}.json" for i in inputs]
    for path in reports:
        path.unlink(missing_ok=True)
    gc.collect()
    raised = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        for inp, path in zip(inputs, reports):
            try:
                cli.main(["run", str(ROOT / inp.path), "--report", str(path)])
                raised.append(None)
            except Exception as exc:  # a failed operation, not a failed benchmark
                raised.append(type(exc).__name__)
        wall = time.perf_counter() - t0
    outcomes = [
        name if name is not None else (path.read_bytes() if path.exists() else "no report")
        for name, path in zip(raised, reports)
    ]
    return wall, outcomes


class Judge:
    """Counts operations and failures and collects check problems."""

    def __init__(self, inputs, digests: dict, point, use_digests: bool = True):
        self.inputs = inputs
        self.digests = digests
        self.point = point
        self.use_digests = use_digests
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None
        self.reproduced = [0] * len(inputs)

    def _problem(self, inp, msg):
        line = f"{inp.path}: {msg}"
        if line not in self.problems:
            self.problems.append(line)

    def cheap(self, outcomes) -> None:
        """Per-pass judgement: exceptions and report digests.  A report that
        reproduces the first pass's bytes shares its full checks."""
        if self.first is None:
            self.first = outcomes
        for k, (inp, first, got) in enumerate(zip(self.inputs, self.first, outcomes)):
            n = len(inp.tasks)
            self.attempted += n
            if isinstance(got, str):
                self.failed += n
                if got != inp.known_fault:
                    self._problem(inp, f"raised {got}")
                continue
            want = self.digests.get(inp.path)
            if want is None and isinstance(first, bytes):
                want = checks.digest(first)
            if self.use_digests and checks.digest(got) != want:
                self.failed += n
                self._problem(inp, f"report digest {checks.digest(got)} != recorded {want}")
                continue
            self.reproduced[k] += 1

    def full(self, outcomes) -> None:
        """Complete checks of the first pass's reports, once per run; a task
        they find wrong fails in every pass that reproduced the report."""
        for inp, got, passes in zip(self.inputs, outcomes, self.reproduced):
            if isinstance(got, str):
                continue
            source = (ROOT / inp.path).read_text(encoding="utf-8")
            declared = checks.declared_tasks(source)
            if declared != [e.task for e in inp.tasks]:
                self._problem(inp, f"tasks {declared} differ from workloads.py")
                self.failed += passes * len(inp.tasks)
                continue
            entries = json.loads(got)["tasks"]
            if len(entries) != len(inp.tasks):
                self._problem(inp, f"{len(entries)} tasks in the report")
                self.failed += passes * len(inp.tasks)
                continue
            for expect, entry in zip(inp.tasks, entries):
                wrong = checks.task_problems(expect, entry, self.point)
                for msg in wrong:
                    self._problem(inp, f"{expect.task}: {msg}")
                self.failed += passes if wrong else 0
            if inp.hierarchy:
                for msg in checks.hierarchy_problems(source):
                    self._problem(inp, msg)
        if any(e.normal_form and e.normal_form.kdv_t_order for i in self.inputs for e in i.tasks):
            residual = checks.kdv_solution_residual()
            if residual != 0:
                self.problems.append(f"exact solution leaves the KdV residual {residual}")


def passes_until(cli, inputs, out_dir, judge, deadline, at_least, on_pass=None) -> float:
    """Timed passes with calibrations between them, until the next pass
    would end after ``deadline``; returns the calibrated median pass time."""
    walls = []
    times = Calibrated()
    while len(walls) < at_least or (
        time.perf_counter() + (1 + CALIBRATION_SHARE) * statistics.median(walls) <= deadline
    ):
        wall, outcomes = run_pass(cli, inputs, out_dir)
        if on_pass is not None:
            on_pass()
        times.add(wall)
        judge.cheap(outcomes)
        walls.append(wall)
    return times.median_s()


def bench(args) -> dict:
    cli = import_hamcheck()
    inputs = WORKLOADS[args.workload]
    for inp in inputs:
        if not (ROOT / inp.path).is_file():
            raise BenchError(f"missing input {inp.path}")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    out_dir = WORK / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    judge = Judge(inputs, digests, checks.rational_point(args.seed))
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": measure_setup(inputs), "unit": "s"}

    start = time.perf_counter()
    deadline = start + args.seconds
    if not args.trace:
        run_s = passes_until(cli, inputs, out_dir, judge, deadline, MIN_TIMED_PASSES)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["run_s"] = {"value": run_s, "unit": "s"}
        metrics["peak_rss_mib"] = {"value": peak_kib / 1024, "unit": "MiB"}
    else:
        half = start + args.seconds / 2
        untraced = passes_until(cli, inputs, out_dir, judge, half, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = passes_until(cli, inputs, out_dir, judge, deadline, 1, on_pass=tracer.end_pass)
        finally:
            tracer.uninstall()
        tracer.write(WORK / f"{args.workload}.spans")
        layer = tracer.metrics(traced - untraced)
        for name in tracing.metric_names():
            metrics[name] = {"value": layer[name], "unit": tracing.metric_unit(name)}

    judge.full(judge.first)
    for line in judge.problems:
        print(f"check: {line}", file=sys.stderr)
    return {
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": metrics,
    }


def smoke(record: bool) -> int:
    """One checked pass of every workload; with ``record``, write the
    digests of the reports instead of comparing with them."""
    cli = import_hamcheck()
    digests = {} if record else json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded = {}
    bad = False
    for name, inputs in WORKLOADS.items():
        out_dir = WORK / name
        out_dir.mkdir(parents=True, exist_ok=True)
        judge = Judge(inputs, digests, checks.rational_point(0), use_digests=not record)
        _, outcomes = run_pass(cli, inputs, out_dir)
        judge.cheap(outcomes)
        judge.full(outcomes)
        for inp, got in zip(inputs, outcomes):
            if isinstance(got, bytes):
                recorded[inp.path] = checks.digest(got)
        for line in judge.problems:
            print(f"check: {line}", file=sys.stderr)
        bad |= bool(judge.problems)
        print(f"{name}: attempted {judge.attempted}, failed {judge.failed}, "
              f"correct {not judge.problems}")
    if record and not bad:
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(recorded)} digests in {DIGESTS.relative_to(ROOT)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one checked pass per workload")
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from one checked pass per workload")
    args = ap.parse_args(argv)
    os.environ.pop("HAMCHECK_THREADS", None)
    try:
        if args.smoke or args.record_digests:
            return smoke(record=args.record_digests)
        if args.workload is None:
            ap.error("--workload is required")
        result = bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
