"""Command-line entry point: parse a declaration file, run its tasks,
emit the structured report.

Exit codes: 0 all tasks ok, 1 any task failed or left a residual,
2 parse or declaration error.
"""

from __future__ import annotations

import argparse
import sys

from .parser import EquationDecl, ParseError, Program, parse_program
from .runner import (
    build_report,
    exit_code,
    report_json,
    report_text,
    run_program,
)
from .systems import HamcheckError


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="hamcheck",
        description="verify Hamiltonian structures of PDE systems, exactly",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the tasks in a declaration file")
    runp.add_argument("file", help="declaration file")
    runp.add_argument("--report", metavar="PATH", help="write the JSON report here")
    runp.add_argument(
        "--passivity-depth", type=int, default=None, metavar="N",
        help="default compatibility-check depth for equations without one",
    )
    runp.add_argument(
        "--text", action="store_true",
        help="print the full human-readable report to stdout",
    )
    runp.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings (breaks byte determinism)",
    )
    args = ap.parse_args(argv)

    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
        source = raw.decode("utf-8")
    except OSError as exc:
        print(f"hamcheck: {exc}", file=sys.stderr)
        return 2

    try:
        program = parse_program(source)
        if args.passivity_depth is not None:
            systems = {
                name: decl if decl.passivity is not None
                else EquationDecl(decl.deps, decl.solves, decl.ranking,
                                  args.passivity_depth)
                for name, decl in program.systems.items()
            }
            program = Program(program.frame, systems, program.operators,
                              program.vectors, program.equivalences, program.tasks)
        results = run_program(program)
    except ParseError as exc:
        print(f"{args.file}:{exc}", file=sys.stderr)
        return 2
    except (HamcheckError, ValueError) as exc:
        # declaration-level kernel error (bad system, ranking or equivalence data)
        print(f"{args.file}: error: {exc}", file=sys.stderr)
        return 2

    report = build_report(program, results, raw, with_timings=args.timings)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
    if args.text:
        sys.stdout.write(report_text(report))
    else:
        for entry in report["tasks"]:
            print(f"[{entry['index']:03d}] {entry['kind']:<12} {entry['status']}")
        s = report["summary"]
        print(f"summary: {s['ok']} ok, {s['fail']} failed, {s['residual']} with residuals")
    return exit_code(results)


if __name__ == "__main__":
    raise SystemExit(main())
