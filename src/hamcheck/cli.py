"""Command-line entry point: parse a declaration file, run its tasks,
emit the structured report.  The file is the run's only input: options
shape only the report.

Exit codes: 0 all tasks ok, 1 any task failed or left a residual,
2 the input file or the report path cannot be used, or a parse error.
A declaration the kernel rejects fails the tasks that name it.
"""

from __future__ import annotations

import argparse
import sys

from .parser import ParseError, parse_program
from .poly import run_scope
from .runner import (
    build_report,
    exit_code,
    report_json,
    report_text,
    run_program,
)


def _error(text: str) -> int:
    print(f"hamcheck: {text}", file=sys.stderr)
    return 2


def _argument_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hamcheck",
        description="verify Hamiltonian structures of PDE systems, exactly",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run the tasks in a declaration file")
    runp.add_argument("file", help="declaration file")
    runp.add_argument("--report", metavar="PATH", help="write the JSON report here")
    runp.add_argument(
        "--text", action="store_true",
        help="print the full human-readable report to stdout",
    )
    runp.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings (breaks byte determinism)",
    )
    return ap


# built once: parse_args keeps no state between calls, so every main()
# in a process shares it
_ARGS = _argument_parser()


def main(argv=None) -> int:
    args = _ARGS.parse_args(argv)

    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return _error(exc)
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return _error(f"{args.file}: {exc}")

    # one Run from parsing to the last task: parse-time operator algebra
    # and system building share the run's derivative table
    with run_scope():
        try:
            program = parse_program(source)
        except ParseError as exc:
            print(f"{args.file}:{exc}", file=sys.stderr)
            return 2
        results = run_program(program)
        del program  # its systems hold their reduction caches

    report = build_report(results, raw, with_timings=args.timings)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report_json(report))
        except OSError as exc:
            return _error(exc)
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
