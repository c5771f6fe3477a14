"""Command-line entry point.

    engine run scenario.scn [--trace] [--max-steps N] [--depth N] [--report OUT]

Exit status: 0 when every expectation holds, 1 when a coherence verdict
expectation fails, 2 for any other failed expectation, 3 for unreadable or
ill-formed input, a bad command line (a step bound below 1 or a negative
depth among them) or an unwritable report path included.  ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DicekitError
from .runner import run_scenario, write_report
from .scenario import load


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="engine", description="defeasible discourse engine")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="interpret a scenario file")
    run.add_argument("path", help="scenario (.scn) file")
    run.add_argument("--trace", action="store_true", help="print the inference trace")
    run.add_argument("--max-steps", type=int, default=1000, metavar="N",
                     help="most rounds any one closure may take to reach its fixpoint (default 1000)")
    run.add_argument("--depth", type=int, default=3, metavar="N",
                     help="maximum nesting depth for attitude contexts (default 3)")
    run.add_argument("--report", metavar="OUT",
                     help="also write a report (text, or JSON when OUT ends in .json)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_steps < 1:
            parser.error(f"argument --max-steps: must be at least 1, not {args.max_steps}")
        if args.depth < 0:
            parser.error(f"argument --depth: must be at least 0, not {args.depth}")
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 3
    try:
        return _run(args)
    except (DicekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    scenario = load(args.path)
    report = run_scenario(scenario, max_steps=args.max_steps, max_depth=args.depth)
    print(f"scenario {scenario.name}: {report.verdict} ({report.elapsed:.3f}s)")
    for a in report.sdrs.attachments:
        print(f"  relation {a.rel}")
    for d in report.diagnostics:
        print(f"  diagnostic: {d}")
    if args.trace:
        for line in report.trace.lines():
            print(line)
    for e in report.expectations:
        print(e.line())
    if args.report:
        write_report(report, args.report)
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
