"""repro-lint command line.

Exit codes: 0 clean, 1 violations (new findings, hygiene problems, or
unaudited suppressions), 2 configuration error (bad paths, bad
pyproject table, unreadable baseline, unknown ``--explain`` code).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import report as report_mod
from . import baseline as baseline_mod
from .config import LintConfigError, load_config
from .engine import analyze, discover_files

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2


def find_root(start: Path) -> Path:
    """Nearest ancestor (inclusive) holding a pyproject.toml."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: static checks for the project's "
                    "determinism and observability invariants.")
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to scan, relative to the repo root "
             "(default: [tool.repro-lint] paths)")
    parser.add_argument(
        "--root", metavar="DIR",
        help="repo root (default: nearest ancestor with "
             "pyproject.toml)")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="baseline file, relative to the root (default: "
             "[tool.repro-lint] baseline)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report and fail on every violation")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run's findings")
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print the rationale and fix-it guidance for a rule code")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule codes and summaries")
    parser.add_argument(
        "--report", metavar="FILE",
        help="also write the report to FILE (CI artifact)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.explain:
        text = report_mod.explain(args.explain.strip().upper())
        if text is None:
            print(f"unknown rule code {args.explain!r}; try "
                  f"--list-rules", file=sys.stderr)
            return EXIT_CONFIG
        print(text)
        return EXIT_CLEAN
    if args.list_rules:
        print(report_mod.rule_table())
        return EXIT_CLEAN

    # The lint CLI reports its own real elapsed time; this is not a
    # simulated path.
    start = time.perf_counter()  # repro-lint: disable=REP001 -- lint CLI measures its own real wall time
    try:
        root = (Path(args.root).resolve() if args.root
                else find_root(Path.cwd()))
        config = load_config(root)
        paths = tuple(args.paths) or config.paths
        result = analyze(root, paths, config)
        file_count = len(discover_files(root, paths))
        baseline_path = root / (args.baseline or config.baseline)
        if args.update_baseline:
            baseline_mod.save(baseline_path, result)
        if args.no_baseline:
            baseline = baseline_mod.Baseline.empty()
        else:
            baseline = baseline_mod.load(baseline_path)
    except LintConfigError as exc:
        print(f"repro-lint: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    delta = baseline_mod.compare(result, baseline)
    elapsed = time.perf_counter() - start  # repro-lint: disable=REP001 -- lint CLI measures its own real wall time
    text = report_mod.render(result, delta, file_count)
    text += f" (in {elapsed:.2f}s)"
    if args.update_baseline:
        text += f"\nbaseline written: {baseline_path}"
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")

    if args.update_baseline:
        # the fresh baseline tolerates everything current except
        # hygiene problems, which are never baselined
        return EXIT_VIOLATIONS if result.hygiene else EXIT_CLEAN
    failing = bool(delta.new or delta.new_suppressions or result.hygiene)
    return EXIT_VIOLATIONS if failing else EXIT_CLEAN
