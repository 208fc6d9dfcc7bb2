"""The CLI's deterministic commands against committed goldens.

Every case runs one ``repro-sc`` command line in-process and compares
its stdout byte for byte with ``tests/data/cli/<case>.txt``; the option
strings and ``choices`` of every subcommand are compared with
``tests/data/cli/options.json``.  ``{graph}`` is the io1 workload at
100 GB (the README's worked examples), ``{trace}`` a tier-aware run's
saved trace over it.
"""

import argparse
import json
import pathlib

import pytest

from repro.cli import _build_parser, main

DATA = pathlib.Path(__file__).parent / "data" / "cli"

_TIER_AWARE = ["--tier", "ram:1.5", "--tier", "ssd:4", "--tier", "disk:inf",
               "--tier-aware-plan"]
_COLD = ["--tier", "ram:1.2", "--tier", "cold:inf", "--spill-codec", "zlib"]

CASES = {
    "workload": ["workload", "io1", "--scale-gb", "100"],
    "optimize": ["optimize", "{graph}", "--memory", "4"],
    "explain": ["explain", "{graph}", "--memory", "4"],
    "obs_report": ["obs", "report", "{trace}"],
    "simulate_plain": ["simulate", "{graph}", "--memory", "1.5"],
    "simulate_gantt": ["simulate", "{graph}", "--memory", "4", "--gantt"],
    "simulate_lru": ["simulate", "{graph}", "--memory", "4",
                     "--method", "lru"],
    "simulate_parallel": ["simulate", "{graph}", "--memory", "2",
                          "--backend", "parallel", "--workers", "2"],
    "simulate_tier_aware": ["simulate", "{graph}", *_TIER_AWARE],
    "simulate_codec_prefetch": [
        "simulate", "{graph}", "--tier", "ram:1.5", "--tier", "disk:inf",
        "--tier-aware-plan", "--spill-codec", "zlib", "--prefetch"],
    "simulate_replan": ["simulate", "{graph}", *_COLD,
                        "--tier-aware-plan", "--replan"],
    "simulate_feedback": ["simulate", "{graph}", *_COLD,
                          "--feedback", "{trace}"],
    "simulate_adaptive_metrics": [
        "simulate", "{graph}", "--tier", "ram:1.5", "--tier", "disk:inf",
        "--spill-codec", "zlib", "--tier-aware-plan", "--adaptive-codec",
        "--adapt-samples", "2", "--metrics"],
}


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("cli_goldens")
    paths = {"graph": str(root / "io1.json"),
             "trace": str(root / "trace.json")}
    assert main(["workload", "io1", "--scale-gb", "100",
                 "--output", paths["graph"]]) == 0
    assert main(["simulate", paths["graph"], *_COLD, "--tier-aware-plan",
                 "--save-trace", paths["trace"]]) == 0
    return paths


def option_table() -> dict:
    """``{subcommand: sorted [option strings, choices]}`` of the parser."""
    table = {}

    def walk(parser, prefix):
        rows = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, f"{prefix} {name}".strip())
                continue
            choices = (sorted(map(str, action.choices))
                       if action.choices is not None else None)
            rows.append([sorted(action.option_strings) or [action.dest],
                         choices])
        table[prefix or "repro-sc"] = sorted(rows, key=json.dumps)

    walk(_build_parser(), "")
    return table


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, files, capsys):
    expected = (DATA / f"{name}.txt").read_text(encoding="utf-8")
    capsys.readouterr()
    assert main([arg.format(**files) for arg in CASES[name]]) == 0
    assert capsys.readouterr().out == expected


def test_options_and_choices_match_golden():
    expected = json.loads((DATA / "options.json").read_text(
        encoding="utf-8"))
    assert option_table() == expected
