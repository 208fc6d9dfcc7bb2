"""repro-lint engine tests: per-rule fixtures, suppressions, the
baseline ratchet, CLI exit codes, and the repo's own cleanliness.

Most tests drive the in-process API (`repro.analysis.analyze`) against
tiny fixture trees under tmp_path; the CLI contract (exit codes 0
clean / 1 violations / 2 config error) is exercised via subprocess,
as is the acceptance check that `python -m repro.analysis src/repro`
runs clean against the committed baseline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis import baseline as baseline_mod
from repro.analysis.config import LintConfig, LintConfigError, path_matches
from repro.analysis.engine import HYGIENE_CODE

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Config for fixture trees: schema checking off unless a test opts in.
BARE = LintConfig(schema_module=None)


def lint(tmp_path: Path, source: str, config: LintConfig = BARE,
         filename: str = "mod.py"):
    (tmp_path / "src").mkdir(exist_ok=True)
    (tmp_path / "src" / filename).write_text(source, encoding="utf-8")
    return analyze(tmp_path, ("src",), config)


def codes_and_lines(result):
    return [(v.code, v.line) for v in result.active]


# -- REP001 wall clock -------------------------------------------------

def test_rep001_flags_time_calls_with_line(tmp_path):
    result = lint(tmp_path, (
        "import time\n"
        "from time import perf_counter as pc\n"
        "a = time.perf_counter()\n"
        "b = pc()\n"
        "c = time.monotonic()\n"))
    assert codes_and_lines(result) == [
        ("REP001", 3), ("REP001", 4), ("REP001", 5)]


def test_rep001_ignores_non_clock_time_functions(tmp_path):
    result = lint(tmp_path, "import time\ntime.sleep(0)\n")
    assert result.active == []


def test_rep001_allowlisted_file_is_exempt(tmp_path):
    config = LintConfig(schema_module=None,
                        wallclock_allow=("minidb.py", "bench/"))
    result = lint(tmp_path, "import time\ntime.time()\n",
                  config, filename="minidb.py")
    assert result.active == []


# -- REP002 unseeded RNG ----------------------------------------------

def test_rep002_flags_global_rng_calls(tmp_path):
    result = lint(tmp_path, (
        "import random\n"
        "import numpy as np\n"
        "from random import shuffle\n"
        "x = random.random()\n"
        "np.random.rand(3)\n"
        "shuffle([1, 2])\n"))
    assert codes_and_lines(result) == [
        ("REP002", 4), ("REP002", 5), ("REP002", 6)]


def test_rep002_allows_seeded_constructors(tmp_path):
    result = lint(tmp_path, (
        "import random\n"
        "import numpy as np\n"
        "rng = random.Random(7)\n"
        "gen = np.random.default_rng(7)\n"
        "rng.random(); gen.normal()\n"))
    assert result.active == []


# -- REP004 bus guard --------------------------------------------------

def test_rep004_flags_unguarded_emission(tmp_path):
    result = lint(tmp_path, (
        "def run(bus):\n"
        "    bus.instant('x', 'lane', 0.0)\n"))
    assert codes_and_lines(result) == [("REP004", 2)]


def test_rep004_accepts_guards_and_guard_clauses(tmp_path):
    result = lint(tmp_path, (
        "def wrapped(bus):\n"
        "    if bus.enabled:\n"
        "        bus.instant('x', 'lane', 0.0)\n"
        "def clause(self):\n"
        "    if not self.bus.enabled:\n"
        "        return\n"
        "    self.bus.counter('a', 'b', 0.0, 1)\n"))
    assert result.active == []


def test_rep004_else_branch_is_not_guarded(tmp_path):
    result = lint(tmp_path, (
        "def run(bus):\n"
        "    if bus.enabled:\n"
        "        pass\n"
        "    else:\n"
        "        bus.instant('x', 'lane', 0.0)\n"))
    assert codes_and_lines(result) == [("REP004", 5)]


def test_rep004_helper_module_is_exempt(tmp_path):
    config = LintConfig(schema_module=None,
                        bus_helper_files=("events.py",))
    result = lint(tmp_path, "def f(bus):\n    bus.span('a','b',0,1)\n",
                  config, filename="events.py")
    assert result.active == []


# -- REP005 extras schema ---------------------------------------------

SCHEMA_SOURCE = (
    'DECLARED = frozenset({\n'
    '    "spill_count",\n'
    '    "tiers",\n'
    '    "name",\n'
    '})\n')


def schema_config(tmp_path: Path) -> LintConfig:
    (tmp_path / "schema.py").write_text(SCHEMA_SOURCE, encoding="utf-8")
    return LintConfig(
        schema_module="schema.py",
        schema_constants=("DECLARED",),
        schema_producers=("mod.py::tier_report",))


def test_rep005_flags_undeclared_producer_key(tmp_path):
    config = schema_config(tmp_path)
    result = lint(tmp_path, (
        "def tier_report(self):\n"
        "    return {'spill_count': 1, 'spil_count_typo': 2}\n"),
        config)
    assert codes_and_lines(result) == [("REP005", 2)]
    assert "spil_count_typo" in result.active[0].message


def test_rep005_follows_consumer_dataflow(tmp_path):
    config = schema_config(tmp_path)
    # the typo'd nested read is caught; declared keys pass
    result = lint(tmp_path, (
        "def read(trace):\n"
        "    report = trace.extras.get('tiered_store') or {}\n"
        "    ok = report.get('spill_count', 0)\n"
        "    for tier in report['tiers']:\n"
        "        tier['name']\n"
        "        tier['nmae']\n"), config)
    assert codes_and_lines(result) == [("REP005", 6)]


def test_rep005_missing_schema_module_is_config_error(tmp_path):
    config = LintConfig(schema_module="nope.py",
                        schema_constants=("DECLARED",))
    with pytest.raises(LintConfigError):
        lint(tmp_path, "x = 1\n", config)


# -- REP006 error taxonomy --------------------------------------------

def test_rep006_flags_builtin_raise_in_entry_point(tmp_path):
    config = LintConfig(schema_module=None,
                        error_taxonomy_files=("cli.py",))
    result = lint(tmp_path, (
        "from repro.errors import ValidationError\n"
        "class LocalError(ValidationError):\n"
        "    pass\n"
        "def main(argv):\n"
        "    raise ValueError('bad')\n"),
        config, filename="cli.py")
    assert codes_and_lines(result) == [("REP006", 5)]


def test_rep006_allows_taxonomy_and_unresolved_names(tmp_path):
    config = LintConfig(schema_module=None,
                        error_taxonomy_files=("cli.py",))
    result = lint(tmp_path, (
        "from repro.errors import ValidationError\n"
        "class LocalError(ValidationError):\n"
        "    pass\n"
        "def main(argv, exc):\n"
        "    if argv:\n"
        "        raise ValidationError('x')\n"
        "    if exc:\n"
        "        raise exc\n"
        "    raise LocalError('y')\n"),
        config, filename="cli.py")
    assert result.active == []


def test_rep006_only_applies_to_configured_files(tmp_path):
    result = lint(tmp_path, "def f():\n    raise ValueError('x')\n")
    assert result.active == []


# -- REP007 unreachable module ----------------------------------------

#: A package tree: ``pkg.cli`` is the console script, ``benchmarks/``
#: imports ``pkg.api``; everything else is reached only as noted.
REACH_TREE = {
    "pyproject.toml": '[project.scripts]\ntool = "pkg.cli:main"\n',
    "benchmarks/perf/run.py": "from pkg import api\n",
    "src/pkg/__init__.py": (
        "from pkg.api import run\n"
        "from pkg.dead import helper\n"),
    "src/pkg/cli.py": "def main():\n    return 0\n",
    "src/pkg/api.py": (
        '"""Mentions pkg.doconly, in a docstring only."""\n'
        'BACKENDS = {"table": "pkg.tabled"}\n'
        "def run():\n"
        "    from . import lazy\n"
        "    return lazy\n"),
    "src/pkg/dead.py": "def helper():\n    return 1\n",
    "src/pkg/doconly.py": "x = 1\n",
    "src/pkg/tabled.py": "x = 1\n",
    "src/pkg/lazy.py": "x = 1\n",
    "src/pkg/tool.py": "if __name__ == '__main__':\n    print(1)\n",
    "src/pkg/schema.py": SCHEMA_SOURCE,
}


def lint_tree(tmp_path: Path, tree: dict[str, str]):
    for rel, source in tree.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return analyze(tmp_path, ("src",), LintConfig(
        schema_module="src/pkg/schema.py", schema_constants=("DECLARED",),
        schema_producers=()))


def test_rep007_flags_test_only_modules(tmp_path):
    """Re-exported by the package but imported by no run path, and named
    only inside a docstring: both are test-only."""
    result = lint_tree(tmp_path, REACH_TREE)
    assert [(v.code, v.path, v.line) for v in result.active] == [
        ("REP007", "src/pkg/dead.py", 1),
        ("REP007", "src/pkg/doconly.py", 1)]


def test_rep007_quiet_on_every_kind_of_root_and_edge(tmp_path):
    """A lazy relative import, an exact dotted-name string, a
    ``__main__`` guard, the console script and the schema module."""
    tree = dict(REACH_TREE)
    tree["src/pkg/__init__.py"] = "from pkg.api import run\n"
    tree["src/pkg/api.py"] += "BACKENDS['doc'] = 'pkg.doconly'\n"
    tree["src/pkg/dead.py"] = ""
    tree["benchmarks/perf/run.py"] += "import pkg.dead\n"
    assert lint_tree(tmp_path, tree).active == []


def test_rep007_follows_the_binding_not_the_whole_init(tmp_path):
    tree = dict(REACH_TREE)
    tree["benchmarks/perf/run.py"] = "from pkg import run\n"
    flagged = [v.path for v in lint_tree(tmp_path, tree).active]
    # `run` binds pkg.api, whose lazy import and string stay edges;
    # `helper` (pkg.dead) is never asked for
    assert flagged == ["src/pkg/dead.py", "src/pkg/doconly.py"]
    tree["benchmarks/perf/run.py"] = "import pkg\n"
    flagged = [v.path for v in lint_tree(tmp_path, tree).active]
    assert flagged == ["src/pkg/doconly.py"]


# -- suppressions ------------------------------------------------------

def test_suppression_silences_and_inventories(tmp_path):
    result = lint(tmp_path, (
        "import time\n"
        "t = time.time()  # repro-lint: disable=REP001 -- real I/O timer\n"))
    assert result.active == []
    assert [v.code for v in result.suppressed] == ["REP001"]
    assert result.suppression_inventory() == {
        ("REP001", "src/mod.py"): 1}


def test_file_scope_suppression_covers_all_lines(tmp_path):
    result = lint(tmp_path, (
        "# repro-lint: file-disable=REP001 -- whole module times real I/O\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"))
    assert result.active == []
    assert len(result.suppressed) == 2


def test_suppression_without_justification_is_hygiene_error(tmp_path):
    result = lint(tmp_path, (
        "import time\n"
        "t = time.time()  # repro-lint: disable=REP001\n"))
    # the directive is rejected, so the violation stays active too
    codes = [v.code for v in result.active]
    assert HYGIENE_CODE in codes and "REP001" in codes


def test_unknown_code_and_unused_suppression_are_hygiene_errors(tmp_path):
    result = lint(tmp_path, (
        "x = 1  # repro-lint: disable=REP999 -- no such rule\n"
        "y = 2  # repro-lint: disable=REP001 -- nothing to suppress here\n"))
    messages = [v.message for v in result.active]
    assert len(messages) == 2
    assert any("unknown" in m for m in messages)
    assert any("matches no" in m for m in messages)


# -- baseline ratchet --------------------------------------------------

VIOLATING = "import time\na = time.time()\nb = time.monotonic()\n"


def test_baseline_ratchet(tmp_path):
    result = lint(tmp_path, VIOLATING)
    assert len(result.violations) == 2
    baseline_path = tmp_path / "baseline.json"
    baseline_mod.save(baseline_path, result)
    baseline = baseline_mod.load(baseline_path)

    # same findings: clean against the baseline
    delta = baseline_mod.compare(result, baseline)
    assert delta.clean and delta.fixed == 0

    # one violation fixed: still clean, improvement reported
    improved = lint(tmp_path, "import time\na = time.time()\n")
    delta = baseline_mod.compare(improved, baseline)
    assert delta.clean and delta.fixed == 1

    # a new violation appears: ratchet fails with exactly the new one
    worse = lint(tmp_path, VIOLATING + "c = time.perf_counter()\n")
    delta = baseline_mod.compare(worse, baseline)
    assert not delta.clean
    assert [(v.code, v.line) for v in delta.new] == [("REP001", 4)]


def test_baseline_audits_new_suppressions(tmp_path):
    clean = lint(tmp_path, "x = 1\n")
    baseline_path = tmp_path / "baseline.json"
    baseline_mod.save(baseline_path, clean)
    suppressing = lint(tmp_path, (
        "import time\n"
        "t = time.time()  # repro-lint: disable=REP001 -- real timer\n"))
    delta = baseline_mod.compare(suppressing,
                                 baseline_mod.load(baseline_path))
    assert not delta.clean
    assert delta.new_suppressions == [("REP001", "src/mod.py", 1, 0)]


def test_malformed_baseline_is_config_error(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text("{\"version\": 99}", encoding="utf-8")
    with pytest.raises(LintConfigError):
        baseline_mod.load(bad)


# -- config ------------------------------------------------------------

def test_path_matches_suffix_and_directory_patterns():
    assert path_matches("src/repro/exec/minidb.py",
                        ("repro/exec/minidb.py",))
    assert not path_matches("src/repro/exec/minidb.py", ("exec/mini.py",))
    assert path_matches("benchmarks/bench_x.py", ("benchmarks/",))
    assert path_matches("src/benchmarks/bench_x.py", ("benchmarks/",))
    assert not path_matches("src/xbenchmarks/bench_x.py", ("benchmarks/",))


# -- CLI (subprocess) --------------------------------------------------

def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


PYPROJECT = (
    "[tool.repro-lint]\n"
    "paths = [\"src\"]\n"
    "baseline = \"baseline.json\"\n"
    "schema_module = \"\"\n")


def _mini_repo(tmp_path: Path, source: str) -> Path:
    (tmp_path / "pyproject.toml").write_text(PYPROJECT, encoding="utf-8")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(source, encoding="utf-8")
    return tmp_path


def test_cli_exit_0_on_clean_tree(tmp_path):
    repo = _mini_repo(tmp_path, "x = 1\n")
    proc = _run_cli(repo)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no violations" in proc.stdout


def test_cli_exit_1_on_violations_and_0_after_update_baseline(tmp_path):
    repo = _mini_repo(tmp_path, "import time\nt = time.time()\n")
    proc = _run_cli(repo)
    assert proc.returncode == 1
    assert "REP001" in proc.stdout
    proc = _run_cli(repo, "--update-baseline")
    assert proc.returncode == 0
    assert json.loads((repo / "baseline.json").read_text())["violations"]
    proc = _run_cli(repo)  # baselined now: clean
    assert proc.returncode == 0


def test_cli_exit_2_on_config_errors(tmp_path):
    repo = _mini_repo(tmp_path, "x = 1\n")
    assert _run_cli(repo, "no/such/dir").returncode == 2
    assert _run_cli(repo, "--explain", "NOPE").returncode == 2
    (repo / "pyproject.toml").write_text(
        "[tool.repro-lint]\nbogus_key = 1\n", encoding="utf-8")
    assert _run_cli(repo).returncode == 2


def test_cli_explain_and_list_rules(tmp_path):
    repo = _mini_repo(tmp_path, "x = 1\n")
    proc = _run_cli(repo, "--explain", "REP004")
    assert proc.returncode == 0
    assert "bus.enabled" in proc.stdout
    proc = _run_cli(repo, "--list-rules")
    assert proc.returncode == 0
    for code in ("REP001", "REP002", "REP004", "REP005", "REP006",
                 "REP007", "REP000"):
        assert code in proc.stdout


# -- acceptance: every rule catches a seeded violation ----------------

SCRATCH = '''\
import time
import random

def bump(bus, trace):
    t = time.perf_counter()
    x = random.random()
    bus.counter("a", "b", t, x)
    report = trace.extras["tiered_store"]
    return report["definitely_not_a_key"]

def main(argv):
    raise RuntimeError("boom")

import pkg
'''

#: (code, 1-indexed line) for each deliberate violation: the first is
#: ``src/pkg/orphan.py``'s (``import pkg`` runs an empty ``__init__``),
#: the rest SCRATCH's.
EXPECTED = [
    ("REP007", 1),
    ("REP001", 5),
    ("REP002", 6),
    ("REP004", 7),
    ("REP005", 9),
    ("REP006", 12),
]


def test_every_rule_catches_its_seeded_violation(tmp_path):
    config = LintConfig(
        schema_module="schema.py",
        schema_constants=("DECLARED",),
        schema_producers=(),
        error_taxonomy_files=("scratch.py",))
    (tmp_path / "schema.py").write_text(SCHEMA_SOURCE, encoding="utf-8")
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "orphan.py").write_text("x = 1\n")
    result = lint(tmp_path, SCRATCH, config, filename="scratch.py")
    assert codes_and_lines(result) == EXPECTED


# -- the repo itself ---------------------------------------------------

def test_repo_is_clean_against_committed_baseline():
    """`python -m repro.analysis src/repro` exits 0 at the repo root —
    the acceptance criterion CI's static-analysis job enforces."""
    proc = _run_cli(REPO_ROOT, "src/repro")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no violations" in proc.stdout
