"""The project's invariant rules, as plain ``ast`` walks over ``src/repro``.

The golden traces and the fuzz harness check these promises at run
time; the rules below check them on every line of the package, and
the fixtures hold each rule to the cases it must catch and those it
must leave alone:

====== ============================ =========================================
code   name                         protects
====== ============================ =========================================
REP001 wall-clock-in-logical-path   golden-trace determinism (logical clocks)
REP002 unseeded-rng                 seeded tie-breaks, reproducible runs
REP004 bus-guard                    <2% observability overhead when off
REP006 error-taxonomy               ``repro.errors``-only public failures
REP007 unreachable-module           no module only tests or examples import
====== ============================ =========================================

A site that is exempt on purpose says why on its own line::

    t0 = time.perf_counter()  # repro-lint: disable=REP001 -- real wall executor

or, for a whole file, on a line of its own::

    # repro-lint: file-disable=REP001 -- engine times real disk I/O

A directive that is malformed, gives no reason after ``--``, names an
unknown code or suppresses nothing is a ``REP000`` finding.
``SUPPRESSION_BASELINE`` counts the reviewed suppressions, so a new
one needs an edit here.  Each file is parsed once per pytest run; the
rules and ``tests/test_reachability.py`` share the parse.
"""

from __future__ import annotations

import ast
import builtins
import collections
import dataclasses
import functools
import io
import re
import tokenize
import tomllib
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

# -- policy --------------------------------------------------------------

#: REP001: files where a real wall-clock read is the point (MiniDB
#: times its real disk I/O; the orchestrator enforces trial budgets)
WALLCLOCK_ALLOW = frozenset({"src/repro/exec/minidb.py",
                             "src/repro/bench/orchestrator.py"})
#: REP004: the NULL_BUS-safe emission helpers, exempt as a unit
BUS_HELPERS = frozenset({"src/repro/obs/events.py"})
#: REP006: entry points whose failures are all ``ERROR_MODULE`` types
ENTRY_POINTS = frozenset({"src/repro/cli.py",
                          "src/repro/engine/controller.py"})
ERROR_MODULE = "repro.errors"
#: (file, code) -> violations its directives suppress, as reviewed
SUPPRESSION_BASELINE = {
    ("src/repro/bench/experiments.py", "REP001"): 2,
    ("src/repro/db/engine.py", "REP001"): 8,
    ("src/repro/obs/events.py", "REP001"): 3,
}

RULES = ("REP001", "REP002", "REP004", "REP006", "REP007")
#: Directive problems; never suppressible
HYGIENE_CODE = "REP000"


# -- parsed sources ------------------------------------------------------

@dataclasses.dataclass(frozen=True, order=True)
class Violation:
    rel: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: {self.code} {self.message}"


@dataclasses.dataclass(frozen=True)
class Directive:
    line: int
    scope: str  # "line" | "file"
    codes: tuple[str, ...]


_DIRECTIVE = re.compile(r"repro-lint:\s*(?P<rest>.*)$")
_SUPPRESS = re.compile(
    r"^(?P<scope>file-disable|disable)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$")


class Source:
    """One parsed file: its path, text, AST nodes (walked once) and
    suppression directives, with the problems found in them."""

    def __init__(self, rel: str, text: str) -> None:
        self.rel = rel
        self.text = text
        self.tree = ast.parse(text, filename=rel)
        self.nodes = list(ast.walk(self.tree))
        self.directives: list[Directive] = []
        self.problems: list[Violation] = []
        if "repro-lint:" in text:
            for token in tokenize.generate_tokens(io.StringIO(text).readline):
                match = (token.type == tokenize.COMMENT
                         and _DIRECTIVE.search(token.string))
                if match:
                    self._directive(token.start[0], match.group("rest"))

    def _directive(self, line: int, rest: str) -> None:
        match = _SUPPRESS.match(rest)
        if match is None:
            problem = ("malformed repro-lint directive; expected "
                       "`# repro-lint: disable=REP00x -- justification`")
        elif not match.group("why"):
            problem = ("suppression is missing its justification; append "
                       "` -- <why this site is exempt>`")
        else:
            codes = tuple(code.strip().upper()
                          for code in match.group("codes").split(","))
            unknown = [code for code in codes if code not in RULES]
            if not unknown:
                scope = ("file" if match.group("scope") == "file-disable"
                         else "line")
                self.directives.append(Directive(line, scope, codes))
                return
            problem = (f"suppression names unknown or unsuppressible "
                       f"code(s) {', '.join(unknown)}")
        self.problems.append(Violation(self.rel, line, HYGIENE_CODE, problem))

    @functools.cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        return {child: parent for parent in self.nodes
                for child in ast.iter_child_nodes(parent)}


@functools.lru_cache(maxsize=None)
def parse(rel: str, text: str) -> Source:
    return Source(rel, text)


def read_tree(top: str) -> list[Source]:
    """Every ``.py`` file under ``REPO_ROOT / top``, parsed."""
    return [parse(path.relative_to(REPO_ROOT).as_posix(),
                  path.read_text(encoding="utf-8"))
            for path in sorted((REPO_ROOT / top).rglob("*.py"))
            if "__pycache__" not in path.parts]


def console_scripts(pyproject: str) -> list[str]:
    """Modules named by the ``[project.scripts]`` table of a pyproject
    text."""
    scripts = tomllib.loads(pyproject)["project"]["scripts"]
    return [target.partition(":")[0].strip() for target in scripts.values()]


@functools.lru_cache(maxsize=None)
def repo_inputs() -> tuple[list[Source], list[Source], list[str]]:
    """What the rules read: the package, ``benchmarks/`` and the
    console scripts."""
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return (read_tree("src/repro"), read_tree("benchmarks"),
            console_scripts(pyproject))


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _calls(src: Source) -> Iterator[ast.Call]:
    return (node for node in src.nodes if isinstance(node, ast.Call))


# -- REP001 wall clock ---------------------------------------------------
# The simulator, planner and feedback loop run on a logical clock; one
# real clock read makes traces differ run to run.  Fix: thread the `now`
# the caller carries, or suppress where real hardware is measured.

#: ``time`` functions that read a real clock
WALL_CLOCKS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "clock_gettime", "clock_gettime_ns",
    "process_time", "process_time_ns",
})


def rep001(src: Source, allow=WALLCLOCK_ALLOW) -> Iterator[Violation]:
    if src.rel in allow:
        return
    aliases: set[str] = set()
    direct: set[str] = set()
    for node in src.nodes:
        if isinstance(node, ast.Import):
            aliases.update(item.asname or "time" for item in node.names
                           if item.name == "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            direct.update(item.asname or item.name for item in node.names
                          if item.name in WALL_CLOCKS)
    for call in _calls(src):
        func, name = call.func, None
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            if receiver in aliases and func.attr in WALL_CLOCKS:
                name = f"{receiver}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in direct:
            name = func.id
        if name is not None:
            yield Violation(
                src.rel, call.lineno, "REP001",
                f"wall-clock read `{name}()` in a logical-time path; "
                f"thread the simulated clock instead, or allowlist/"
                f"suppress if this measures real I/O")


# -- REP002 unseeded RNG -------------------------------------------------
# Every draw comes from a generator built with an explicit seed and
# passed down; the module-level conveniences share process-wide state.

#: constructors of a seedable generator
SEEDED_RANDOM = frozenset({"Random", "SystemRandom"})
SEEDED_NUMPY = frozenset({"default_rng", "Generator", "SeedSequence",
                          "PCG64", "Philox", "MT19937"})


def rep002(src: Source) -> Iterator[Violation]:
    random_aliases: set[str] = set()
    numpy_aliases = {"numpy.random", "np.random"}
    direct: set[str] = set()
    for node in src.nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "random":
                    random_aliases.add(item.asname or "random")
                elif item.name == "numpy.random":
                    numpy_aliases.add(item.asname or "numpy.random")
        elif isinstance(node, ast.ImportFrom):
            allowed = {"random": SEEDED_RANDOM,
                       "numpy.random": SEEDED_NUMPY}.get(node.module)
            for item in node.names:
                if allowed is not None and item.name not in allowed:
                    direct.add(item.asname or item.name)
                elif node.module == "numpy" and item.name == "random":
                    numpy_aliases.add(item.asname or "random")
    for call in _calls(src):
        func = call.func
        if isinstance(func, ast.Name) and func.id in direct:
            yield Violation(
                src.rel, call.lineno, "REP002",
                f"`{func.id}()` draws from the global RNG; pass a seeded "
                f"Random/Generator instead")
            continue
        if not isinstance(func, ast.Attribute):
            continue
        receiver = dotted_name(func.value)
        if receiver in random_aliases and func.attr not in SEEDED_RANDOM:
            yield Violation(
                src.rel, call.lineno, "REP002",
                f"`{receiver}.{func.attr}()` uses the global random state; "
                f"draw from a seeded `random.Random(seed)` passed in")
        elif receiver in numpy_aliases and func.attr not in SEEDED_NUMPY:
            yield Violation(
                src.rel, call.lineno, "REP002",
                f"`{receiver}.{func.attr}()` uses numpy's global RNG; draw "
                f"from a seeded `default_rng(seed)` passed in")


# -- REP004 bus guard ----------------------------------------------------
# Events off must cost one attribute read per site: an emission sits
# under `if bus.enabled:` (or after `if not bus.enabled: return`), so its
# payload is never built, or goes through an obs/events.py helper.

EMIT_METHODS = frozenset({"span", "instant", "counter"})


def rep004(src: Source, helpers=BUS_HELPERS) -> Iterator[Violation]:
    if src.rel in helpers:
        return
    for call in _calls(src):
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in EMIT_METHODS:
            continue
        receiver = dotted_name(func.value)
        if (receiver is None or receiver.split(".")[-1] != "bus"
                or _bus_guarded(src, call, f"{receiver}.enabled")):
            continue
        yield Violation(
            src.rel, call.lineno, "REP004",
            f"unguarded emission `{receiver}.{func.attr}(...)`; wrap in "
            f"`if {receiver}.enabled:` or route through an obs/events.py "
            f"helper")


def _bus_guarded(src: Source, call: ast.Call, enabled: str) -> bool:
    child: ast.AST = call
    current = src.parents.get(call)
    while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if (isinstance(current, ast.If) and child is not current.test
                and not any(child is stmt for stmt in current.orelse)
                and any(dotted_name(node) == enabled
                        for node in ast.walk(current.test))):
            return True
        child, current = current, src.parents.get(current)
    # an earlier `if not <bus>.enabled: return` in the enclosing function
    for stmt in current.body if current is not None else ():
        if stmt.lineno >= call.lineno:
            break
        test = getattr(stmt, "test", None)
        if (isinstance(stmt, ast.If) and not stmt.orelse
                and isinstance(test, ast.UnaryOp)
                and isinstance(test.op, ast.Not)
                and dotted_name(test.operand) == enabled
                and isinstance(stmt.body[-1],
                               (ast.Return, ast.Raise, ast.Continue))):
            return True
    return False


# -- REP006 error taxonomy -----------------------------------------------
# The CLI maps `repro.errors` types to exit codes, and embedders catch
# `ReproError`; a builtin raised from an entry point escapes both.
# Allowed: names imported from `repro.errors`, local subclasses of them,
# bare re-raises and names the walk cannot resolve.

BUILTIN_EXCEPTIONS = frozenset(
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException))


def rep006(src: Source, entry_points=ENTRY_POINTS) -> Iterator[Violation]:
    if src.rel not in entry_points:
        return
    allowed = _taxonomy_names(src)
    for node in src.nodes:
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = dotted_name(exc)
        if (name is not None and name not in allowed
                and name.split(".")[-1] in BUILTIN_EXCEPTIONS):
            yield Violation(
                src.rel, node.lineno, "REP006",
                f"entry point raises builtin `{name}`; raise a "
                f"`{ERROR_MODULE}` type instead so the CLI exit-code "
                f"mapping and embedders' `except ReproError` keep working")


def _taxonomy_names(src: Source) -> set[str]:
    """Names bound to ``ERROR_MODULE`` types: its imports, aliases of
    the module itself, and local subclasses of either."""
    allowed: set[str] = set()
    tail = ERROR_MODULE.rsplit(".", 1)[-1]
    for node in src.nodes:
        if isinstance(node, ast.ImportFrom) and (
                node.module == ERROR_MODULE
                or (node.level > 0 and node.module == tail)):
            allowed.update(item.asname or item.name for item in node.names)
        elif isinstance(node, ast.Import):
            allowed.update(item.asname or ERROR_MODULE for item in node.names
                           if item.name == ERROR_MODULE)
    classes = [node for node in src.nodes if isinstance(node, ast.ClassDef)]
    changed = True
    while changed:
        changed = False
        for node in classes:
            bases = [dotted_name(base) for base in node.bases]
            if node.name not in allowed and any(
                    base is not None and (base in allowed
                                          or base.split(".")[0] in allowed)
                    for base in bases):
                allowed.add(node.name)
                changed = True
    return allowed


# -- REP007 unreachable module -------------------------------------------
# A module only tests or examples import is kept alive by its own tests.
# Roots: the console scripts, every `__main__.py` or module with an
# `if __name__ == "__main__":` guard, every file outside a package, and
# what `benchmarks/` imports.  Edges: every import at any depth, and
# every string constant equal to a module's dotted `a.b` name (a lazily
# imported table); `from pkg import name` follows the `__init__`'s own
# binding of `name`.  Fix: delete the module, or move an oracle under
# tests/.

#: an import: (module, the name imported from it or None for all of it)
Edge = tuple[str, "str | None"]


def rep007(package: list[Source], benchmarks: Iterable[Source] = (),
           scripts: Iterable[str] = ()) -> Iterator[Violation]:
    rels = {src.rel for src in package}
    files: dict[str, tuple[Source, bool]] = {}  # name -> (src, is package)
    roots: list[Edge] = [(target, None) for target in scripts]
    for src in package:
        name, packaged = _module_name(src.rel, rels)
        files[name] = (src, src.rel.endswith("/__init__.py"))
        if (not packaged or src.rel.endswith("/__main__.py")
                or _has_main_guard(src)):
            roots.append((name, None))
    for src in benchmarks:
        roots += _edges(src, "", False, files)

    reached: set[str] = set()
    seen: set[Edge] = set()
    stack = roots
    while stack:
        edge = stack.pop()
        target, attr = edge
        if edge in seen or target not in files:
            continue
        seen.add(edge)
        # importing a module runs every package __init__ above it
        parts = target.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        src, is_package = files[target]
        bindings = _bindings(src, target) if is_package else {}
        if attr is not None and f"{target}.{attr}" in files:
            stack.append((f"{target}.{attr}", None))
        elif attr is not None and attr in bindings:
            stack.append(bindings[attr])
        else:
            stack.extend(_edges(src, target, is_package, files))
    for name, (src, _) in sorted(files.items()):
        if name not in reached:
            yield Violation(
                src.rel, 1, "REP007",
                f"module `{name}` is reachable from no run path (console "
                f"script, __main__ module, benchmarks/); delete it, or move "
                f"a test oracle under tests/")


def _module_name(rel: str, rels: set[str]) -> tuple[str, bool]:
    """Dotted name of ``rel`` from the packages (directories holding an
    ``__init__.py``) above it, and whether it is in a package at all."""
    path = PurePosixPath(rel)
    parts = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while f"{parent}/__init__.py" in rels:
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)), parent != path.parent


@functools.lru_cache(maxsize=None)
def _has_main_guard(src: Source) -> bool:
    return any(isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"
               for node in src.tree.body)


def _absolute(node: ast.ImportFrom, name: str, is_package: bool) -> str:
    """The module a (possibly relative) ``from ... import`` names."""
    if not node.level:
        return node.module or ""
    package = (name if is_package else name.rpartition(".")[0]).split(".")
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


@functools.lru_cache(maxsize=None)
def _imports(src: Source, name: str, is_package: bool) -> list[Edge]:
    edges: list[Edge] = []
    for node in src.nodes:
        if isinstance(node, ast.Import):
            edges += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, name, is_package)
            edges += [(module, None if alias.name == "*" else alias.name)
                      for alias in node.names]
    return edges


@functools.lru_cache(maxsize=None)
def _dotted_strings(src: Source) -> list[str]:
    return [node.value for node in src.nodes
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and "." in node.value]


def _edges(src: Source, name: str, is_package: bool, known) -> list[Edge]:
    """Every import in ``src``, plus every string constant that is a
    ``known`` module's dotted name (a bare top-level name like
    ``"repro"`` is more often a path component than an import, so it
    needs the dot)."""
    return _imports(src, name, is_package) + [
        (text, None) for text in _dotted_strings(src) if text in known]


@functools.lru_cache(maxsize=None)
def _bindings(src: Source, name: str) -> dict[str, Edge]:
    """Name -> import edge for each name a package ``__init__`` binds
    by a top-level import (its re-exports)."""
    bound: dict[str, Edge] = {}
    for node in src.tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname, (alias.name, None))
                         for alias in node.names if alias.asname)
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, name, True)
            bound.update((alias.asname or alias.name, (module, alias.name))
                         for alias in node.names if alias.name != "*")
    return bound


# -- running the rules ---------------------------------------------------

@dataclasses.dataclass
class Result:
    active: list[Violation]      # rule findings and directive problems
    suppressed: list[Violation]  # silenced by a directive


def check(package: list[Source], benchmarks: Iterable[Source] = (),
          scripts: Iterable[str] = (), *, wallclock_allow=WALLCLOCK_ALLOW,
          bus_helpers=BUS_HELPERS,
          entry_points=ENTRY_POINTS) -> Result:
    """Every rule over ``package``, then its suppression directives."""
    raw = list(rep007(package, benchmarks, scripts))
    for src in package:
        raw += [*rep001(src, wallclock_allow), *rep002(src),
                *rep004(src, bus_helpers),
                *rep006(src, entry_points)]
    by_rel = {src.rel: src for src in package}
    active: list[Violation] = []
    suppressed: list[Violation] = []
    used: set[tuple[str, int, str]] = set()
    for violation in sorted(raw):
        hits = [d.line for d in by_rel[violation.rel].directives
                if violation.code in d.codes
                and (d.scope == "file" or d.line == violation.line)]
        used.update((violation.rel, line, violation.code) for line in hits)
        (suppressed if hits else active).append(violation)
    for src in package:
        active += src.problems
        for directive in src.directives:
            stale = [code for code in directive.codes
                     if (src.rel, directive.line, code) not in used]
            if stale:
                active.append(Violation(
                    src.rel, directive.line, HYGIENE_CODE,
                    f"suppression for {', '.join(stale)} matches no "
                    f"violation; delete the stale directive"))
    return Result(sorted(active), suppressed)


def audit(suppressed: list[Violation], baseline: dict) -> list[str]:
    """Where the suppressed counts per (file, code) differ from
    ``baseline``."""
    counts = collections.Counter((v.rel, v.code) for v in suppressed)
    return [f"{rel}: {counts[rel, code]} {code} suppression(s), "
            f"{baseline.get((rel, code), 0)} in SUPPRESSION_BASELINE"
            for rel, code in sorted(set(counts) | set(baseline))
            if counts[rel, code] != baseline.get((rel, code), 0)]


@functools.lru_cache(maxsize=None)
def repo_result() -> Result:
    return check(*repo_inputs())


# -- the repo ------------------------------------------------------------

# REP007's check of the repo is tests/test_reachability.py, one case
# per module
@pytest.mark.parametrize("code", [code for code in RULES if code != "REP007"])
def test_repo_obeys_the_rule(code):
    found = [str(v) for v in repo_result().active if v.code == code]
    assert not found, "\n".join(found)


def test_repo_is_clean_against_committed_baseline():
    """Every directive in src/ is well formed and used, and the
    suppressions are the reviewed ones."""
    result = repo_result()
    problems = [str(v) for v in result.active if v.code == HYGIENE_CODE]
    problems += audit(result.suppressed, SUPPRESSION_BASELINE)
    assert not problems, "\n".join(problems)


# -- fixtures ------------------------------------------------------------

def lint(source: str, filename: str = "mod.py", **policy) -> list[Violation]:
    return check([parse(f"src/{filename}", source)], **policy).active


def codes_and_lines(active: list[Violation]) -> list[tuple[str, int]]:
    return [(v.code, v.line) for v in active]


def test_rep001_flags_time_calls_with_line():
    assert codes_and_lines(lint(
        "import time\n"
        "from time import perf_counter as pc\n"
        "a = time.perf_counter()\n"
        "b = pc()\n"
        "c = time.monotonic()\n")) == [
        ("REP001", 3), ("REP001", 4), ("REP001", 5)]


def test_rep001_ignores_non_clock_time_functions():
    assert lint("import time\ntime.sleep(0)\n") == []


def test_rep001_allowlisted_file_is_exempt():
    assert lint("import time\ntime.time()\n", filename="minidb.py",
                wallclock_allow={"src/minidb.py"}) == []


def test_rep002_flags_global_rng_calls():
    assert codes_and_lines(lint(
        "import random\n"
        "import numpy as np\n"
        "from random import shuffle\n"
        "x = random.random()\n"
        "np.random.rand(3)\n"
        "shuffle([1, 2])\n")) == [
        ("REP002", 4), ("REP002", 5), ("REP002", 6)]


def test_rep002_allows_seeded_constructors():
    assert lint(
        "import random\n"
        "import numpy as np\n"
        "rng = random.Random(7)\n"
        "gen = np.random.default_rng(7)\n"
        "rng.random(); gen.normal()\n") == []


def test_rep004_flags_unguarded_emission():
    assert codes_and_lines(lint(
        "def run(bus):\n"
        "    bus.instant('x', 'lane', 0.0)\n")) == [("REP004", 2)]


def test_rep004_accepts_guards_and_guard_clauses():
    assert lint(
        "def wrapped(bus):\n"
        "    if bus.enabled:\n"
        "        bus.instant('x', 'lane', 0.0)\n"
        "def clause(self):\n"
        "    if not self.bus.enabled:\n"
        "        return\n"
        "    self.bus.counter('a', 'b', 0.0, 1)\n") == []


def test_rep004_else_branch_is_not_guarded():
    assert codes_and_lines(lint(
        "def run(bus):\n"
        "    if bus.enabled:\n"
        "        pass\n"
        "    else:\n"
        "        bus.instant('x', 'lane', 0.0)\n")) == [("REP004", 5)]


def test_rep004_helper_module_is_exempt():
    assert lint("def f(bus):\n    bus.span('a','b',0,1)\n",
                filename="events.py", bus_helpers={"src/events.py"}) == []


def test_rep006_flags_builtin_raise_in_entry_point():
    assert codes_and_lines(lint(
        "from repro.errors import ValidationError\n"
        "class LocalError(ValidationError):\n"
        "    pass\n"
        "def main(argv):\n"
        "    raise ValueError('bad')\n",
        filename="cli.py", entry_points={"src/cli.py"})) == [("REP006", 5)]


def test_rep006_allows_taxonomy_and_unresolved_names():
    assert lint(
        "from repro.errors import ValidationError\n"
        "class LocalError(ValidationError):\n"
        "    pass\n"
        "def main(argv, exc):\n"
        "    if argv:\n"
        "        raise ValidationError('x')\n"
        "    if exc:\n"
        "        raise exc\n"
        "    raise LocalError('y')\n",
        filename="cli.py", entry_points={"src/cli.py"}) == []


def test_rep006_only_applies_to_configured_files():
    assert lint("def f():\n    raise ValueError('x')\n") == []


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
}


def lint_tree(tree: dict[str, str]) -> list[Violation]:
    sources = {rel: parse(rel, text) for rel, text in tree.items()
               if rel.endswith(".py")}
    return check(
        [src for rel, src in sources.items() if rel.startswith("src/")],
        [src for rel, src in sources.items() if rel.startswith("benchmarks/")],
        console_scripts(tree["pyproject.toml"])).active


def test_rep007_flags_test_only_modules():
    """Re-exported by the package but imported by no run path, and named
    only inside a docstring: both are test-only."""
    assert [(v.code, v.rel, v.line) for v in lint_tree(REACH_TREE)] == [
        ("REP007", "src/pkg/dead.py", 1),
        ("REP007", "src/pkg/doconly.py", 1)]


def test_rep007_quiet_on_every_kind_of_root_and_edge():
    """A lazy relative import, an exact dotted-name string, a
    ``__main__`` guard and the console script."""
    tree = dict(REACH_TREE)
    tree["src/pkg/__init__.py"] = "from pkg.api import run\n"
    tree["src/pkg/api.py"] += "BACKENDS['doc'] = 'pkg.doconly'\n"
    tree["src/pkg/dead.py"] = ""
    tree["benchmarks/perf/run.py"] += "import pkg.dead\n"
    assert lint_tree(tree) == []


def test_rep007_follows_the_binding_not_the_whole_init():
    tree = dict(REACH_TREE)
    tree["benchmarks/perf/run.py"] = "from pkg import run\n"
    # `run` binds pkg.api, whose lazy import and string stay edges;
    # `helper` (pkg.dead) is never asked for
    assert [v.rel for v in lint_tree(tree)] == [
        "src/pkg/dead.py", "src/pkg/doconly.py"]
    tree["benchmarks/perf/run.py"] = "import pkg\n"
    assert [v.rel for v in lint_tree(tree)] == ["src/pkg/doconly.py"]


# -- suppressions --------------------------------------------------------

def test_suppression_silences_and_inventories():
    result = check([parse("src/mod.py", (
        "import time\n"
        "t = time.time()  # repro-lint: disable=REP001 -- real I/O timer\n"))])
    assert result.active == []
    assert audit(result.suppressed, {("src/mod.py", "REP001"): 1}) == []


def test_file_scope_suppression_covers_all_lines():
    result = check([parse("src/mod.py", (
        "# repro-lint: file-disable=REP001 -- whole module times real I/O\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()\n"))])
    assert result.active == []
    assert len(result.suppressed) == 2


def test_suppression_without_justification_is_hygiene_error():
    codes = [v.code for v in lint(
        "import time\n"
        "t = time.time()  # repro-lint: disable=REP001\n")]
    # the directive is rejected, so the violation stays active too
    assert HYGIENE_CODE in codes and "REP001" in codes


def test_unknown_code_and_unused_suppression_are_hygiene_errors():
    messages = [v.message for v in lint(
        "x = 1  # repro-lint: disable=REP999 -- no such rule\n"
        "y = 2  # repro-lint: disable=REP001 -- nothing to suppress here\n"
        "z = 3  # repro-lint: disable REP001\n")]
    assert len(messages) == 3
    assert any("unknown" in m for m in messages)
    assert any("matches no" in m for m in messages)
    assert any("malformed" in m for m in messages)


def test_baseline_audits_new_suppressions():
    """A suppression the baseline does not list fails the audit, as
    does a listed one that went away."""
    suppressed = check([parse("src/mod.py", (
        "import time\n"
        "t = time.time()  # repro-lint: disable=REP001 -- real timer\n"
    ))]).suppressed
    assert audit(suppressed, {}) == [
        "src/mod.py: 1 REP001 suppression(s), 0 in SUPPRESSION_BASELINE"]
    assert audit([], {("src/mod.py", "REP001"): 1}) == [
        "src/mod.py: 0 REP001 suppression(s), 1 in SUPPRESSION_BASELINE"]


# -- every rule catches a seeded violation -------------------------------

SCRATCH = '''\
import time
import random

def bump(bus):
    t = time.perf_counter()
    x = random.random()
    bus.counter("a", "b", t, x)

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
    ("REP006", 10),
]


def test_every_rule_catches_its_seeded_violation():
    package = [parse("src/pkg/__init__.py", ""),
               parse("src/pkg/orphan.py", "x = 1\n"),
               parse("src/scratch.py", SCRATCH)]
    active = check(package, entry_points={"src/scratch.py"}).active
    assert codes_and_lines(active) == EXPECTED
