"""Engine core: source model, suppression directives, orchestration.

The engine parses every file once (``ast`` for structure, ``tokenize``
for comments), hands the resulting :class:`Project` to each rule, and
then applies suppression directives:

* line scope — trailing comment on the offending line::

      t0 = time.perf_counter()  # repro-lint: disable=REP001 -- real wall executor

* file scope — a standalone comment anywhere in the file::

      # repro-lint: file-disable=REP001 -- engine times real disk I/O

A justification after ``--`` is mandatory; directives without one,
with unknown codes, or that suppress nothing are reported as
``REP000`` hygiene violations, which are never suppressible.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path
from typing import Iterator

from .config import LintConfig, LintConfigError, path_matches

#: Hygiene pseudo-rule: malformed/unknown/unused suppressions, parse
#: failures.  Not suppressible, never baselined — must always be fixed.
HYGIENE_CODE = "REP000"

_DIRECTIVE = re.compile(r"repro-lint:\s*(?P<rest>.*)$")
_SUPPRESS = re.compile(
    r"^(?P<scope>file-disable|disable)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding: rule code, location, fix-it message, and the
    stripped source line (the baseline fingerprint survives line
    drift)."""

    code: str
    path: str  # repo-relative posix path
    line: int
    message: str
    snippet: str = ""

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        return (self.code, self.path, self.snippet)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclasses.dataclass
class Suppression:
    """A parsed ``repro-lint: disable`` directive and its usage."""

    codes: tuple[str, ...]
    line: int
    scope: str  # "line" | "file"
    justification: str
    used: set = dataclasses.field(default_factory=set)  # codes that hit


class SourceFile:
    """One parsed module: AST, raw lines, comments, directives."""

    def __init__(self, path: Path, rel: str, source: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: str | None = None
        self.comments: list[tuple[int, str]] = []
        self.suppressions: list[Suppression] = []
        self.directive_problems: list[Violation] = []
        self._parents: dict | None = None
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.parse_error = f"cannot parse: {exc.msg} (line {exc.lineno})"
        self._scan_comments()

    # -- comments & directives -------------------------------------

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    self.comments.append((tok.start[0], tok.string))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return  # parse_error already recorded for broken files
        for line, text in self.comments:
            match = _DIRECTIVE.search(text)
            if match is None:
                continue
            self._parse_directive(line, match.group("rest"))

    def _parse_directive(self, line: int, rest: str) -> None:
        match = _SUPPRESS.match(rest)
        if match is None:
            self.directive_problems.append(Violation(
                HYGIENE_CODE, self.rel, line,
                "malformed repro-lint directive; expected "
                "`# repro-lint: disable=REP00x -- justification`",
                self._snippet(line)))
            return
        if not match.group("why"):
            self.directive_problems.append(Violation(
                HYGIENE_CODE, self.rel, line,
                "suppression is missing its justification; append "
                "` -- <why this site is exempt>`", self._snippet(line)))
            return
        from .rules import RULES_BY_CODE  # deferred: rules import this
        codes = tuple(c.strip().upper()
                      for c in match.group("codes").split(","))
        unknown = [c for c in codes if c not in RULES_BY_CODE]
        if unknown:
            self.directive_problems.append(Violation(
                HYGIENE_CODE, self.rel, line,
                f"suppression names unknown or unsuppressible code(s) "
                f"{', '.join(unknown)}", self._snippet(line)))
            return
        scope = "file" if match.group("scope") == "file-disable" else "line"
        self.suppressions.append(Suppression(
            codes, line, scope, match.group("why")))

    def _snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def snippet(self, line: int) -> str:
        return self._snippet(line)

    # -- tree helpers ----------------------------------------------

    def parents(self) -> dict:
        """Child AST node -> parent, computed lazily once per file."""
        if self._parents is None:
            self._parents = {}
            if self.tree is not None:
                for parent in ast.walk(self.tree):
                    for child in ast.iter_child_nodes(parent):
                        self._parents[child] = parent
        return self._parents

    # -- suppression matching --------------------------------------

    def suppresses(self, violation: Violation) -> bool:
        hit = False
        for sup in self.suppressions:
            if violation.code not in sup.codes:
                continue
            if sup.scope == "file" or sup.line == violation.line:
                sup.used.add(violation.code)
                hit = True
        return hit

    def unused_suppressions(self) -> Iterator[Violation]:
        for sup in self.suppressions:
            stale = [c for c in sup.codes if c not in sup.used]
            if stale:
                yield Violation(
                    HYGIENE_CODE, self.rel, sup.line,
                    f"suppression for {', '.join(stale)} matches no "
                    f"violation; delete the stale directive",
                    self._snippet(sup.line))


class Project:
    """All scanned files plus config; shared by every rule."""

    def __init__(self, root: Path, files: list[SourceFile],
                 config: LintConfig):
        self.root = root
        self.files = files
        self.config = config
        self._schema_keys: frozenset[str] | None = None

    def schema_keys(self) -> frozenset[str]:
        """Union of the declared telemetry key constants (REP005)."""
        if self._schema_keys is not None:
            return self._schema_keys
        assert self.config.schema_module is not None
        path = self.root / self.config.schema_module
        if not path.is_file():
            raise LintConfigError(
                f"schema module {self.config.schema_module} not found "
                f"under {self.root}")
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        wanted = set(self.config.schema_constants)
        keys: set[str] = set()
        found: set[str] = set()
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if not (names & wanted):
                continue
            found |= names & wanted
            keys.update(_literal_str_elements(node.value))
        missing = wanted - found
        if missing:
            raise LintConfigError(
                f"schema module {self.config.schema_module} does not "
                f"define: {', '.join(sorted(missing))}")
        self._schema_keys = frozenset(keys)
        return self._schema_keys


def _literal_str_elements(node: ast.expr) -> Iterator[str]:
    """String elements of a literal ``{...}`` / ``frozenset({...})`` /
    list/tuple constant (how the schema module declares key sets)."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "set") and node.args):
        node = node.args[0]
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                yield elt.value


# -- shared AST helpers used by several rules ----------------------

def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def enclosing_function(file: SourceFile, node: ast.AST):
    """Nearest FunctionDef/AsyncFunctionDef ancestor, or None."""
    parents = file.parents()
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


# -- results & orchestration ---------------------------------------

@dataclasses.dataclass
class AnalysisResult:
    """Outcome of one engine run over a set of files."""

    violations: list[Violation]  # active rule findings
    suppressed: list[Violation]  # silenced by directives (auditable)
    hygiene: list[Violation]     # REP000 — always active

    @property
    def active(self) -> list[Violation]:
        return sorted(self.violations + self.hygiene,
                      key=lambda v: (v.path, v.line, v.code))

    def suppression_inventory(self) -> dict[tuple[str, str], int]:
        """(code, path) -> suppressed-violation count, for the
        baseline's suppression audit."""
        inventory: dict[tuple[str, str], int] = {}
        for violation in self.suppressed:
            key = (violation.code, violation.path)
            inventory[key] = inventory.get(key, 0) + 1
        return inventory


def discover_files(root: Path, paths: tuple[str, ...]) -> list[Path]:
    """Python files under the given repo-relative paths, sorted."""
    found: set[Path] = set()
    for entry in paths:
        target = (root / entry).resolve()
        if target.is_file():
            found.add(target)
        elif target.is_dir():
            for candidate in target.rglob("*.py"):
                if "__pycache__" in candidate.parts:
                    continue
                found.add(candidate)
        else:
            raise LintConfigError(f"no such path: {entry}")
    return sorted(found)


def analyze(root: Path, paths: tuple[str, ...],
            config: LintConfig | None = None) -> AnalysisResult:
    """Run every rule over ``paths`` (repo-relative) and apply
    suppressions.  Raises :class:`LintConfigError` on setup problems."""
    from .rules import ALL_RULES  # deferred: rules import this module

    config = config or LintConfig()
    root = root.resolve()
    files = []
    for path in discover_files(root, paths):
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            raise LintConfigError(
                f"{path} is outside the project root {root}; baselines "
                f"need repo-relative paths — pass --root to lint another "
                f"tree") from None
        files.append(SourceFile(path, rel, path.read_text(encoding="utf-8")))
    project = Project(root, files, config)

    raw: list[Violation] = []
    hygiene: list[Violation] = []
    for file in files:
        if file.parse_error:
            hygiene.append(Violation(HYGIENE_CODE, file.rel, 1,
                                     file.parse_error))
        hygiene.extend(file.directive_problems)
    for rule in ALL_RULES:
        raw.extend(rule.check(project))

    by_rel = {file.rel: file for file in files}
    active: list[Violation] = []
    suppressed: list[Violation] = []
    for violation in sorted(raw, key=lambda v: (v.path, v.line, v.code)):
        file = by_rel.get(violation.path)
        if file is not None and file.suppresses(violation):
            suppressed.append(violation)
        else:
            active.append(violation)
    for file in files:
        hygiene.extend(file.unused_suppressions())
    hygiene.sort(key=lambda v: (v.path, v.line))
    return AnalysisResult(active, suppressed, hygiene)
