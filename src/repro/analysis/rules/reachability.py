"""REP007 — every package module is reachable from a run path."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..config import parse_pyproject
from ..engine import Project, Violation
from .base import Rule

#: An import edge: the module imported and, for ``from M import name``,
#: the name (``None``: the whole module).
Edge = tuple[str, "str | None"]


class UnreachableModuleRule(Rule):
    code = "REP007"
    name = "unreachable-module"
    summary = ("every package module is imported from a console script, "
               "a __main__ module, benchmarks/ or the schema module")
    explanation = """\
Code that no run path reaches is kept alive by nothing but its own
tests: it costs reading time and refactoring effort, and it silently
drifts from the code that does run.  A module reached only from
`tests/` or `examples/` is such code.

The roots are the `[project.scripts]` targets in `pyproject.toml`,
every scanned `__main__.py` or module with an
`if __name__ == "__main__":` guard, every `.py` file under
`benchmarks/`, and the configured `schema_module`; a scanned file
outside any package is a script and a root too.  The edges are every
`import` and `from ... import` anywhere in a file (lazy imports inside
functions included), and every string constant equal to a scanned
module's dotted `a.b` name (a lazily imported backend table).  `from pkg
import name` follows the package `__init__`'s own binding of `name`,
not everything the `__init__` re-exports.

Fix: delete the module.  A test oracle moves under `tests/`; a module
that should run gets a caller on a run path.
"""

    def check(self, project: Project) -> Iterator[Violation]:
        files = {}      # dotted name -> SourceFile
        names = {}      # resolved path -> dotted name
        roots: list[Edge] = []
        for file in project.files:
            if file.tree is None:
                continue
            name, packaged = _module_name(file.path)
            files[name] = file
            names[file.path] = name
            if (not packaged or file.path.name == "__main__.py"
                    or any(_is_main_guard(node) for node in file.tree.body)):
                roots.append((name, None))
        packages = {name for name, file in files.items()
                    if file.path.name == "__init__.py"}
        edges = {name: _edges(file.tree, name, name in packages, files)
                 for name, file in files.items()}
        bindings = {n: _bindings(files[n].tree, n) for n in packages}

        pyproject = project.root / "pyproject.toml"
        if pyproject.is_file():
            scripts = parse_pyproject(
                pyproject.read_text(encoding="utf-8"), str(pyproject)
            ).get("project", {}).get("scripts", {})
            roots += [(target.partition(":")[0].strip(), None)
                      for target in scripts.values()]
        root_files = sorted((project.root / "benchmarks").rglob("*.py"))
        if project.config.schema_module:
            root_files.append(project.root / project.config.schema_module)
        for path in root_files:
            path = path.resolve()
            if path in names:
                roots.append((names[path], None))
            elif path.is_file():
                roots += _edges(ast.parse(path.read_text(encoding="utf-8")),
                                "", False, files)

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
            reached.update(".".join(parts[:i])
                           for i in range(1, len(parts) + 1))
            if attr is not None and f"{target}.{attr}" in files:
                stack.append((f"{target}.{attr}", None))
            elif attr is not None and attr in bindings.get(target, {}):
                stack.append(bindings[target][attr])
            else:
                stack.extend(edges[target])

        for name, file in sorted(files.items()):
            if name not in reached:
                yield self.violation(
                    file, 1,
                    f"module `{name}` is reachable from no run path (console "
                    f"script, __main__ module, benchmarks/, schema module); "
                    f"delete it, or move a test oracle under tests/")


def _module_name(path: Path) -> tuple[str, bool]:
    """Dotted name of ``path`` from the packages (directories with an
    ``__init__.py``) above it, and whether it is in a package at all."""
    parts = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)), parent != path.parent


def _is_main_guard(node: ast.stmt) -> bool:
    return (isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'")


def _absolute(node: ast.ImportFrom, name: str, is_package: bool) -> str:
    """The module a (possibly relative) ``from ... import`` names."""
    if not node.level:
        return node.module or ""
    package = (name if is_package else name.rpartition(".")[0]).split(".")
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _edges(tree: ast.Module, name: str, is_package: bool,
           known) -> list[Edge]:
    """Every import in ``tree``, at any depth, plus every string
    constant that is a ``known`` module's dotted name (a bare top-level
    name like ``"repro"`` is more often a path component than an
    import, so it needs the dot)."""
    edges: list[Edge] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            edges += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, name, is_package)
            edges += [(module, None if alias.name == "*" else alias.name)
                      for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "." in node.value and node.value in known):
            edges.append((node.value, None))
    return edges


def _bindings(tree: ast.Module, name: str) -> dict[str, Edge]:
    """Name -> import edge for each name a package ``__init__`` binds
    by a top-level import (its re-exports)."""
    bound: dict[str, Edge] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, name, True)
            bound.update((alias.asname or alias.name, (module, alias.name))
                         for alias in node.names if alias.name != "*")
    return bound
