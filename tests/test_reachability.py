"""REP007 on the project's own tree.

Two promises of the unreachable-module rule, checked against a copy of
what it reads (``src/repro``, ``benchmarks/`` and ``pyproject.toml``)
and with no baseline in between:

* its root set reaches every module in ``src/repro``, one test per
  module, so a failure names the module;
* putting back any module that was deleted because only tests and
  examples imported it makes the rule fire again, even when a package
  ``__init__`` re-exports it as it used to.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.engine import Project, SourceFile
from repro.analysis.rules.reachability import UnreachableModuleRule

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
MODULES = sorted(path.relative_to(REPO_ROOT).as_posix()
                 for path in SRC.rglob("*.py")
                 if "__pycache__" not in path.parts)

BODY = ("from repro.graph.dag import DependencyGraph\n\n\n"
        "def restored(graph: DependencyGraph) -> int:\n"
        "    return graph.n\n")

#: Each module deleted as test-only, or moved under tests/ as an
#: oracle: (files to put back under src/repro, the re-export lines its
#: package ``__init__`` files used to carry).
RESTORED = {
    "ivm": ({f"ivm/{name}.py": BODY for name in
             ("delta", "estimate", "pipeline", "rules", "view")}
            | {"ivm/__init__.py": "from repro.ivm.view import restored\n"},
            {}),
    "etl": ({"etl/__init__.py": "from repro.etl.planner import restored\n",
             "etl/planner.py": BODY + "from repro.etl.spec import restored\n",
             "etl/spec.py": BODY},
            {}),
    "solver/dp": ({"solver/dp.py": BODY}, {}),
    "solver/lagrangian": ({"solver/lagrangian.py": BODY}, {}),
    "solver/greedy": (
        {"solver/greedy.py": BODY},
        {"solver/__init__.py": "from repro.solver.greedy import restored\n"}),
    "solver/brute": (
        {"solver/brute.py": BODY},
        {"solver/__init__.py": "from repro.solver.brute import restored\n"}),
    "solver/exact_order": ({"solver/exact_order.py": BODY}, {}),
    "exec/lockorder": ({"exec/lockorder.py": BODY}, {}),
    "metadata/metadata": (
        {"metadata/metadata.py": BODY},
        {"metadata/__init__.py":
             "from repro.metadata.metadata import restored\n",
         "__init__.py": "from repro.metadata import restored\n"}),
    "metadata/store": (
        {"metadata/store.py": BODY},
        {"metadata/__init__.py":
             "from repro.metadata.store import restored\n"}),
    "graph/stats": (
        {"graph/stats.py": BODY},
        {"graph/__init__.py": "from repro.graph.stats import restored\n"}),
}


def _copy(root: Path) -> None:
    """The files REP007 reads, under ``root``."""
    for path in [*SRC.rglob("*.py"), *(REPO_ROOT / "benchmarks").rglob("*.py"),
                 REPO_ROOT / "pyproject.toml"]:
        if "__pycache__" in path.parts:
            continue
        target = root / path.relative_to(REPO_ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)


def _source(root: Path, path: Path, text: str) -> SourceFile:
    return SourceFile(path, path.relative_to(root).as_posix(), text)


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """(root, parsed src/repro files) of a copy of the tree."""
    root = tmp_path_factory.mktemp("tree")
    _copy(root)
    files = [_source(root, path, path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "repro").rglob("*.py"))]
    return root, files


def unreachable(root: Path, files: list[SourceFile]) -> list[str]:
    project = Project(root, files, load_config(root))
    return [v.path for v in UnreachableModuleRule().check(project)]


@pytest.fixture(scope="module")
def flagged(tree):
    return set(unreachable(*tree))


@pytest.mark.parametrize("module", MODULES)
def test_root_set_reaches(module, flagged):
    assert module not in flagged


@pytest.mark.parametrize("reexported", [False, True],
                         ids=["bare", "reexported"])
@pytest.mark.parametrize("name", sorted(RESTORED))
def test_restoring_a_deleted_module_fires(name, reexported, tree):
    root, files = tree
    added, reexports = RESTORED[name]
    package = root / "src" / "repro"
    written = []
    try:
        for rel, text in sorted(added.items()):
            path = package / rel
            if not path.parent.exists():
                path.parent.mkdir()
                written.append(path.parent)
            path.write_text(text, encoding="utf-8")
            written.append(path)
        changed = {package / rel: line
                   for rel, line in reexports.items() if reexported}
        project_files = [
            _source(root, file.path, file.source + changed[file.path])
            if file.path in changed else file
            for file in files]
        project_files += [_source(root, package / rel, text)
                          for rel, text in added.items()]
        assert unreachable(root, project_files) == sorted(
            f"src/repro/{rel}" for rel in added)
    finally:
        for path in reversed(written):
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
