"""REP007 on the project's own tree.

Two promises of the unreachable-module rule, checked on what it reads
(``src/repro``, ``benchmarks/`` and ``pyproject.toml``), as parsed once
per pytest run by ``tests/test_analysis.py``:

* its root set reaches every module in ``src/repro``, one test per
  module, so a failure names the module;
* putting back any module that was deleted because only tests and
  examples imported it makes the rule fire again, even when a package
  ``__init__`` re-exports it as it used to.
"""

from __future__ import annotations

import pytest

from tests.test_analysis import parse, rep007, repo_inputs

PACKAGE, BENCHMARKS, SCRIPTS = repo_inputs()
MODULES = [src.rel for src in PACKAGE]

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
    "store/report_schema": ({"store/report_schema.py": BODY}, {}),
    # the lint package without its `__main__` (a `python -m` run path of
    # its own) and without the console script that named its CLI
    "analysis": (
        {"analysis/__init__.py": "from .engine import restored\n",
         "analysis/engine.py": BODY,
         "analysis/cli.py": BODY + "from .rules import restored\n",
         "analysis/rules/__init__.py": "from .reachability import restored\n",
         "analysis/rules/reachability.py": BODY},
        {}),
}


def unreachable(package) -> list[str]:
    return [v.rel for v in rep007(package, BENCHMARKS, SCRIPTS)]


@pytest.fixture(scope="module")
def flagged():
    return set(unreachable(PACKAGE))


@pytest.mark.parametrize("module", MODULES)
def test_root_set_reaches(module, flagged):
    assert module not in flagged


@pytest.mark.parametrize("reexported", [False, True],
                         ids=["bare", "reexported"])
@pytest.mark.parametrize("name", sorted(RESTORED))
def test_restoring_a_deleted_module_fires(name, reexported):
    added, reexports = RESTORED[name]
    changed = {f"src/repro/{rel}": line
               for rel, line in reexports.items() if reexported}
    package = [parse(src.rel, src.text + changed[src.rel])
               if src.rel in changed else src for src in PACKAGE]
    package += [parse(f"src/repro/{rel}", text)
                for rel, text in added.items()]
    assert unreachable(package) == sorted(
        f"src/repro/{rel}" for rel in added)
