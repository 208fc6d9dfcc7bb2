#!/usr/bin/env python3
"""Sample one-operator mutants of a module and count how many tier-1
kills (mutation analysis, DeMillo, Lipton and Sayward, "Hints on Test
Data Selection", IEEE Computer 1978).  Standard library only; not part
of tier-1.

    python tests/mutants.py src/repro/core/madfs.py [more modules]

For each module the script draws ``COUNT`` mutants, seeded by ``SEED``,
from every site where one operator can be flipped:

* arithmetic ``+ - * / // %`` (``a + b`` -> ``a - b`` and back, also
  in ``+=``), unary minus dropped;
* comparisons ``< <= > >= == != in is`` to their neighbour
  (``<`` -> ``<=``, ``==`` -> ``!=``, ``in`` -> ``not in`` ...);
* ``and`` <-> ``or``, ``not`` dropped, ``True`` <-> ``False``.

Each mutant is the module through ``ast.unparse`` with one site
flipped, written into a scratch copy of the repository (``.git`` and
run outputs left out).  First a control runs the unmutated module
through ``ast.unparse``: tier-1 must pass on it, or the run stops, since
a survivor would then say nothing.  Each mutant runs the test files that
name the module first and the rest of tier-1 after them, both with
``-x``; a failure, an error or a run over ``TIMEOUT`` seconds kills
it.  ``JOBS`` mutants run at once.  The report gives killed / total
per module and every survivor as ``file:line:column``, the flip, and
its source line.

Survivors are triaged by hand into a missing test, an equivalent
mutant, or code nothing needs.  Equivalent mutants found so far:

* none yet.
"""

from __future__ import annotations

import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COUNT = 8           # mutants per module
SEED = 7
JOBS = 2            # mutants run at once, each a tier-1 copy
TIMEOUT = 900.0     # seconds per pytest run; a hang counts as killed
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", "out", "matrix_runs")

BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
          ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv}
CMPOPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
          ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
          ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
          ast.IsNot: ast.Is}
BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}


@dataclass(frozen=True)
class Site:
    """One flippable operator: the ``index``-th node of ``ast.walk``."""

    index: int
    line: int
    column: int
    flip: str


def sites(tree: ast.AST) -> list[Site]:
    found = []
    for index, node in enumerate(ast.walk(tree)):
        flip = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and type(node.op) in BINOPS:
            flip = f"{type(node.op).__name__} -> " \
                   f"{BINOPS[type(node.op)].__name__}"
        elif isinstance(node, ast.Compare) and type(node.ops[0]) in CMPOPS:
            flip = f"{type(node.ops[0]).__name__} -> " \
                   f"{CMPOPS[type(node.ops[0])].__name__}"
        elif isinstance(node, ast.BoolOp):
            flip = f"{type(node.op).__name__} -> " \
                   f"{BOOLOPS[type(node.op)].__name__}"
        elif isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, (ast.Not, ast.USub)):
            flip = f"drop {type(node.op).__name__}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, bool):
            flip = f"{node.value} -> {not node.value}"
        if flip is not None:
            found.append(Site(index, node.lineno, node.col_offset, flip))
    return found


class _Flip(ast.NodeTransformer):
    def __init__(self, index: int) -> None:
        self.target = index
        self.nodes: dict[int, int] = {}  # id(node) -> ast.walk index

    def flip(self, tree: ast.AST) -> ast.AST:
        self.nodes = {id(n): i for i, n in enumerate(ast.walk(tree))}
        return ast.fix_missing_locations(self.visit(tree))

    def generic_visit(self, node):
        if self.nodes.get(id(node)) != self.target:
            return super().generic_visit(node)
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            node.op = BINOPS[type(node.op)]()
        elif isinstance(node, ast.Compare):
            node.ops[0] = CMPOPS[type(node.ops[0])]()
        elif isinstance(node, ast.BoolOp):
            node.op = BOOLOPS[type(node.op)]()
        elif isinstance(node, ast.UnaryOp):
            return node.operand
        elif isinstance(node, ast.Constant):
            node.value = not node.value
        return node


def mutant_source(source: str, site: Site | None) -> str:
    tree = ast.parse(source)
    if site is not None:
        tree = _Flip(site.index).flip(tree)
    return ast.unparse(tree) + "\n"


def own_tests(module: str) -> list[str]:
    """Test files that name the module, as a dotted path or ``from``
    import, or are called after it."""
    dotted = module.removeprefix("src/").removesuffix(".py") \
        .replace("/", ".")
    package, _, stem = dotted.rpartition(".")
    pattern = re.compile(rf"{re.escape(dotted)}\b|from {re.escape(package)}"
                         rf" import [^\n]*\b{stem}\b")
    names = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.stem == f"test_{stem}" or pattern.search(path.read_text()):
            names.append(f"tests/{path.name}")
    return names


def run_tier1(copy: Path, first: list[str]) -> bool:
    """True when tier-1 passes in ``copy``: ``first``, then the rest."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    base = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
            "no:cacheprovider"]
    runs = [base + first] if first else []
    runs.append(base + [f"--ignore={name}" for name in first])
    for command in runs:
        try:
            done = subprocess.run(command, cwd=copy, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return False
        if done.returncode != 0:
            return False
    return True


def check(module: str, site: Site | None, first: list[str]) -> bool:
    """Run tier-1 on a scratch copy whose ``module`` is the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        source = (ROOT / module).read_text()
        (copy / module).write_text(mutant_source(source, site))
        return run_tier1(copy, first)


def main(modules: list[str]) -> int:
    if not modules:
        print("usage: python tests/mutants.py MODULE [MODULE ...]",
              file=sys.stderr)
        return 2
    status = 0
    for module in modules:
        source = (ROOT / module).read_text()
        lines = source.splitlines()
        every = sites(ast.parse(source))
        sample = sorted(random.Random(SEED).sample(
            every, min(COUNT, len(every))), key=lambda s: s.index)
        first = own_tests(module)
        print(f"{module}: {len(every)} sites, sampling {len(sample)}; "
              f"first {' '.join(first) or '(none)'}", flush=True)
        if not check(module, None, first):
            print(f"{module}: control (ast.unparse, unmutated) fails "
                  f"tier-1; no mutant run", flush=True)
            status = 2
            continue
        with ThreadPoolExecutor(JOBS) as pool:
            survived = list(pool.map(
                lambda s: check(module, s, first), sample))
        killed = survived.count(False)
        print(f"{module}: killed {killed}/{len(sample)}", flush=True)
        for site, alive in zip(sample, survived):
            if alive:
                print(f"  survivor {module}:{site.line}:{site.column} "
                      f"{site.flip}: "
                      f"{lines[site.line - 1].strip()}", flush=True)
                status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
