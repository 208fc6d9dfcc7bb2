"""REP003 — ledger underscore state only mutates under ``self._lock``."""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Project, SourceFile, Violation, dotted_name
from .base import Rule

#: The contract comment a locked helper carries on its ``def`` line.
CONTRACT_MARK = "lint: locked"

#: Method calls that mutate a container in place (``mark`` /
#: ``mark_all`` / ``discard`` are also the write side of the ledger's
#: ``VictimIndex``, which relies on the ledger lock for its safety).
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "mark", "mark_all", "move_to_end", "pop", "popleft",
    "popitem", "remove", "rotate", "setdefault", "sort", "update",
})

#: Dunder methods that run outside the public locking surface.
EXEMPT_METHODS = frozenset({"__init__", "__new__", "__init_subclass__"})


class _ClassInfo:
    def __init__(self, node: ast.ClassDef, file: SourceFile):
        self.node = node
        self.file = file
        self.bases = [b for b in (_base_name(base) for base in node.bases)
                      if b is not None]
        self.methods: dict[str, ast.FunctionDef] = {
            item.name: item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        self.locked_methods = {
            name for name, method in self.methods.items()
            if _has_contract(file, method)}


def _base_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_contract(file: SourceFile, method: ast.FunctionDef) -> bool:
    first = method.lineno
    last = max(first, method.body[0].lineno - 1)
    return file.comment_in_range(first, last, CONTRACT_MARK)


class LockDisciplineRule(Rule):
    code = "REP003"
    name = "ledger-lock-discipline"
    summary = ("ledger underscore state written only inside `with "
               "self._lock:` or `# lint: locked` helpers")
    explanation = """\
`MemoryLedger`, `TieredLedger`, and their subclasses share mutable
accounting state (`_entries`, `_usage`, `_reserved`, tier routing…)
across scheduler worker threads; every invariant the fuzz harness
checks at runtime assumes those fields only change under `self._lock`.
This rule is the static half of that contract:

* any write to `self._<attr>` (assignment, augmented assignment,
  `del`, or an in-place mutator call like `.append`/`.update`) inside
  a ledger class must be lexically inside a `with self._lock:` block;
* a private helper may instead declare `# lint: locked` on its `def`
  line, promising "my callers hold the lock" — and the checker then
  verifies every `self._helper()` / `super()._helper()` call site is
  itself inside a locked scope or another `# lint: locked` helper.

`__init__` is exempt (no concurrent access before construction
completes).

Fix: wrap the write in `with self._lock:`, or mark the helper
`# lint: locked` and fix any unlocked call site the checker reports.
See docs/ARCHITECTURE.md, "The MemoryLedger release protocol".
"""

    def check(self, project: Project) -> Iterator[Violation]:
        index: dict[str, _ClassInfo] = {}
        for file in project.files:
            if file.tree is None:
                continue
            for node in ast.walk(file.tree):
                if isinstance(node, ast.ClassDef):
                    index[node.name] = _ClassInfo(node, file)

        targets = set(project.config.lock_classes)
        changed = True
        while changed:
            changed = False
            for name, info in index.items():
                if name not in targets and any(b in targets
                                               for b in info.bases):
                    targets.add(name)
                    changed = True

        lock_attr = project.config.lock_attr
        for name in sorted(targets):
            info = index.get(name)
            if info is None:
                continue
            yield from self._check_class(info, index, lock_attr)

    def _check_class(self, info: _ClassInfo, index: dict[str, _ClassInfo],
                     lock_attr: str) -> Iterator[Violation]:
        hierarchy_locked = _hierarchy_locked(info, index)
        for method_name, method in info.methods.items():
            if method_name in EXEMPT_METHODS:
                continue
            contracted = method_name in info.locked_methods
            for node in ast.walk(method):
                for attr, where in _underscore_writes(node, lock_attr):
                    if contracted or _in_locked_scope(
                            info.file, where, method, lock_attr):
                        continue
                    yield self.violation(
                        info.file, where.lineno,
                        f"`self.{attr}` written outside `with self."
                        f"{lock_attr}:` in {info.node.name}."
                        f"{method_name}; wrap the write or declare the "
                        f"helper `# {CONTRACT_MARK}`")
                helper = _locked_helper_call(node, hierarchy_locked)
                if helper is not None and not contracted:
                    if not _in_locked_scope(info.file, node, method,
                                            lock_attr):
                        yield self.violation(
                            info.file, node.lineno,
                            f"call to locked helper `{helper}()` from "
                            f"{info.node.name}.{method_name} outside a "
                            f"locked scope; acquire `self.{lock_attr}` "
                            f"first or mark the caller `# "
                            f"{CONTRACT_MARK}`")


def _hierarchy_locked(info: _ClassInfo,
                      index: dict[str, _ClassInfo]) -> frozenset[str]:
    """Contract-method names of the class and its (named) ancestors."""
    seen: set[str] = set()
    locked: set[str] = set()
    stack = [info]
    while stack:
        current = stack.pop()
        if current.node.name in seen:
            continue
        seen.add(current.node.name)
        locked |= current.locked_methods
        for base in current.bases:
            if base in index:
                stack.append(index[base])
    return frozenset(locked)


def _underscore_writes(node: ast.AST,
                       lock_attr: str) -> Iterator[tuple[str, ast.AST]]:
    """(attribute name, node) for each write to ``self._x`` performed
    directly by ``node`` (not its children — the caller walks)."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if isinstance(node, ast.AnnAssign) and node.value is None:
            return
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            attr = _self_underscore_attr(func.value, lock_attr)
            if attr is not None:
                yield attr, node
        return
    else:
        return
    flat: list[ast.expr] = []
    stack = targets
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            flat.append(target)
    for target in flat:
        attr = _self_underscore_attr(target, lock_attr)
        if attr is not None:
            yield attr, node


def _self_underscore_attr(node: ast.expr, lock_attr: str) -> str | None:
    """``_attr`` when ``node`` is ``self._attr`` (possibly behind
    subscripts: ``self._attr[k]``), excluding the lock itself."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and node.attr != lock_attr):
        return node.attr
    return None


def _locked_helper_call(node: ast.AST,
                        locked_names: frozenset[str]) -> str | None:
    """Helper name when ``node`` calls ``self._helper()`` or
    ``super()._helper()`` for a ``# lint: locked`` helper."""
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in locked_names):
        return None
    receiver = node.func.value
    if isinstance(receiver, ast.Name) and receiver.id == "self":
        return node.func.attr
    if (isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"):
        return node.func.attr
    return None


def _in_locked_scope(file: SourceFile, node: ast.AST,
                     method: ast.FunctionDef, lock_attr: str) -> bool:
    """Lexically inside ``with self._lock:`` within ``method``?

    Stops at nested function boundaries: a closure's body runs later,
    so a ``with`` wrapping its *definition* proves nothing.
    """
    parents = file.parents()
    current = parents.get(node)
    while current is not None and current is not method:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            return False
        if isinstance(current, ast.With):
            for item in current.items:
                if dotted_name(item.context_expr) == f"self.{lock_attr}":
                    return True
        current = parents.get(current)
    return False
