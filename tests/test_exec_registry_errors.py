"""Error paths of the execution-backend registry.

Covers the three failure modes a backend name can hit: the name is
unknown, the name maps to a module that fails to import (missing
optional dependency, typo), and the name's module imports cleanly but
never registers the promised backend.  Plus registration conflicts:
claiming an existing name with a different class is rejected, while
re-registering the same class (module reload) stays idempotent.
"""

import sys
import types

import pytest

from repro.errors import ValidationError
from repro.exec import base
from repro.exec.base import (
    ExecutionBackend,
    backend_names,
    create_backend,
    get_backend,
    register_backend,
)


@pytest.fixture
def scratch_registry(monkeypatch):
    """Isolated copies of the registry dicts (tests may mutate freely)."""
    # resolve once first: lazy registration is an import side effect, so
    # it must land in the *real* registry, not a scratch copy
    get_backend("simulator")
    monkeypatch.setattr(base, "_BACKENDS", dict(base._BACKENDS))
    monkeypatch.setattr(base, "_BACKEND_MODULES",
                        dict(base._BACKEND_MODULES))


class TestUnknownBackend:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValidationError,
                           match="unknown execution backend 'presto'"):
            get_backend("presto")
        with pytest.raises(ValidationError, match="simulator"):
            create_backend("presto")

    def test_backend_names_include_lazy_modules(self):
        names = backend_names()
        for name in ("simulator", "lru", "parallel", "minidb"):
            assert name in names


class TestImportFailures:
    def test_missing_module_reports_backend_and_module(
            self, scratch_registry):
        base._BACKEND_MODULES["ghost"] = "repro.exec.does_not_exist"
        with pytest.raises(ValidationError,
                           match="backend 'ghost' could not be loaded"):
            get_backend("ghost")

    def test_module_raising_on_import_is_wrapped(self, scratch_registry,
                                                 monkeypatch):
        name = "repro_test_broken_backend"
        module = types.ModuleType(name)
        base._BACKEND_MODULES["broken"] = name

        # a module whose import dies (e.g. its optional dependency does)
        monkeypatch.setitem(sys.modules, name, module)
        del sys.modules[name]  # force a real import attempt

        with pytest.raises(ValidationError, match="could not be loaded"):
            get_backend("broken")

    def test_module_that_never_registers_is_unknown(self,
                                                    scratch_registry):
        # 'errors' imports fine but registers no backend named 'errors'
        base._BACKEND_MODULES["errors"] = "repro.errors"
        with pytest.raises(ValidationError,
                           match="unknown execution backend 'errors'"):
            get_backend("errors")


class TestRegistrationConflicts:
    def test_nameless_backend_rejected(self):
        class Nameless(ExecutionBackend):
            pass

        with pytest.raises(ValidationError, match="has no name"):
            register_backend(Nameless)

    def test_duplicate_name_different_class_rejected(
            self, scratch_registry):
        simulator_cls = get_backend("simulator")

        class Impostor(simulator_cls):
            name = "simulator"

        with pytest.raises(ValidationError, match="already registered"):
            register_backend(Impostor)
        assert get_backend("simulator") is simulator_cls  # unchanged

    def test_same_class_reregistration_is_idempotent(
            self, scratch_registry):
        simulator_cls = get_backend("simulator")
        assert register_backend(simulator_cls) is simulator_cls
        assert get_backend("simulator") is simulator_cls

    def test_module_reload_reregisters_without_conflict(
            self, scratch_registry):
        """A reload re-runs @register_backend with a *fresh* class object
        for the same name; that must not be treated as a conflict."""
        import importlib

        import repro.exec.simulator as simulator_module

        before = get_backend("simulator")
        importlib.reload(simulator_module)
        after = get_backend("simulator")
        assert after.__qualname__ == before.__qualname__
