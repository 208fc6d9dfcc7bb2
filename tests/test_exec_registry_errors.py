"""Error paths of the execution-backend table: an unknown name is
rejected with the choices listed, and every backend in the table
resolves."""

import pytest

from repro.errors import ValidationError
from repro.exec.base import backend_names, create_backend


class TestUnknownBackend:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValidationError,
                           match="unknown execution backend 'presto'"):
            create_backend("presto")
        with pytest.raises(ValidationError, match="simulator"):
            create_backend("presto")

    def test_backend_names_include_lazy_modules(self):
        names = backend_names()
        for name in ("simulator", "lru", "parallel", "minidb"):
            assert name in names

    def test_every_name_builds_its_backend(self):
        for name in backend_names():
            assert create_backend(name).name == name
