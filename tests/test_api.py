"""The public names of every module resolve, and the package root
re-exports only names its modules declare public, so removing a name
cannot leave a stale export behind."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kcsched

MODULES = sorted(m.name for m in pkgutil.iter_modules(kcsched.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"kcsched.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"kcsched.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"kcsched.{name}.__all__ names undefined {missing}"


def test_package_imports_only_public_names():
    tree = ast.parse(Path(kcsched.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package root imports only its own modules"
        module = importlib.import_module(f"kcsched.{node.module}")
        public = getattr(module, "__all__", None)
        assert public is not None, f"kcsched.{node.module} has no __all__"
        for alias in node.names:
            assert alias.name in public, f"{alias.name} is not in kcsched.{node.module}.__all__"
            assert hasattr(kcsched, alias.asname or alias.name)
