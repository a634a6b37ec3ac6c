"""The packaging metadata in pyproject.toml, and `__all__`, against the
package itself, and the test-only references against the tests.

The tests import the package from src/ and never install it, so nothing
else would notice a console script, a version or an `__all__` that has
drifted, or a reference left behind by the differential that read it.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import pathevac
from pathevac.cli import main

try:
    import tomllib                  # Python 3.11 on
except ModuleNotFoundError:
    tomllib = pytest.importorskip("tomli")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = Path(pathevac.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def project() -> dict:
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_console_script_resolves_to_cli_main(project):
    module, _, attr = project["scripts"]["pathevac"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_project_version_is_the_package_version(project):
    assert project["version"] == pathevac.__version__


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(pathevac).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(set(pathevac.__all__)) == len(pathevac.__all__)
    assert set(pathevac.__all__) == bound | {"__version__"}


# exported names that nothing in the package reads, each kept for a reason
# outside it
UNREAD_EXPORTS = {
    # read only by the benchmark's *validate* op, until that op walks
    # through `check_schedule` as `pathevac validate` does (ROADMAP item 1)
    "simulate": "perfbench validate op",
    "validate_schedule": "perfbench validate op",
}


def test_every_export_is_read_in_the_package():
    # a name is read where it appears as a name or an attribute in a
    # module other than `__init__.py`; an import or a definition is no read
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = set(pathevac.__all__) - {"__version__"}
    assert sorted(exported - read - UNREAD_EXPORTS.keys()) == []
    # an exemption lapses once its name is exported and read
    assert sorted(UNREAD_EXPORTS.keys() - (exported - read)) == []


def _imported_modules(path: Path) -> set[str]:
    """The absolute module names that `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


def test_every_reference_is_imported_by_another_test_module():
    # a deleted differential takes its reference with it
    refs = {path.stem for path in TESTS.glob("ref_*.py")}
    assert refs
    for path in TESTS.glob("*.py"):
        refs -= _imported_modules(path) - {path.stem}
    assert sorted(refs) == []
