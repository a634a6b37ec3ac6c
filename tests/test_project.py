"""The packaging metadata in pyproject.toml, and `__all__`, against the
package itself.

The tests import the package from src/ and never install it, so nothing
else would notice a console script, a version or an `__all__` that has
drifted.
"""

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
