"""The packaging metadata in pyproject.toml against the package itself.

The tests import the package from src/ and never install it, so nothing
else would notice a console script or a version that has drifted.
"""

import importlib
from pathlib import Path

import pytest

import pathevac
from pathevac.cli import main

tomllib = pytest.importorskip("tomllib")    # Python 3.11 on

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
