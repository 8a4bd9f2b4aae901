"""The package metadata ``pip install -e .`` reads is well formed."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_project_declares_its_dependencies_and_string_scripts():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    names = {re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]}
    assert {"numpy", "scipy"} <= names
    assert project["scripts"]
    assert all(isinstance(target, str) for target in project["scripts"].values())
