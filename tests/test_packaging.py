"""The package metadata in ``pyproject.toml`` points at code that exists."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def test_every_console_script_imports():
    """Each ``[project.scripts]`` target names a callable in an importable module."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for script, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), script
