"""Fixtures shared by the test modules."""

import json
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that imports this checkout's
    package whatever its working directory.

    The absolute ``src`` goes in front of any inherited ``PYTHONPATH``: a
    relative entry such as ``PYTHONPATH=src`` stops resolving once the
    child runs elsewhere, and ``PYTHONPATH`` precedes site-packages, so an
    installed copy of the package is not picked up instead.  No empty
    entry is added when ``PYTHONPATH`` is unset, since an empty entry
    would put the child's working directory on its path.
    """
    path = str(SRC)
    inherited = os.environ.get("PYTHONPATH")
    if inherited:
        path += os.pathsep + inherited
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory):
    """Every shipped config run once through the command line runner, by
    config name: its output directory and its summary.json."""
    from adiascat.cli import main

    root = tmp_path_factory.mktemp("shipped")
    runs = {}
    for path in sorted(CONFIGS.glob("*.ini")):
        out = root / path.stem
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        runs[path.stem] = out, json.loads((out / "summary.json").read_text())
    return runs
