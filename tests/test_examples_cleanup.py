"""The examples that make a scratch directory remove it when they end.

Each run of ``examples/tuning_cycle.py`` (a whole experiment store) and
``examples/foreign_history.py`` (a trace file) works in a temporary
directory; a run that returns, and one that fails part way, leaves
nothing behind in the temporary-files directory.
"""

import importlib.util
import tempfile
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _example(name: str):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tmpdir_is(tmp_path, monkeypatch):
    """Point the temporary-files directory at an empty *tmp_path*."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    assert tempfile.gettempdir() == str(scratch)
    return scratch


@pytest.mark.parametrize("name", ["tuning_cycle", "foreign_history"])
def test_a_finished_run_leaves_nothing(tmpdir_is, name, capsys):
    _example(name).main()
    assert "directed" in capsys.readouterr().out
    assert list(tmpdir_is.iterdir()) == []


@pytest.mark.parametrize("name", ["tuning_cycle", "foreign_history"])
def test_a_failed_run_leaves_nothing(tmpdir_is, monkeypatch, name):
    module = _example(name)
    made = []

    def fail(*_args, **_kwargs):
        made.extend(tmpdir_is.iterdir())
        raise RuntimeError("injected failure")

    monkeypatch.setattr(module, "run_diagnosis", fail)
    with pytest.raises(RuntimeError, match="injected failure"):
        module.main()
    assert made, "the example failed before it made its directory"
    assert list(tmpdir_is.iterdir()) == []
