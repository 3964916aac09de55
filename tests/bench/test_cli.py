"""Tests for regenerating the paper's figures from the command line,
``python -m repro.exec run <figure>``."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]

PAPER_FIGURES = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11")


def test_cli_rejects_unknown_figure(capsys):
    """An unknown figure exits 2 and the message names every figure
    that can be run."""
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "fig99"])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'fig99'" in err
    for figure in PAPER_FIGURES:
        assert f"'{figure}'" in err


def test_cli_subprocess_entry(tmp_path):
    """``python -m repro.exec run fig6`` prints the figure's table and
    leaves nothing in its working directory."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.exec", "run", "fig6",
         "--iterations", "2", "--no-cache"],
        capture_output=True, text=True, timeout=240, cwd=tmp_path,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr[-1000:]
    assert "Fig. 6 - put bandwidth vs packet size" in proc.stdout
    assert list(tmp_path.iterdir()) == []
