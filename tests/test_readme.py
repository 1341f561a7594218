"""The README's library example and CLI config run as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from maxsat import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# ldpc8's Maxwell threshold, 40-digit reference in test_reference.py
EX8_MAXWELL = 0.62192946106121


def code_block(lang: str) -> str:
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, re.S)
    assert len(blocks) == 1, lang
    return blocks[0]


def test_python_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("python"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    ec, maxwell = map(float, lines[1].split())
    assert ec == pytest.approx(EX8_MAXWELL, abs=1e-8)
    assert maxwell == pytest.approx(EX8_MAXWELL, abs=1e-8)
    assert float(lines[2].split()[0]) <= 1e-10


def test_json_config_coupled_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(code_block("json"))
    out = tmp_path / "run.csv"
    assert cli.main(["coupled-run", "--config", str(config), "--out", str(out)]) == 0
    assert "converged=true" in out.read_text()
