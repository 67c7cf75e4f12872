"""README's ``## Library`` example runs as written, in a fresh interpreter
with ``src`` on the path, and every ``autmap`` line of its ``sh`` blocks is
valid shell that the CLI's parser accepts."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from autmap import cli

ROOT = Path(__file__).resolve().parents[1]


def _library_block() -> str:
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_readme_library_example_runs():
    block = _library_block()
    assert "from autmap import" in block
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", block],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def _cli_lines() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [line for line in lines if line.startswith("autmap ")]


def test_readme_has_cli_examples():
    assert len(_cli_lines()) >= 8


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_example_is_valid(line):
    run = subprocess.run(["bash", "-n", "-c", line], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    cli.build_arg_parser().parse_args(shlex.split(line)[1:])
