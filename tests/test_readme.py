"""README's ``## Library`` example runs as written, in a fresh interpreter
with ``src`` on the path."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
