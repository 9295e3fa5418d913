"""Every demo script, and every ``python`` code block of README.md, runs to
completion in a fresh interpreter from a clean working directory.

``05_supervision_effect.py`` is left out: it takes about 10 s, and
criterion 9 of the acceptance suite already runs the same comparison.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p for p in (ROOT / "demos").glob("*.py")
               if p.name != "05_supervision_effect.py")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def run_python(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_script_exits_cleanly(script, tmp_path):
    result = run_python([str(script)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_cleanly(block, tmp_path):
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
