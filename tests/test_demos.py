"""Every demo script runs to completion from a clean working directory.

``05_supervision_effect.py`` is left out: it takes about 10 s, and
criterion 9 of the acceptance suite already runs the same comparison.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p for p in (ROOT / "demos").glob("*.py")
               if p.name != "05_supervision_effect.py")


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_script_exits_cleanly(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
