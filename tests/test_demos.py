"""Every demo, and the README's library quickstart, runs to completion as a script.

Demo 04 is left out: its 25-second training run is already covered by
``test_acceptance.py::test_08_learning_smoke``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_rotation_sampling.py", "02_canonical_alignment.py", "03_encoder_invariance.py",
         "05_atom_importance.py")


def _run(args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    result = _run([str(ROOT / "demos" / name)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_quickstart_exits_0(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    result = _run(["-c", blocks[0]], tmp_path)
    assert result.returncode == 0, result.stderr
