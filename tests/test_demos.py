"""Every demo runs to completion as a script.

Demo 04 is left out: its 25-second training run is already covered by
``test_acceptance.py::test_08_learning_smoke``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_rotation_sampling.py", "02_canonical_alignment.py", "03_encoder_invariance.py",
         "05_atom_importance.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(name, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
