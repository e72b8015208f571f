"""The quick narrative demos run to completion.  Demos 04 and 05 take about
14 s each and are left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowlab

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_flows_and_oracles.py",
                                  "02_derivative_flow_stability.py",
                                  "03_curvature_forms.py",
                                  "06_semigroup_gradient.py"])
def test_demo_exits_cleanly(name, tmp_path):
    # resolve flowlab by absolute path, whatever directory pytest starts in
    env = dict(os.environ)
    env.pop("FLOWLAB_SEED", None)
    src = str(Path(flowlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
