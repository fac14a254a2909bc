import os
import re
import subprocess
import sys
from pathlib import Path

import hbspace

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_radial_norm_sweep_script(tmp_path):
    src = str(Path(hbspace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, str(SCRIPTS / "radial_norm_sweep.py"), str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    names = ["h2", "rank1-half", "cusp", "dirichlet-pair"]
    for name in names:
        lines = (tmp_path / f"norm_sweep_{name}.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == 1.0
    assert (tmp_path / "norm_sweep_gaps.svg").exists()
    gaps = [float(g) for g in re.findall(r"gap=(\S+)", done.stdout)]
    assert len(gaps) == len(names)
    assert max(gaps) <= 1e-12
