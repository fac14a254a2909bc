import re
from pathlib import Path

from conftest import run_fresh

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, out_dir) -> str:
    return run_fresh(str(SCRIPTS / name), str(out_dir))


def test_radial_norm_sweep_script(tmp_path):
    stdout = _run_script("radial_norm_sweep.py", tmp_path)
    names = ["h2", "rank1-half", "cusp", "dirichlet-pair"]
    for name in names:
        lines = (tmp_path / f"norm_sweep_{name}.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == 1.0
    assert (tmp_path / "norm_sweep_gaps.svg").exists()
    gaps = [float(g) for g in re.findall(r"gap=(\S+)", stdout)]
    assert len(gaps) == len(names)
    assert max(gaps) <= 1e-12


def test_carleson_densities_script(tmp_path):
    stdout = _run_script("carleson_densities.py", tmp_path)
    verdicts = dict(re.findall(r"^(h2|rank1-half|cusp)\s+admits=(\w+)", stdout, re.M))
    assert verdicts == {"h2": "True", "rank1-half": "True", "cusp": "False"}
    constants = dict(re.findall(r"^(\S+)\s+admits=\w+\s+constant=(\S+)$", stdout, re.M))
    assert float(constants["h2"]) == 1.0
    assert abs(float(constants["rank1-half"]) - 2.0) <= 2e-12
    assert float(constants["cusp"]) == float("inf")
    for name in verdicts:
        lines = (tmp_path / f"carleson_{name}.csv").read_text().splitlines()
        assert lines[1] == "lam,h2,g" and len(lines) == 66
    assert (tmp_path / "carleson_dirichlet_family.csv").exists()
