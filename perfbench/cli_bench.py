"""The ``cli`` workload: cold processes, one at a time.

One pass runs the README command table at its defaults (``--json`` added to
every command so its fields can be checked, ``--out`` pointed at a temporary
directory inside the checkout where the table uses it), then the plain
``suite`` and ``suite --quick`` and the three ``scripts/``.  Untraced
children run the real entry point (``python -m hbspace.cli``); traced
children run ``launch.py``, which installs the tracer and calls
``hbspace.cli.main(argv)`` or runs the script.
"""

import json
import os
import re
import subprocess
import sys
import time

import numpy as np

from ops import Op
from workloads import dirichlet_gram

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT = 120


def _json_tail(stdout: str) -> dict:
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("{"):
            return json.loads("\n".join(lines[i:]))
    raise ValueError("no JSON object in the output")


def _suite_json(out, ck):
    report = _json_tail(out)
    ck.expect("suite passed", report["passed"], True)
    ck.expect("criteria reported", len(report["results"]), 12)


def _suite_text(out, ck):
    ck.expect("criteria line", bool(re.search(r"\(12/12 criteria passed\)", out)), True)


def _kernel(out, ck):
    value = complex(_json_tail(out)["rows"][0][2])
    ck.oracle("k(0.5, 0.5) on rank1-half", value, 7.0 / 6.0, 1e-12)


def _norm_z(out, ck):
    report = _json_tail(out)
    if "member" in report:
        ck.expect("membership verdict", report["member"], True)
    ck.oracle("||z||^2", report["norm"] ** 2, 2.0, 1e-10)


def _norm_formula(out, ck):
    report = _json_tail(out)
    ck.oracle("direct ||z||^2", report["direct"], 2.0, 1e-10)
    ck.certify("radial estimate gap", report["relative_gap"], 1e-2)


def _carleson(out, ck):
    report = _json_tail(out)
    ck.expect("admits", report["admits"], True)
    ck.oracle("h2 radius", report["radius_h2"], 1.0 - 2.0 ** -16, 1e-15)


def _mz(out, ck):
    ck.expect("invariant", _json_tail(out)["invariant"], True)


def _poly_density(out, ck):
    res = np.asarray(_json_tail(out)["residuals"])
    ck.certify("largest residual increase", float(np.max(np.diff(res))), 0.0)
    ck.certify("residual at degree 24", float(res[-1]), 1e-3)


def _factor(out, ck):
    ck.certify("factor residual", _json_tail(out)["residual"], 1e-8)


def _rank(out, ck):
    ck.expect("defect rank", _json_tail(out)["rank"], 2)


def _dual(out, ck):
    ck.oracle("dual weights", _json_tail(out)["dual_weights"], [1.0, 2.0, 3.0], 1e-12)


def _verify(out, ck):
    ck.expect("verify passed", _json_tail(out)["passed"], True)


def _radial_sweep(out, ck):
    exact = {"h2": 1.3125, "rank1-half": 2.625}
    c = np.array([0.0, 1.0, 0.5, -0.25j])
    g = dirichlet_gram([(0.5, 1.0), (-0.5, 1.0)], 3)
    exact["dirichlet-pair"] = float(np.real(np.vdot(c, g @ c)))
    rows = dict((m.group(1), (float(m.group(2)), float(m.group(3))))
                for m in re.finditer(r"^(\S+)\s+direct=(\S+) final=\S+ gap=(\S+)$", out, re.M))
    ck.expect("spaces swept", sorted(rows), ["cusp", "dirichlet-pair", "h2", "rank1-half"])
    for name, value in exact.items():
        ck.certify(f"{name} direct norm^2 (8 printed decimals)",
                   abs(rows[name][0] - value) / value, 1e-8)
    ck.certify("largest radial gap", max(gap for _, gap in rows.values()), 1e-2)


def _carleson_densities(out, ck):
    verdicts = dict(re.findall(r"^(h2|rank1-half|cusp)\s+admits=(\w+)", out, re.M))
    ck.expect("verdicts", verdicts, {"h2": "True", "rank1-half": "True", "cusp": "False"})


def _rank_scan(out, ck):
    pairs = re.findall(r"^(dirichlet atoms|weighted jumps)=(\d+): rank=(\d+)$", out, re.M)
    ck.expect("rows", len(pairs), 8)
    for family, param, rank in pairs:
        ck.expect(f"{family}={param} rank", int(rank), int(param))


def commands(out_dir):
    """(label, argv or script, check); argv follows ``hbspace``."""
    o = out_dir
    return [
        ("suite-json", ["suite", "--json"], _suite_json),
        ("suite-quick-json", ["suite", "--quick", "--json"], _suite_json),
        ("kernel", ["kernel", "--named", "rank1-half", "--pairs", "0.5:0.5", "--json"], _kernel),
        ("norm-rank1-half", ["norm", "--named", "rank1-half", "--coeffs", "0,1", "--json"],
         _norm_z),
        ("embed-cusp", ["embed", "--named", "cusp", "--coeffs", "0,1", "--out", o, "--json"],
         _norm_z),
        ("norm-formula", ["norm-formula", "--named", "rank1-half", "--coeffs", "0,1",
                          "--out", o, "--json"], _norm_formula),
        ("carleson", ["carleson", "--named", "rank1-half", "--out", o, "--json"], _carleson),
        ("mz-test", ["mz-test", "--named", "cusp", "--json"], _mz),
        ("poly-density", ["poly-density", "--named", "rank1-half", "--kernel-at", "0.5",
                          "--out", o, "--json"], _poly_density),
        ("factor-cusp", ["factor", "--named", "cusp", "--json"], _factor),
        ("rank", ["rank", "--named", "dirichlet-pair", "--json"], _rank),
        ("dual", ["dual", "--weights", "1,0.5,0.3333333333333333", "--json"], _dual),
        ("verify", ["verify", "--named", "rank1-half", "--json"], _verify),
        ("suite", ["suite"], _suite_text),
        ("suite-quick", ["suite", "--quick"], _suite_text),
        ("script-radial-norm-sweep", "scripts/radial_norm_sweep.py", _radial_sweep),
        ("script-carleson-densities", "scripts/carleson_densities.py", _carleson_densities),
        ("script-rank-scan", "scripts/rank_scan.py", _rank_scan),
    ]


class CliPass:
    """Builds the ops of one pass; each op is one child process."""

    def __init__(self, root, env, out_dir, trace_dir=None):
        self.root = root
        self.env = env
        self.out_dir = out_dir
        self.trace_dir = trace_dir
        self.children = []  # (label, wall_s, launcher report or None)

    def argv(self, label, target):
        """The child's argv and, when traced, the launcher's report path."""
        if self.trace_dir is None:
            if isinstance(target, str):
                return [sys.executable, target, self.out_dir], None
            return [sys.executable, "-m", "hbspace.cli", *target], None
        report = os.path.join(self.trace_dir, f"{len(self.children)}-{label}.json")
        launch = [sys.executable, os.path.join(HERE, "launch.py"), "--report", report]
        if isinstance(target, str):
            return launch + ["--script", target, "--", self.out_dir], report
        return launch + ["--", *target], report

    def ops(self):
        out = []
        for label, target, check in commands(self.out_dir):
            out.append(Op(f"cli.{label}", self._call(label, target), self._check(check)))
        return out

    def _call(self, label, target):
        def call():
            argv, report = self.argv(label, target)
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT)
            wall = time.perf_counter() - start
            data = None
            if report is not None and os.path.exists(report):
                with open(report, encoding="utf-8") as fh:
                    data = json.load(fh)
                os.remove(report)
            self.children.append((label, wall, data))
            return proc
        return call

    @staticmethod
    def _check(check):
        def run(proc, ck):
            ck.expect("exit code", proc.returncode, 0)
            check(proc.stdout, ck)
        return run


def cold_imports(root, env, count):
    """Wall times of ``count`` cold ``python -c 'import hbspace'`` processes."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hbspace"], cwd=root, env=env,
                       check=True, timeout=CHILD_TIMEOUT)
        times.append(time.perf_counter() - start)
    return times


def launcher_totals(children):
    """cli.import_s and cli.process_s summed over the traced children."""
    import_s = sum(d["import_s"] for _, _, d in children if d)
    process_s = sum(wall - d["main_s"] for _, wall, d in children if d)
    return import_s, process_s
