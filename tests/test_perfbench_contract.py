"""The benchmark workloads (perfbench/workloads.py) call hbspace with fixed
call shapes: positional (space, phi, f) for the subspace routines and the
``n_grid=`` / ``n_boundary=`` keywords for the builders.  A signature change
that breaks one of them turns benchmark ops into failures, so round 0 of each
in-process workload must run with no failed op.  The D(delta_1) build of the
factor workload, whose defect has degree 39, must pass both of its checks."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads imports ops by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["queries", "sweeps", "factor"])
def test_round_zero_has_no_failed_op(workload, monkeypatch):
    ops = _load("ops", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    built = workloads.WORKLOADS[workload](1)
    recorder = ops.Recorder()
    ops.run_closed_loop(built.make_round, recorder, 1,
                        before_round=getattr(built, "refill", None))
    assert recorder.total_attempted > 0
    assert recorder.total_failed == 0, recorder.reasons


def test_factor_ddelta_passes_its_checks(monkeypatch):
    ops = _load("ops", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    [op] = [op for op in workloads.WORKLOADS["factor"](1).make_round(0)
            if op.name == "factor.ddelta@1024"]
    residual, iso = op.call()
    op.check((residual, iso), ops.Checker())  # defect identity and isometry
    assert residual <= 1e-12
