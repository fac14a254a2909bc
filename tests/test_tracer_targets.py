"""The benchmark tracer (perfbench/tracer.py) patches hbspace callables by
name; a renamed or deleted target makes a traced benchmark run crash, so
every target must still resolve the way the tracer looks it up."""

import importlib
import importlib.util
from pathlib import Path

from hbspace.catalog import h2_symbol, inner_symbol, rank1_half_symbol
from hbspace.model import SpaceHandle

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _tracer_module()
    for name in tracer.MODULES:
        importlib.import_module(name)
    missing = []
    for _, module_name, attrs in tracer.TARGETS:
        module = importlib.import_module(module_name)
        for dotted in attrs:
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                owner = getattr(module, cls_name, None)
                found = owner is not None and attr in owner.__dict__
            else:
                found = callable(getattr(module, dotted, None))
            if not found:
                missing.append(f"{module_name}.{dotted}")
    assert not missing, f"tracer targets missing from hbspace: {missing}"


def test_embed_route_reads_every_handle_kind():
    # the traced run labels each embed by the handle's n and mode
    tracer = _tracer_module()
    for symbol, mode in ((h2_symbol(), "analytic"), (inner_symbol(1024), "inner"),
                         (rank1_half_symbol(1024), "analytic")):
        handle = SpaceHandle(symbol, n_grid=1024)
        assert isinstance(handle.n, int)
        assert handle.mode == mode
        assert isinstance(tracer._embed_route((handle,)), str)
