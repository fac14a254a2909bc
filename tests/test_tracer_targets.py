"""The benchmark tracer (perfbench/tracer.py) patches hbspace callables by
name; a renamed or deleted target makes a traced benchmark run crash, so
every target must still resolve the way the tracer looks it up."""

import importlib
import importlib.util
from pathlib import Path

from hbspace.catalog import h2_symbol, inner_symbol, rank1_half_symbol
from hbspace.model import SpaceHandle
from conftest import run_fresh

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


def test_tracer_leaves_no_wrapper_bound_in_the_package():
    # the tracer patches each name in its defining module and puts the original
    # back on uninstall; the package resolves names there on every access, so a
    # lookup made while the tracer is installed must leave nothing bound in it
    run_fresh("-c",
              "import importlib.util\n"
              "import hbspace\n"
              "spec = importlib.util.spec_from_file_location(\n"
              f"    'perfbench_tracer', {str(TRACER)!r})\n"
              "module = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(module)\n"
              "tracer = module.Tracer()\n"
              "tracer.install()\n"
              "assert hasattr(hbspace.named_space, '__wrapped__')\n"
              "tracer.uninstall()\n"
              "assert hbspace.named_space is hbspace.catalog.named_space\n"
              "assert not hasattr(hbspace.named_space, '__wrapped__')\n"
              "assert 'named_space' not in vars(hbspace)")
