"""The package's export list: every name in ``hbspace.__all__`` must resolve,
so that ``from hbspace import *`` keeps working after a deletion.  The
namespace is lazy, so what a bare import loads is checked in fresh
interpreters."""

import dataclasses
import importlib
import inspect
import pkgutil

import hbspace
from hbspace.report import Report
from conftest import run_fresh


def test_every_export_resolves():
    missing = [name for name in hbspace.__all__ if not hasattr(hbspace, name)]
    assert not missing, f"names in hbspace.__all__ that do not resolve: {missing}"
    assert len(set(hbspace.__all__)) == len(hbspace.__all__)
    assert set(hbspace.__all__) <= set(dir(hbspace))


def test_import_loads_no_numpy_and_no_submodule():
    run_fresh("-c",
              "import sys\n"
              "import hbspace\n"
              "loaded = sorted(n for n in sys.modules\n"
              "                if n == 'numpy' or n.startswith(('numpy.', 'hbspace.')))\n"
              "assert not loaded, loaded\n"
              "assert set(hbspace.__all__) <= set(dir(hbspace))")


def test_submodule_import_loads_only_its_dependencies():
    # scripts/rank_scan.py imports hbspace.model and hbspace.symbols alone
    run_fresh("-c",
              "import sys\n"
              "import hbspace.model\n"
              "loaded = [m for m in ('analysis', 'subspaces', 'catalog', 'acceptance', 'cli')\n"
              "          if 'hbspace.' + m in sys.modules]\n"
              "assert not loaded, loaded")


def test_star_import_binds_every_export():
    run_fresh("-c",
              "from hbspace import *\n"
              "import hbspace\n"
              "missing = [n for n in hbspace.__all__\n"
              "           if n not in globals() or globals()[n] is not getattr(hbspace, n)]\n"
              "assert not missing, missing")


def test_submodule_attribute_resolves_after_a_bare_import():
    run_fresh("-c",
              "import sys\n"
              "import hbspace\n"
              "assert 'hbspace.model' not in sys.modules\n"
              "assert hbspace.model is sys.modules['hbspace.model']\n"
              "assert hbspace.SpaceHandle is hbspace.model.SpaceHandle")


def test_unknown_attribute_raises_attribute_error():
    run_fresh("-c",
              "import hbspace\n"
              "for name in ('no_such_name', '_private', '__no_dunder__'):\n"
              "    assert not hasattr(hbspace, name), name")


def test_every_certified_result_extends_the_one_report_base():
    results = {"symbols": ["MembershipReport"],
               "analysis": ["MzReport", "ReverseCarlesonReport", "DirichletCarlesonReport",
                            "LimitEstimate"],
               "subspaces": ["NearlyInvariantResult", "PolyDensityResult"],
               "spectral": ["FactorizationReport"]}
    for module, names in results.items():
        for name in names:
            assert issubclass(getattr(importlib.import_module(f"hbspace.{module}"), name),
                              Report), name
    # the base alone declares how a result is certified
    declaring = []
    for info in pkgutil.iter_modules(hbspace.__path__):
        module = importlib.import_module(f"hbspace.{info.name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__
                    and {"conclusive", "note"} & set(cls.__dict__.get("__annotations__", {}))):
                declaring.append(cls)
    assert declaring == [Report]
