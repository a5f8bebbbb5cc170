"""Each name has one home, and every name the benchmark traces resolves.

The package binds no name of its own but ``__version__``: every function
and class is imported from the module that defines it, so the package
namespace holds only submodules.  ``bench/tracing.py`` wraps the callables
listed in its ``TRACED`` table by attribute path, so a name dropped from a
module breaks the traced benchmark runs; this guard fails in the package's
own suite instead.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import bpcentre

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_namespace_holds_only_submodules():
    rebound = [name for name, value in vars(bpcentre).items()
               if not name.startswith("_")
               and not (isinstance(value, types.ModuleType)
                        and value.__name__ == f"bpcentre.{name}")]
    assert rebound == []


def test_every_traced_path_resolves():
    missing = []
    for mod_name, paths in load_tracing().TRACED.items():
        module = importlib.import_module(f"bpcentre.{mod_name}")
        for path in paths:
            obj = module
            for attr in path.split("."):
                obj = getattr(obj, attr, None)
            if obj is None:
                missing.append(f"{mod_name}.{path}")
    assert missing == []
