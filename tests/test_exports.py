"""Every exported name and every name the benchmark traces resolves.

``bench/tracing.py`` wraps the callables listed in its ``TRACED`` table by
attribute path, so a name dropped from the package breaks the traced
benchmark runs; this guard fails in the package's own suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import bpcentre

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    assert [name for name in bpcentre.__all__ if not hasattr(bpcentre, name)] == []


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
