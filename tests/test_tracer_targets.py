"""Every callable the benchmark's tracer wraps exists in the package, so
a renamed or deleted target fails here rather than only in traced runs.
``bench/tracer.py`` is loaded from its source and left as it is."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name; no bytecode is written
    sys.modules[spec.name] = module
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module


def test_every_tracer_target_resolves():
    # the tracer wraps a method found in its class's own namespace and a
    # function found as a module attribute
    missing = []
    for target in load_tracer().TARGETS:
        mod = importlib.import_module(f"euler_ss.{target.module}")
        cls_name, _, name = target.name.rpartition(".")
        found = vars(getattr(mod, cls_name)).get(name) if cls_name \
            else getattr(mod, name, None)
        if not callable(found):
            missing.append(f"{target.module}.{target.name}")
    assert missing == []
