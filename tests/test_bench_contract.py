"""The benchmark's traced run finds resflow functions by name.

``perfbench/tracing.py`` installs its span wrappers by looking up
``owner.__dict__[attr]`` for every entry of ``wrap_targets()``; a renamed or
moved function would make ``perfbench/run.py --selftest`` raise KeyError.
This test reads the same list, without changing it, so the suite catches
the rename first.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while executing
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_resolves():
    targets = load_tracing().wrap_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__module__', '')}.{owner.__name__}.{attr} ({span})"
        for owner, attr, span, _ in targets
        if attr not in owner.__dict__
    ]
    assert not missing, f"wrapped names no longer defined: {missing}"
