"""Every name the benchmark's tracer wraps or calls still exists in defectk.

The tracer in ``perfbench/tracing.py`` raises at install when a name is
gone, so a rename in the program would otherwise show only in a traced
benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_exist():
    tracing = _tracing()
    for name in tracing.FUNCTIONS:
        mod, attr = name.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"defectk.{mod}"), attr, None)), name
    # methods are wrapped where their class defines them, not where it inherits them
    for name in tracing.METHODS + ("ideals.PointSet.int_reps",):
        mod, cls_name, attr = name.split(".")
        cls = getattr(importlib.import_module(f"defectk.{mod}"), cls_name, None)
        assert cls is not None and inspect.isfunction(vars(cls).get(attr)), name
