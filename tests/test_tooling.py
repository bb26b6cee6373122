"""The benchmark's tracer still finds every function and method it wraps."""

import importlib
import importlib.util
from pathlib import Path

from minact.action import LagrangianTerms

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    """Every FUNCTIONS target is an attribute of its minact module and
    every METHODS name is defined on LagrangianTerms itself, so a rename
    cannot silently drop a span from the traced benchmark runs."""
    tracer = load_tracer()
    for span, (module, attr) in tracer.FUNCTIONS.items():
        assert module.startswith("minact."), span
        assert callable(getattr(importlib.import_module(module), attr,
                                None)), span
    for span, attr in tracer.METHODS.items():
        assert attr in LagrangianTerms.__dict__, span
