"""The benchmark's tracer still finds every function and method it wraps."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from minact.action import LagrangianTerms
from minact.model import builtin
from minact.optimize import SolveOptions, _Objective, minimize, \
    solve_in_class
from minact.trajectory import FourierTrajectory
from conftest import TWO_PI, constrained_planar_model, count_calls

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


def test_one_lagrangian_at_call_per_objective_evaluation(monkeypatch):
    """The tracer counts LagrangianTerms.lagrangian_at calls inside
    minimize as optimize.objective_evals, so every objective evaluation,
    penalized or not, must make exactly one such call."""
    evals = count_calls(monkeypatch, _Objective, "value_and_grad")
    programs = count_calls(monkeypatch, LagrangianTerms, "lagrangian_at")
    solve_in_class(builtin("two_centers"), 1, SolveOptions(N=24))
    assert evals and len(programs) == len(evals)
    del evals[:], programs[:]
    minimize(constrained_planar_model(),
             FourierTrajectory(TWO_PI, (), 0.1 * np.ones((6, 2))),
             SolveOptions(N=6))
    assert evals and len(programs) == len(evals)
