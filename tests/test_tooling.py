"""Checks for the benchmark: its tracer still finds every function and
method it wraps, and its repeated set-ups and solves redo no work the
program keeps."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from minact import kernel
from minact.action import LagrangianTerms
from minact.model import builtin, with_omega
from minact.optimize import SolveOptions, _Objective, minimize, \
    solve_in_class
from minact.trajectory import FourierTrajectory, SineGrid
from minact.verify import el_residual
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


def test_repeated_solves_reuse_kernels_and_grids(monkeypatch):
    """Regression guard on repeated work: a second solve of a model, and
    solves of its with_omega copies, generate no kernel; el_residual right
    after a solve builds no sine table, as the solved trajectory keeps the
    solve's grid; a with_coeffs copy of another mode count inherits none."""
    kernels = count_calls(monkeypatch, kernel.Kernel, "__init__")
    grids = count_calls(monkeypatch, SineGrid, "__init__")
    model, opts = builtin("two_centers"), SolveOptions(N=24)
    solve_in_class(model, 1, opts)
    assert len(kernels) == 1
    res = solve_in_class(model, 1, opts)
    for omega in (4.0, 5.0):
        solve_in_class(with_omega(model, omega), 1, opts)
    assert len(kernels) == 1
    del grids[:]
    el_residual(model, res.trajectory, opts.M)
    assert grids == []
    wider = res.trajectory.with_coeffs(np.zeros((opts.N + 1, 2)))
    grid = SineGrid.uniform(wider, opts.M)
    assert len(grids) == 1 and len(grid.w) == opts.N + 1
    same = res.trajectory.with_coeffs(np.zeros((opts.N, 2)))
    assert SineGrid.uniform(same, opts.M) is SineGrid.uniform(
        res.trajectory, opts.M)
    assert len(grids) == 1


def test_solve_after_minact_is_imported_afresh():
    """The benchmark imports minact afresh for every set-up, while the
    operations of its first set-up keep running on their own modules: a
    model built before a fresh import still generates its kernel and
    solves."""
    model = builtin("two_centers")
    ours = [name for name in sys.modules
            if name == "minact" or name.startswith("minact.")]
    saved = {name: sys.modules.pop(name) for name in ours}
    try:
        importlib.import_module("minact.optimize")
        res = solve_in_class(model, 1, SolveOptions(N=16))
    finally:
        for name in [name for name in sys.modules
                     if name == "minact" or name.startswith("minact.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert res.status == "Converged"
