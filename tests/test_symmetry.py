"""The half-period reflection: detection, the symmetric phase, the
breaking-block certificate and the escape from a symmetric saddle."""

import math

import numpy as np
import pytest

from minact import expr as ex, symmetry
from minact.action import action_gradient
from minact.model import GrowthConstants, ModelSpec, builtin
from minact.optimize import (SolveOptions, _HalfPeriodObjective,
                             _Objective, minimize, solve_in_class)
from minact.symmetry import breaking_coeffs, least_eigenpair
from minact.trajectory import FourierTrajectory
from conftest import (TWO_PI, coercive_oscillator_model,
                      constrained_planar_model, count_calls,
                      random_trajectory)
from test_optimize import crossing_pull_model

ANGLES = (0.0, 0.844, 5.306)


def full_space_only(monkeypatch):
    """Make every solve take the full-space path from its seed."""
    monkeypatch.setattr(_HalfPeriodObjective, "of",
                        classmethod(lambda cls, model, full, b: (None, b)))


def _half(model, traj, M):
    """The fixed-space objective at traj and traj's coordinates there."""
    full = _Objective(model, traj, M)
    return _HalfPeriodObjective.of(model, full, traj.coeffs.reshape(-1))


def _phase_end(model, coils, opts, res):
    """The last iterate of res's symmetric phase: the same solve stopped
    by max_iters where the full space takes over."""
    return solve_in_class(model, coils, SolveOptions(
        N=opts.N, M=opts.M, grad_tol=opts.grad_tol,
        max_iters=res.symmetric_iters))


def test_reflection_axis_of_the_builtins_and_a_forced_model():
    """The reflection swapping the two centers leaves two_centers and
    surface_slide invariant at any rotation of r0, and the crossing-pull
    model with its forcing shifted by half a period; unequal centers, an
    odd node count and non-planar models rule it out."""
    opts = SolveOptions(N=8)
    for theta in ANGLES:
        r0 = (math.cos(theta), math.sin(theta))
        for name in ("two_centers", "surface_slide"):
            model = builtin(name, r0=r0)
            proto = FourierTrajectory(model.omega, (), np.zeros((8, 2)))
            half = _HalfPeriodObjective.of(
                model, _Objective(model, proto, opts.M), np.zeros(16))
            assert np.allclose(half[0].axis, r0, rtol=0, atol=1e-15)
            odd = _Objective(model, proto, opts.M + 1)
            assert _HalfPeriodObjective.of(model, odd, np.zeros(16))[0] \
                is None
    model = crossing_pull_model()
    proto = FourierTrajectory(TWO_PI, (), np.zeros((8, 2)))
    half = _HalfPeriodObjective.of(model, _Objective(model, proto, 64),
                                   np.zeros(16))
    assert list(half[0].axis) == [1.0, 0.0]
    eye = [[ex.const(1.0), ex.const(0.0)], [ex.const(0.0), ex.const(1.0)]]
    unequal = ModelSpec(
        m=2, n=0, omega=TWO_PI, nu=(), metric=eye,
        gyro=[ex.const(0.0), ex.const(0.0)],
        potential=ex.parse("-1/((z1-1)^2+z2^2) - 2/((z1+1)^2+z2^2)", 2),
        constants=GrowthConstants(0, 0, 0, 0.5, 0, 0),
        sigma_base=((1.0, 0.0),))
    assert _HalfPeriodObjective.of(unequal, _Objective(unequal, proto, 64),
                                   np.zeros(16))[0] is None
    tube = builtin("tube_ball")
    res = solve_in_class(tube, None, SolveOptions(N=8))
    assert res.axis is None and res.symmetric_iters == 0


def test_seed_curves_lie_in_the_fixed_space():
    """seed_curve's seeds have no breaking part to rounding, so a coil
    solve starts in the fixed space."""
    for theta in ANGLES:
        model = builtin("two_centers", r0=(math.cos(theta),
                                           math.sin(theta)))
        res = solve_in_class(model, 2, SolveOptions(N=16, max_iters=1))
        assert res.axis is not None and res.symmetric_iters == 1


@pytest.mark.parametrize("name, coils, N, want", [
    ("two_centers", 1, 48, 1.0809),
    ("two_centers", 2, 48, 0.2558),
    ("two_centers", 3, 64, 0.1416),
    ("surface_slide", 1, 48, 0.9687),
    ("surface_slide", 2, 48, -1.5957),
])
def test_breaking_block_matches_gradient_differences(name, coils, N, want):
    """The breaking block's least eigenvalue, which the solve reports,
    equals that of central differences of the full gradient along the
    breaking directions to 1e-5 relative.  At surface_slide c=2 the
    symmetric critical point is a saddle, and the solve leaves it."""
    model, opts = builtin(name), SolveOptions(N=N)
    res = solve_in_class(model, coils, opts)
    if want < 0:
        full, res = res, _phase_end(model, coils, opts, res)
        assert res.status == "MaxIter"
        assert full.breaking_eigenvalue == res.breaking_eigenvalue
        assert full.report.S < res.report.S - 2.0
    half, c = _half(model, res.trajectory, opts.M)
    H = half.breaking_block(c, half.nodes(c)[0])
    assert np.array_equal(H, H.T)
    least = np.linalg.eigvalsh(H)[0]
    assert abs(least - res.breaking_eigenvalue) <= 1e-10 * abs(least)
    assert abs(least - want) <= 1e-4, least
    eps = 1e-5
    columns = []
    for j in range(len(H)):
        step = breaking_coeffs(half.F, np.eye(len(H))[j])
        g = [action_gradient(model, res.trajectory.with_coeffs(
            res.trajectory.coeffs + s * step), opts.M) for s in (eps, -eps)]
        columns.append(np.sum((g[0] - g[1]) * half.F, axis=1) / (2 * eps))
    F = np.array(columns)
    # in breaking coordinates the odd modes come first
    order = np.r_[np.arange(0, N, 2), np.arange(1, N, 2)]
    F = F[:, order]
    fd = np.linalg.eigvalsh(0.5 * (F + F.T))[0]
    assert abs(fd - least) <= 1e-5 * abs(least), (fd, least)


@pytest.mark.parametrize("theta", ANGLES)
def test_symmetric_solve_matches_the_full_space_solve(monkeypatch, theta):
    """On two_centers with one, two and three coils the symmetric phase
    ends on the full-space solve's orbit: S to 1e-12 relative, with fewer
    accepted steps, every one of them in the fixed space, and a certified
    minimum."""
    model = builtin("two_centers", r0=(math.cos(theta), math.sin(theta)))
    cases = [(1, SolveOptions(N=24)), (2, SolveOptions(N=32)),
             (3, SolveOptions(N=48))]
    sym = [solve_in_class(model, c, opts) for c, opts in cases]
    full_space_only(monkeypatch)
    for res, (c, opts) in zip(sym, cases):
        ref = solve_in_class(model, c, opts)
        assert res.status == ref.status == "Converged"
        assert abs(res.report.S - ref.report.S) <= 1e-12 * ref.report.S
        assert res.signature.windings == ref.signature.windings
        assert res.symmetric_iters == res.history[-1]["iter"]
        assert res.history[-1]["iter"] <= ref.history[-1]["iter"]
        assert res.breaking_eigenvalue > 0.1
        assert ref.axis is None and ref.breaking_eigenvalue is None


@pytest.mark.parametrize("case", ["crossing", "tube_ball", "constrained",
                                  "coercive"])
def test_other_solves_take_the_full_space_path(monkeypatch, case):
    """A seed with a breaking part, a non-planar model, a constrained one
    and a one-dimensional one never run the symmetric phase: histories
    and coefficients are those of the full-space path, bit for bit."""
    def solve():
        if case == "crossing":
            return minimize(crossing_pull_model(), FourierTrajectory(
                TWO_PI, (), [[1.0, 0.3]]), SolveOptions(N=1, max_iters=600))
        if case == "tube_ball":
            return solve_in_class(builtin("tube_ball"), None,
                                  SolveOptions(N=32, grad_tol=1e-10))
        if case == "constrained":
            return solve_in_class(constrained_planar_model(), None,
                                  SolveOptions(N=24))
        model = coercive_oscillator_model()
        seed = random_trajectory(np.random.default_rng(3), dim=1, N=8,
                                 omega=model.omega, scale=0.7)
        return minimize(model, seed, SolveOptions(N=8))

    res = solve()
    assert res.axis is None and res.symmetric_iters == 0
    full_space_only(monkeypatch)
    ref = solve()
    assert res.status == ref.status
    assert res.history == ref.history
    assert np.array_equal(res.trajectory.coeffs, ref.trajectory.coeffs)


def test_surface_slide_two_coils_leaves_the_symmetric_saddle(monkeypatch):
    """The reproducer of the saddle: at grad_tol 1e-4 the full-space solve
    stops on the symmetric critical point, S = 138.04192561494057, whose
    breaking block has a negative eigenvalue.  The solve steps along its
    eigenvector, on the side where the entry of largest size is positive,
    and reaches the minimum of the class on that side."""
    model = builtin("surface_slide")
    opts = SolveOptions(N=48, M=384, grad_tol=1e-4)
    escapes = count_calls(monkeypatch, symmetry, "breaking_coeffs")
    res = solve_in_class(model, 2, opts)
    assert res.status == "Converged"
    assert abs(res.report.S - 135.7575751526) <= 1e-9 * res.report.S
    assert res.signature.windings == {(1.0, 0.0): -2, (-1.0, 0.0): 2}
    assert res.breaking_eigenvalue < -1.5
    assert len(escapes) == 1
    # the minimum breaks the symmetry on the side of the escape step
    saddle = _phase_end(model, 2, opts, res)
    half, c = _half(model, saddle.trajectory, opts.M)
    _, v = least_eigenpair(half.breaking_block(c, half.nodes(c)[0]))
    v = breaking_coeffs(half.F, v * np.sign(v[np.argmax(np.abs(v))]))
    assert np.sum(v * res.trajectory.coeffs) > 0.1
    full_space_only(monkeypatch)
    ref = solve_in_class(model, 2, opts)
    assert ref.status == "Converged"
    assert ref.report.S == pytest.approx(138.04192561494057, rel=1e-12)


def test_least_eigenpair_matches_a_dense_solver():
    """Inverse iteration from a shift below the spectrum finds the least
    eigenvalue and its eigenvector, for definite and indefinite
    matrices."""
    rng = np.random.default_rng(11)
    for shift in (5.0, 0.5, -0.3, -40.0):
        Q = np.linalg.qr(rng.normal(size=(24, 24)))[0]
        ev = np.concatenate(([shift], shift + 1.0 + np.arange(23) ** 2))
        H = (Q * ev) @ Q.T
        H = 0.5 * (H + H.T)
        least, v = least_eigenpair(H)
        assert abs(least - shift) <= 1e-10 * max(1.0, abs(shift))
        assert abs(abs(v @ Q[:, 0]) - 1.0) <= 1e-9
