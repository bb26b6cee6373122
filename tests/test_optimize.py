"""Action minimization: statuses, invariants, and reference solutions."""

import math

import numpy as np
import pytest

from minact import expr as ex
from minact.action import LagrangianTerms, action
from minact.model import GrowthConstants, ModelSpec, builtin, singular_set
from minact.optimize import (LBFGS_PAIRS, OptimizeError, SolveOptions,
                             _LbfgsMemory, _Objective, minimize,
                             solve_in_class)
from minact.trajectory import (FourierTrajectory, h1_seminorm, sample,
                               seed_curve)
from conftest import (coercive_oscillator_model, constrained_planar_model,
                      free_drift_model, harmonic_model, random_trajectory)

TWO_PI = 2.0 * math.pi

EYE2 = [[ex.const(1.0), ex.const(0.0)], [ex.const(0.0), ex.const(1.0)]]
ZERO2 = [ex.const(0.0), ex.const(0.0)]


def shrinking_loop_model():
    """Weak spring with sigma = {(0.5,0)}: the zero loop is the minimizer,
    so a loop seeded around the singular point has to shrink into it."""
    return ModelSpec(m=2, n=0, omega=TWO_PI, nu=(), metric=EYE2, gyro=ZERO2,
                     potential=ex.parse("0.01*(z1^2 + z2^2)", 2),
                     constants=GrowthConstants(0, 0, 0.01, 0.5, 0, 0),
                     sigma_base=((0.5, 0.0),))


def crossing_pull_model():
    """Attracting well centered on z1 = 3 sin t drags a flat seed onto a
    segment through the singular point (1, 0)."""
    return ModelSpec(m=2, n=0, omega=TWO_PI, nu=(), metric=EYE2, gyro=ZERO2,
                     potential=ex.parse("-(z1 - 3*sin(t))^2 - z2^2", 2),
                     constants=GrowthConstants(0, 0, 0.0, 0.5, 0, 0),
                     sigma_base=((1.0, 0.0),))


def test_free_drift_converges_to_uniform_rotation():
    """The drift-only seed is already the minimizer: S = pi, b = 0."""
    res = solve_in_class(free_drift_model(), None, SolveOptions(N=8))
    assert res.status == "Converged", f"status {res.status}"
    assert abs(res.report.S - math.pi) < 1e-8, f"S = {res.report.S}"
    assert np.max(np.abs(res.trajectory.coeffs)) <= 1e-8


def test_coercive_oscillator_converges_to_zero(rng):
    """Positive margin and V >= 0 with V(0) = 0: minimizer is the zero loop."""
    model = coercive_oscillator_model()
    seed = random_trajectory(rng, dim=1, N=8, omega=model.omega, scale=0.7)
    res = minimize(model, seed, SolveOptions(N=8))
    assert res.status == "Converged"
    assert abs(res.report.S) < 1e-10, f"S = {res.report.S}"
    assert np.max(np.abs(res.trajectory.coeffs)) < 1e-5


def test_forced_oscillator_diverges():
    """Negative margin, action unbounded below along x = c sin t."""
    model = builtin("forced_oscillator")
    seed = FourierTrajectory(TWO_PI, (), [[1.0]] + [[0.0]] * 7)
    res = minimize(model, seed, SolveOptions(N=8))
    assert res.status == "Diverged", f"status {res.status}"
    assert res.report.S < -10.0, f"S = {res.report.S} did not escape"


def test_two_centers_one_coil():
    """Minimization keeps the seed's homotopy class and clears sigma."""
    model = builtin("two_centers")
    res = solve_in_class(model, 1, SolveOptions(N=24))
    assert res.status == "Converged", f"status {res.status}"
    assert res.signature.windings == {(1.0, 0.0): -1, (-1.0, 0.0): 1}
    assert res.report.min_distance > 0.05
    assert abs(res.report.S - 19.9817557946) < 1e-6, f"S = {res.report.S}"


def test_two_centers_three_coils():
    """Higher coil counts stay in class: windings (-3, +3)."""
    model = builtin("two_centers")
    res = solve_in_class(model, 3, SolveOptions(N=48, max_iters=4000))
    assert res.status == "Converged", f"status {res.status}"
    assert res.signature.windings == {(1.0, 0.0): -3, (-1.0, 0.0): 3}
    assert res.report.min_distance > 0.05


def test_guard_triggered_on_shrinking_loop():
    """The loop shrinks onto the guard ring and no admissible step remains."""
    model = shrinking_loop_model()
    seed = seed_curve(1, singular_set(model), TWO_PI, 8)
    res = minimize(model, seed, SolveOptions(N=8, max_iters=600))
    assert res.status == "GuardTriggered", f"status {res.status}"
    # the iterate is parked just outside the guard ring, class intact
    assert abs(res.report.min_distance - 1e-3) < 1e-4
    assert res.signature.windings == {(0.5, 0.0): -1, (-0.5, 0.0): 1}


def test_signature_changed_on_forced_crossing():
    """The pull drags the curve across (1,0); the step that would cross
    cannot be certified, so the run stops with SignatureChanged."""
    model = crossing_pull_model()
    seed = FourierTrajectory(TWO_PI, (), [[1.0, 0.3]])
    res = minimize(model, seed, SolveOptions(N=1, max_iters=600))
    assert res.status == "SignatureChanged", f"status {res.status}"
    assert res.report.min_distance > 0.0, "iterate ended on sigma"
    assert len(res.history) < 100, "should stop quickly"


def test_max_iter_status():
    model = builtin("two_centers")
    res = solve_in_class(model, 1, SolveOptions(N=16, max_iters=2))
    assert res.status == "MaxIter"


def test_constrained_minimizer_matches_manifold_solution():
    """Penalty phases drive z2 = z1; on the manifold b_1 = -beta exactly."""
    beta = 0.5
    model = constrained_planar_model(beta)
    seed = FourierTrajectory(TWO_PI, (), 0.1 * np.ones((6, 2)))
    res = minimize(model, seed, SolveOptions(N=6))
    assert res.status == "Converged", f"status {res.status}"
    want_S = -math.pi * beta**2 / 2.0
    assert abs(res.report.S - want_S) < 1e-6, \
        f"S = {res.report.S}, want {want_S}"
    assert np.allclose(res.trajectory.coeffs[0], [-beta, -beta], atol=1e-6)
    # feasibility: integral of f^2 over the period is tiny at mu_max
    terms = LagrangianTerms(model)
    p = sample(res.trajectory, 64)
    F = terms.constraints_at(p.t, p.z)
    feas = model.omega / 64 * float(np.sum(F * F))
    assert feas <= 1e-8, f"constraint residual {feas}"


def test_constrained_run_visits_all_penalty_phases():
    model = constrained_planar_model()
    seed = FourierTrajectory(TWO_PI, (), 0.1 * np.ones((6, 2)))
    res = minimize(model, seed, SolveOptions(N=6))
    mus = sorted({row["mu"] for row in res.history})
    assert mus == [10.0 ** k for k in range(1, 9)], f"phases {mus}"


def test_history_monotone_within_phase():
    """Accepted steps never increase S_mu beyond the rounding allowance."""
    model = builtin("two_centers")
    res = solve_in_class(model, 2, SolveOptions(N=32, max_iters=4000))
    assert res.status == "Converged"
    by_phase = {}
    for row in res.history:
        by_phase.setdefault(row["mu"], []).append(row["S_mu"])
    for mu, values in by_phase.items():
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10 * (1 + abs(a)), \
                f"S_mu rose {a} -> {b} within phase mu = {mu}"


def test_history_rows_have_diagnostics():
    res = solve_in_class(builtin("two_centers"), 1, SolveOptions(N=16))
    row = res.history[0]
    assert set(row) == {"iter", "mu", "S_mu", "grad_norm", "min_distance",
                        "h1"}
    assert row["iter"] == 0 and row["min_distance"] > 0.05


def test_determinism_identical_histories():
    """Two identical runs produce bit-identical histories and coefficients."""
    model = builtin("two_centers")
    r1 = solve_in_class(model, 1, SolveOptions(N=16))
    r2 = solve_in_class(model, 1, SolveOptions(N=16))
    assert r1.history == r2.history
    assert np.array_equal(r1.trajectory.coeffs, r2.trajectory.coeffs)
    assert r1.report.S == r2.report.S


def test_result_trajectory_is_structurally_odd():
    res = solve_in_class(builtin("two_centers"), 1, SolveOptions(N=16))
    traj = res.trajectory
    from minact.trajectory import evaluate_path
    t = np.linspace(0.1, 3.0, 17)
    assert np.max(np.abs(evaluate_path(traj, t)
                         + evaluate_path(traj, -t))) < 1e-12


def test_solver_option_validation():
    with pytest.raises(OptimizeError):
        SolveOptions(N=0)
    with pytest.raises(OptimizeError):
        SolveOptions(N=8, M=10)  # below 2N+1
    with pytest.raises(OptimizeError):
        SolveOptions(N=8, grad_tol=-1.0)


def test_seed_mode_count_mismatch():
    model = coercive_oscillator_model()
    seed = FourierTrajectory(model.omega, (), np.zeros((16, 1)))
    with pytest.raises(OptimizeError):
        solve_in_class(model, seed, SolveOptions(N=8))


def test_seed_zero_padding():
    """A short seed is padded with zero modes up to N."""
    model = coercive_oscillator_model()
    seed = FourierTrajectory(model.omega, (), [[0.3]])
    res = solve_in_class(model, seed, SolveOptions(N=8))
    assert res.trajectory.N == 8
    assert res.status == "Converged"


def test_seed_period_and_winding_validation():
    model = coercive_oscillator_model()
    with pytest.raises(OptimizeError):
        solve_in_class(model, FourierTrajectory(1.0, (), [[0.3]]),
                       SolveOptions(N=8))
    model2 = free_drift_model()
    bad_nu = FourierTrajectory(model2.omega, (2,), [[0.3]])
    with pytest.raises(OptimizeError):
        solve_in_class(model2, bad_nu, SolveOptions(N=8))


def test_minimize_rejects_seed_of_another_period_or_winding_vector():
    """minimize itself checks the seed's period and winding vector: the
    quadrature weight uses the model's period and the grid the seed's."""
    model = harmonic_model()
    with pytest.raises(OptimizeError, match="period"):
        minimize(model, FourierTrajectory(3.0, (), np.zeros((8, 1))),
                 SolveOptions(N=8))
    drift = free_drift_model()
    with pytest.raises(OptimizeError, match="winding vector"):
        minimize(drift, FourierTrajectory(drift.omega, (2,),
                                          np.zeros((8, 1))),
                 SolveOptions(N=8))


def test_seed_too_close_to_sigma_is_rejected():
    """A seed inside the guard ring is unusable."""
    model = shrinking_loop_model()
    seed = FourierTrajectory(TWO_PI, (), [[0.5, 0.0], [0.0, 0.25]])
    # passes through (0.5, 0) at t = pi/2... actually z(pi/2) = (0.5, 0):
    # exactly on sigma, well inside any guard
    with pytest.raises(OptimizeError):
        minimize(model, seed, SolveOptions(N=2))


def test_penalty_free_model_runs_single_phase():
    res = solve_in_class(builtin("two_centers"), 1, SolveOptions(N=16))
    assert {row["mu"] for row in res.history} == {0.0}


def test_result_to_dict_shape():
    res = solve_in_class(builtin("two_centers"), 1, SolveOptions(N=16))
    d = res.to_dict()
    assert set(d) == {"status", "report", "history", "windings"}
    assert d["windings"] == {"[1.0, 0.0]": -1, "[-1.0, 0.0]": 1}


def _record_iterates(monkeypatch):
    """Wrap _Objective.value_and_grad; keep (objective, b, S, |g|) per call."""
    calls = []
    original = _Objective.value_and_grad

    def wrapped(self, b_flat, mu):
        S, g = original(self, b_flat, mu)
        calls.append((self, b_flat.copy(), S, float(np.linalg.norm(g))))
        return S, g

    monkeypatch.setattr(_Objective, "value_and_grad", wrapped)
    return calls


@pytest.mark.parametrize("case", ["two_centers", "constrained", "diverged"])
def test_history_distance_and_h1_match_their_iterate(monkeypatch, case):
    """Each history row's min_distance and h1, carried over from the line
    search, equal the values recomputed on the row's iterate."""
    calls = _record_iterates(monkeypatch)
    if case == "two_centers":
        res = solve_in_class(builtin("two_centers"), 2, SolveOptions(N=16))
    elif case == "constrained":
        res = minimize(constrained_planar_model(),
                       FourierTrajectory(TWO_PI, (), 0.1 * np.ones((6, 2))),
                       SolveOptions(N=6))
    else:
        res = minimize(builtin("forced_oscillator"),
                       FourierTrajectory(TWO_PI, (), [[1.0]] + [[0.0]] * 7),
                       SolveOptions(N=8))
        assert res.status == "Diverged"
    assert len(res.history) > 5
    for row in res.history:
        # the iterate of a row is the evaluated point with its S and |g|
        matches = [(obj, b) for obj, b, S, gn in calls
                   if S == row["S_mu"] and gn == row["grad_norm"]]
        assert matches, f"no evaluation matches history row {row['iter']}"
        for obj, b in matches:
            assert row["min_distance"] == obj.node_min_distance(b)
            assert row["h1"] == h1_seminorm(obj.traj(b))


def _reference_direction(memory, grad):
    """The two-loop recursion recomputing every rho = 1/(y.s) per call."""
    q = grad.copy()
    alphas = []
    rhos = [1.0 / np.dot(y, s) for s, y in zip(memory.s, memory.y)]
    for s, y, rho in zip(reversed(memory.s), reversed(memory.y),
                         reversed(rhos)):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if memory.s:
        s, y = memory.s[-1], memory.y[-1]
        gamma = np.dot(s, y) / np.dot(y, memory.d0 * y)
    else:
        gamma = 1.0
    q = gamma * (memory.d0 * q)
    for (s, y, rho), a in zip(zip(memory.s, memory.y, rhos),
                              reversed(alphas)):
        beta = rho * np.dot(y, q)
        q += (a - beta) * s
    return -q


def test_lbfgs_direction_matches_recomputed_rho(rng):
    """Storing rho at push time leaves every direction bit for bit equal,
    also after pairs are evicted, skipped and cleared."""
    n = 37
    memory = _LbfgsMemory(rng.uniform(0.1, 2.0, size=n))
    for step in range(2 * LBFGS_PAIRS + 5):
        s = rng.normal(size=n)
        # mostly curvature-positive pairs; every seventh is skipped
        y = (-s if step % 7 == 3 else s * rng.uniform(0.5, 3.0, size=n)
             + 0.1 * rng.normal(size=n))
        memory.push(s, y)
        assert len(memory.rho) == len(memory.s) <= LBFGS_PAIRS
        grad = rng.normal(size=n)
        assert np.array_equal(memory.direction(grad),
                              _reference_direction(memory, grad))
    memory.clear()
    grad = rng.normal(size=n)
    assert np.array_equal(memory.direction(grad),
                          _reference_direction(memory, grad))
