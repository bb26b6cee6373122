"""Action minimization: statuses, invariants, and reference solutions."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from minact import expr as ex
from minact.action import LagrangianTerms, action, action_report
from minact.model import Constraint, GrowthConstants, ModelSpec, builtin, \
    singular_set
from minact.optimize import (AL_MU, LBFGS_PAIRS, REJECT_REASONS,
                             OptimizeError, SolveOptions, _LbfgsMemory,
                             _Objective, minimize, solve_in_class)
from minact.trajectory import (FourierTrajectory, SineGrid, evaluate_path,
                               h1_seminorm, sample, seed_curve,
                               winding_signature)
from minact.verify import el_residual
from conftest import (coercive_oscillator_model, constrained_planar_model,
                      count_builds, count_calls, free_drift_model,
                      harmonic_model, random_trajectory)

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
    """Higher coil counts stay in class: windings (-3, +3).  The solve
    winds around sigma three times and is the longest of two_centers; a
    deep L-BFGS memory converges it in at most 220 iterations (20 pairs
    took 317)."""
    model = builtin("two_centers")
    res = solve_in_class(model, 3, SolveOptions(N=48, max_iters=4000))
    assert res.status == "Converged", f"status {res.status}"
    assert res.signature.windings == {(1.0, 0.0): -3, (-1.0, 0.0): 3}
    assert res.report.min_distance > 0.05
    assert res.history[-1]["iter"] <= 220, res.history[-1]["iter"]


def test_guard_triggered_on_shrinking_loop():
    """The loop shrinks onto the guard ring and no admissible step remains."""
    model = shrinking_loop_model()
    seed = seed_curve(1, singular_set(model), TWO_PI, 8)
    res = minimize(model, seed, SolveOptions(N=8, max_iters=600))
    assert res.status == "GuardTriggered", f"status {res.status}"
    # the iterate is parked just outside the guard ring, class intact
    assert abs(res.report.min_distance - 1e-3) < 1e-4
    assert res.signature.windings == {(0.5, 0.0): -1, (-0.5, 0.0): 1}


def _rejections(history):
    """Line-search rejections summed over the history, by reason."""
    total = dict.fromkeys(REJECT_REASONS, 0)
    for row in history:
        for reason, count in row["rejected"].items():
            total[reason] += count
    return total


def test_history_counts_line_search_rejections(monkeypatch):
    """Each history row counts the candidates its line search rejected,
    by reason.  Every candidate gets one node-guard call, so the guard
    calls after the seed's are the accepted steps plus the rejections.
    A two-coil solve backtracks on Armijo alone.  The shrinking loop
    meets the guard ring, where its line searches reject on the guard and
    on the winding signature, and its last search ends on the guard."""
    nodes = count_calls(monkeypatch, _Objective, "nodes")
    cases = [(solve_in_class(builtin("two_centers"), 2, SolveOptions(N=16)),
              "Converged", {"armijo"}),
             (minimize(shrinking_loop_model(),
                       seed_curve(1, singular_set(shrinking_loop_model()),
                                  TWO_PI, 8),
                       SolveOptions(N=8, max_iters=600)),
              "GuardTriggered", {"guard", "signature"})]
    candidates = 0
    for res, status, reasons in cases:
        assert res.status == status
        total = _rejections(res.history)
        assert {r for r, count in total.items() if count} == reasons, total
        candidates += 1 + res.history[-1]["iter"] + sum(total.values())
    assert len(nodes) == candidates
    assert res.history[-1]["rejected"]["guard"] > 0


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
    """The method of multipliers drives z2 = z1; on the manifold
    b_1 = -beta exactly."""
    beta = 0.5
    model = constrained_planar_model(beta)
    seed = FourierTrajectory(TWO_PI, (), 0.1 * np.ones((6, 2)))
    res = minimize(model, seed, SolveOptions(N=6))
    assert res.status == "Converged", f"status {res.status}"
    want_S = -math.pi * beta**2 / 2.0
    assert abs(res.report.S - want_S) < 1e-6, \
        f"S = {res.report.S}, want {want_S}"
    assert np.allclose(res.trajectory.coeffs[0], [-beta, -beta], atol=1e-6)
    # feasibility: integral of f^2 over the period is tiny
    terms = LagrangianTerms(model)
    p = sample(res.trajectory, 64)
    F = terms.constraints_at(p.t, p.z)
    feas = model.omega / 64 * float(np.sum(F * F))
    assert feas <= 1e-8, f"constraint residual {feas}"


@pytest.mark.parametrize("N", [24, 48])
def test_constrained_run_meets_feasibility_and_multipliers(monkeypatch, N):
    """The method of multipliers has no penalty floor: from the zero seed
    the constrained oscillator converges to max|f| <= 1e-12 at the nodes
    and S within 1e-12 of -pi beta^2/2 in at most 60 objective
    evaluations, and its multipliers are the least-squares reaction force
    that el_residual recovers from the Euler-Lagrange residual."""
    beta = 0.5
    model, opts = constrained_planar_model(beta), SolveOptions(N=N)
    evals = count_calls(monkeypatch, _Objective, "value_and_grad")
    res = solve_in_class(model, None, opts)
    assert res.status == "Converged", f"status {res.status}"
    path = sample(res.trajectory, opts.M)
    F = LagrangianTerms.of(model).constraints_at(path.t, path.z)
    assert np.max(np.abs(F)) <= 1e-12, f"max|f| = {np.max(np.abs(F))}"
    S_err = res.report.S + math.pi * beta ** 2 / 2.0
    assert abs(S_err) <= 1e-12, f"S error {S_err}"
    assert len(evals) <= 60, f"{len(evals)} objective evaluations"
    alpha = el_residual(model, res.trajectory, opts.M).multipliers
    assert res.multipliers.shape == alpha.shape == (opts.M, 1)
    gap = np.max(np.abs(res.multipliers - alpha))
    assert gap <= 1e-8 * np.max(np.abs(alpha)), f"multiplier gap {gap}"


def test_constrained_report_gradient_is_the_loops():
    """A Converged constrained solve reports the gradient the loop stopped
    on, that of S + (omega/M) sum lam f with the returned multipliers, so
    its grad_norm meets grad_tol.  The action's own gradient holds the
    reaction force and does not vanish; S is the action without the
    multiplier terms, as action_report computes it."""
    model, opts = constrained_planar_model(), SolveOptions(N=24)
    res = solve_in_class(model, None, opts)
    assert res.status == "Converged"
    assert res.report.grad_norm <= opts.grad_tol, res.report.grad_norm
    assert res.report.grad_norm == res.history[-1]["grad_norm"]
    plain = action_report(model, res.trajectory, opts.M)
    assert plain.grad_norm > 0.1, plain.grad_norm
    assert res.report.S == plain.S and res.report.h1 == plain.h1


def test_history_monotone_within_multiplier_round():
    """One fixed mu serves every round, and accepted steps never raise
    S_mu beyond rounding within a round.  Every multiplier update, which
    changes S_mu itself, follows a row whose gradient meets grad_tol, so
    the history split after those rows never spans an update."""
    model, opts = constrained_planar_model(), SolveOptions(N=24)
    res = solve_in_class(model, None, opts)
    assert res.status == "Converged"
    assert {row["mu"] for row in res.history} == {AL_MU}
    rounds = [[]]
    for row in res.history:
        rounds[-1].append(row["S_mu"])
        if row["grad_norm"] <= opts.grad_tol:
            rounds.append([])
    assert len(rounds) > 3 and rounds[-1] == [], f"rounds {rounds}"
    for values in rounds:
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10 * (1 + abs(a)), \
                f"S_mu rose {a} -> {b} within a round"


def test_unsatisfiable_constraint_never_converges():
    """f = z1^2 + 1 has no zero: every round leaves max|f| >= 1, so the
    multipliers grow by at least mu per round, and the run ends within
    max_iters as MaxIter, never Converged."""
    model = replace(constrained_planar_model(), constraints=(
        Constraint(ex.parse("z1^2 + 1", 2), "even"),))
    opts = SolveOptions(N=6, max_iters=200)
    res = minimize(model, FourierTrajectory(TWO_PI, (), 0.1 * np.ones(
        (6, 2))), opts)
    assert res.status == "MaxIter", f"status {res.status}"
    assert res.history[-1]["iter"] <= opts.max_iters
    assert np.min(res.multipliers) >= AL_MU, "no multiplier update"


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
                        "h1", "rejected"}
    assert row["iter"] == 0 and row["min_distance"] > 0.05
    assert set(row["rejected"]) == set(REJECT_REASONS) == {
        "armijo", "guard", "signature", "domain"}


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
    """solve_in_class refuses a seed with more modes than N; minimize
    refuses any seed whose N differs from the options'."""
    model = coercive_oscillator_model()
    seed = FourierTrajectory(model.omega, (), np.zeros((16, 1)))
    with pytest.raises(OptimizeError, match="more modes"):
        solve_in_class(model, seed, SolveOptions(N=8))
    for N in (8, 32):
        with pytest.raises(OptimizeError,
                           match=f"seed has N = 16 but options request "
                                 f"N = {N}"):
            minimize(model, seed, SolveOptions(N=N))


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


def test_minimize_rejects_seed_of_another_dimension():
    """A seed with fewer or more coordinates than the model is refused
    before any node is evaluated."""
    model = builtin("two_centers")
    for dim in (1, 3):
        coeffs = np.zeros((8, dim))
        coeffs[0, 0] = 1.5
        with pytest.raises(OptimizeError, match="dimension"):
            minimize(model, FourierTrajectory(model.omega, (), coeffs),
                     SolveOptions(N=8))


def test_seed_too_close_to_sigma_is_rejected():
    """A seed inside the guard ring is unusable: a planar seed through
    sigma cannot be classified, a classified planar seed is refused by its
    signature's clearance, and the seed of a model whose windings are not
    tracked is refused by its node distance."""
    model = shrinking_loop_model()
    # z(pi/2) = (0.5, 0): exactly on sigma, well inside any guard
    seed = FourierTrajectory(TWO_PI, (), [[0.5, 0.0], [0.0, 0.25]])
    with pytest.raises(OptimizeError, match="cannot be classified"):
        minimize(model, seed, SolveOptions(N=2))
    # z(pi/2) = (0.5005, 0): classified, but 5e-4 from sigma
    seed = FourierTrajectory(TWO_PI, (), [[0.5005, 0.0], [0.0, 0.3]])
    with pytest.raises(OptimizeError,
                       match="seed clears sigma by 5.000e-04, below "
                             "guard_delta = 0.001"):
        minimize(model, seed, SolveOptions(N=2))
    # one coordinate, sigma = {0.5, -0.5}: no windings; the node at
    # t = pi/2 is 5e-4 from sigma
    line = ModelSpec(m=1, n=0, omega=TWO_PI, nu=(), metric=[[ex.const(1.0)]],
                     gyro=[ex.const(0.0)], potential=ex.parse("0.5*z1^2", 1),
                     constants=GrowthConstants(0, 0, 0.5, 0.5, 0, 0),
                     sigma_base=((0.5,),))
    with pytest.raises(OptimizeError,
                       match="seed violates the singularity guard"):
        minimize(line, FourierTrajectory(TWO_PI, (), [[0.5005]]),
                 SolveOptions(N=1))
    assert minimize(line, FourierTrajectory(TWO_PI, (), [[0.3]]),
                    SolveOptions(N=1)).status == "Converged"


def test_penalty_free_model_runs_single_phase():
    res = solve_in_class(builtin("two_centers"), 1, SolveOptions(N=16))
    assert {row["mu"] for row in res.history} == {0.0}
    assert res.multipliers is None


def test_result_to_dict_shape():
    res = solve_in_class(builtin("two_centers"), 1, SolveOptions(N=16))
    d = res.to_dict()
    assert set(d) == {"status", "report", "history", "windings"}
    assert d["windings"] == {"[1.0, 0.0]": -1, "[-1.0, 0.0]": 1}


def _record_iterates(monkeypatch):
    """Wrap _Objective.value_and_grad; keep (objective, b, S, |g|) per call."""
    calls = []
    original = _Objective.value_and_grad

    def wrapped(self, b_flat, z, lam=None):
        S, g, F = original(self, b_flat, z, lam)
        calls.append((self, b_flat.copy(), S, float(np.linalg.norm(g))))
        return S, g, F

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
        # the action is linear along b_1 (the resonance); a seed there
        # alone leaves L-BFGS only rounding noise as curvature, so the
        # seed sits in b_8, where the curvature is real
        res = minimize(builtin("forced_oscillator"),
                       FourierTrajectory(TWO_PI, (), [[0.0]] * 7 + [[1.0]]),
                       SolveOptions(N=8))
        assert res.status == "Diverged"
    assert len(res.history) > 5
    for row in res.history:
        # the iterate of a row is the evaluated point with its S and |g|
        matches = [(obj, b) for obj, b, S, gn in calls
                   if S == row["S_mu"] and gn == row["grad_norm"]]
        assert matches, f"no evaluation matches history row {row['iter']}"
        for obj, b in matches:
            assert row["min_distance"] == obj.nodes(b)[1]
            assert row["h1"] == h1_seminorm(obj.traj(b))


def test_seed_objective_is_evaluated_once(monkeypatch):
    """With a positive margin the seed's S sets the a priori radius and
    starts the only phase: one evaluation serves both."""
    calls = _record_iterates(monkeypatch)
    solve_in_class(builtin("two_centers"), 1, SolveOptions(N=48))
    seed_b = calls[0][1]
    assert not np.array_equal(calls[1][1], seed_b)
    assert sum(np.array_equal(b, seed_b) for _, b, _, _ in calls) == 1


def test_seed_domain_error_is_optimize_error():
    """The seed's evaluation for the a priori radius reports a domain
    error as OptimizeError, as every later evaluation does."""
    model = ModelSpec(m=1, n=0, omega=TWO_PI, nu=(), metric=[[ex.const(1.0)]],
                      gyro=[ex.const(0.0)], potential=ex.parse("log(z1^2)", 1),
                      constants=GrowthConstants(0, 0, 0, 0.5, 0, 0))
    seed = FourierTrajectory(TWO_PI, (), [[1.0], [0.0], [0.0], [0.0]])
    with pytest.raises(OptimizeError, match="domain error at iteration 0"):
        minimize(model, seed, SolveOptions(N=4))


def test_line_search_rejects_candidates_outside_the_domain(monkeypatch):
    """A candidate whose potential leaves its domain is rejected and the
    step halved: V = 3 z1^2 + log(4 - z1^2) pulls the loop towards
    |z1| = 2, where the log is undefined, and the solve converges inside."""
    model = ModelSpec(m=1, n=0, omega=TWO_PI, nu=(), metric=[[ex.const(1.0)]],
                      gyro=[ex.const(0.0)],
                      potential=ex.parse("3*z1^2 + log(4 - z1^2)", 1),
                      constants=GrowthConstants(C=0, M=0, A=3, K=0.5, P=0,
                                                C1=math.log(4.0)))
    seed = FourierTrajectory(TWO_PI, (), [[0.5]] + [[0.0]] * 7)
    errors = []
    original = _Objective.value_and_grad

    def wrapped(self, b_flat, z, lam=None):
        try:
            return original(self, b_flat, z, lam)
        except ex.EvalDomainError as err:
            errors.append(str(err))
            raise

    monkeypatch.setattr(_Objective, "value_and_grad", wrapped)
    res = minimize(model, seed, SolveOptions(N=8))
    assert res.status == "Converged"
    assert errors == ["log of nonpositive value in subexpression "
                      "'log(4 - z1^2)'"] * 3
    assert _rejections(res.history)["domain"] == 3
    assert np.max(np.abs(sample(res.trajectory, 64).z)) < 2.0


def test_line_search_domain_error_everywhere_is_optimize_error():
    """A search whose every candidate leaves the potential's domain raises
    OptimizeError.  At the seed z1 = sin t, (1 - z1)^1.5 is defined and
    0 at t = pi/2, and the pull 5 z1 sin t moves that node past z1 = 1
    for every step length the search tries."""
    model = ModelSpec(
        m=1, n=0, omega=TWO_PI, nu=(), metric=[[ex.const(1.0)]],
        gyro=[ex.const(0.0)],
        potential=ex.parse("5*z1*sin(t) - 0.5*z1^2 - 0.001*(1 - z1)^1.5", 1),
        constants=GrowthConstants(0, 0, 0, 0.5, 0, 0))
    seed = FourierTrajectory(TWO_PI, (), [[1.0], [0.0], [0.0], [0.0]])
    with pytest.raises(OptimizeError,
                       match="expression domain error persisted through "
                             "the line search at iteration 0: negative base "
                             "under fractional power"):
        minimize(model, seed, SolveOptions(N=4, M=32))


def test_winding_certificate_is_sound(rng):
    """The clearance bound of an iterate is below its refined clearance,
    and a step of total coefficient size below the bound, in a random
    direction or pushing the nearest point of the curve straight at
    sigma, keeps every winding number."""
    model = builtin("two_centers")
    sigma = singular_set(model)
    opts = SolveOptions(N=16)
    seed = seed_curve(2, sigma, model.omega, opts.N)
    obj = _Objective(model, seed, opts.M)
    decay = 0.7 ** np.arange(opts.N)[:, None]
    checked = 0
    for _ in range(60):
        B = seed.coeffs + 0.05 * decay * rng.normal(size=obj.shape)
        z, dist = obj.nodes(B.reshape(-1))
        clear = obj.clearance(B.reshape(-1), dist)
        before = winding_signature(obj.traj(B.reshape(-1)), sigma)
        assert clear < before.min_distance
        if clear <= 0.0:
            continue
        # the node nearest to sigma, pushed towards its singular point
        d = [np.linalg.norm(z - np.asarray(p), axis=1)
             for p in obj.sig_centers]
        c, i = np.unravel_index(int(np.argmin(d)), (len(d), len(z)))
        toward = np.asarray(obj.sig_centers[c]) - z[i]
        wave = np.sin(obj.grid.w * obj.grid.t[i])
        k = int(np.argmax(np.abs(wave)))
        push = np.zeros(obj.shape)
        push[k] = np.sign(wave[k]) * toward / np.linalg.norm(toward)
        for step in (rng.normal(size=obj.shape), push):
            size = float(np.sum(np.linalg.norm(step, axis=1)))
            step = step * rng.uniform(0.9, 1.0) * clear / size
            moved = np.abs(evaluate_path(obj.traj(step.reshape(-1)),
                                         obj.grid.t))
            assert np.max(np.linalg.norm(moved, axis=1)) <= clear
            after = winding_signature(obj.traj((B + step).reshape(-1)),
                                      sigma)
            assert after.windings == before.windings
            checked += 1
    assert checked >= 60


def test_winding_certificate_replaces_grid_checks_only(monkeypatch):
    """Steps the clearance bound certifies skip the winding grids.  With
    the bound disabled every accepted step is classified there, and the
    solve is the same bit for bit."""
    model, opts = builtin("two_centers"), SolveOptions(N=24)
    calls = count_calls(monkeypatch, _Objective, "windings")
    res = solve_in_class(model, 2, opts)
    certified = len(calls)
    calls.clear()
    monkeypatch.setattr(_Objective, "clearance",
                        lambda self, b_flat, node_distance: -math.inf)
    ref = solve_in_class(model, 2, opts)
    assert len(calls) >= len(ref.history) - 1 > 20
    assert certified < len(calls) / 10
    assert res.status == ref.status == "Converged"
    assert np.array_equal(res.trajectory.coeffs, ref.trajectory.coeffs)
    assert res.history == ref.history


def _two_loop_direction(pairs, H0, grad):
    """The two-loop recursion over (s, y) pairs, oldest first, with the
    seed matrix gamma * H0: the reference for the compact form."""
    q = grad.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = np.dot(s, q) / np.dot(y, s)
        alphas.append(a)
        q -= a * y
    gamma = 1.0
    if pairs:
        s, y = pairs[-1]
        gamma = np.dot(s, y) / np.dot(y, H0 @ y)
    q = gamma * (H0 @ q)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - np.dot(y, q) / np.dot(y, s)) * s
    return -q


def _check_compact_direction(rng, memory, H0):
    """Push pairs into memory and compare each direction with the
    two-loop recursion's, through evictions, skipped pairs, window copies
    and clear().  About 3.4 LBFGS_PAIRS pairs are kept before the clear,
    so the window of the newest pairs reaches the end of its buffer of
    2 LBFGS_PAIRS rows and moves to the front at least once; after the
    clear it fills from the front again."""
    n = len(H0)
    kept = []
    copies = 0
    for step in range(5 * LBFGS_PAIRS + 5):
        if step == 4 * LBFGS_PAIRS:
            memory.clear()
            kept.clear()
        s = rng.normal(size=n)
        # mostly curvature-positive pairs; every seventh is skipped
        y = (-s if step % 7 == 3 else s * rng.uniform(0.5, 3.0, size=n)
             + 0.1 * rng.normal(size=n))
        lo = memory.lo
        memory.push(s, y)
        copies += memory.lo < lo
        if step % 7 != 3:
            kept.append((s, y))
        pairs = kept[-LBFGS_PAIRS:]
        assert len(memory) == len(pairs)
        assert np.array_equal(memory.S, np.reshape([p[0] for p in pairs],
                                                   (-1, n)))
        assert np.array_equal(memory.Y, np.reshape([p[1] for p in pairs],
                                                   (-1, n)))
        grad = rng.normal(size=n)
        want = _two_loop_direction(pairs, H0, grad)
        got = memory.direction(grad)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert copies >= 1, "the window never reached the end of its buffer"
    memory.clear()
    assert len(memory) == 0 and memory.lo == 0


def test_lbfgs_compact_direction_matches_two_loop(rng):
    """The compact-form direction equals the two-loop recursion's to
    rounding, keeps the newest LBFGS_PAIRS accepted pairs through
    evictions, skipped pairs and clear(), and is exactly -d0*g with no
    pairs."""
    d0 = rng.uniform(0.1, 2.0, size=37)
    memory = _LbfgsMemory(d0)
    _check_compact_direction(rng, memory, np.diag(d0))
    grad = rng.normal(size=37)
    assert np.array_equal(memory.direction(grad), -d0 * grad)


def test_lbfgs_dense_seed_matches_two_loop(rng):
    """A 2-D seed is the matrix D itself, and the compact form still
    equals the two-loop recursion with that seed."""
    n = 36
    root = rng.normal(size=(n, n))
    D = root @ root.T / n + 0.1 * np.eye(n)
    memory = _LbfgsMemory(D)
    _check_compact_direction(rng, memory, D)
    grad = rng.normal(size=n)
    assert np.array_equal(memory.direction(grad), -(D @ grad))


def test_objective_builds_one_sine_grid(monkeypatch):
    """The quadrature grid is the objective's only sine table; winding
    checks sample by inverse FFT.  A curve through sigma has no windings
    (None)."""
    model, opts = builtin("two_centers"), SolveOptions(N=48)
    seed = seed_curve(1, singular_set(model), model.omega, opts.N)
    grids = count_calls(monkeypatch, SineGrid, "__init__")
    obj = _Objective(model, seed, opts.M)
    assert len(grids) == 1
    assert obj.windings(seed.coeffs.reshape(-1)) == winding_signature(
        seed, singular_set(model)).windings
    through = np.zeros(seed.coeffs.shape)
    through[0] = model.sigma_base[0]  # z(omega/4) = r0
    assert obj.windings(through.reshape(-1)) is None
    assert len(grids) == 1


def _report_bits(report):
    return [float(v).hex() for v in report.to_dict().values()]


def test_unconstrained_report_comes_from_the_loop(monkeypatch):
    """Without penalty phases the final ActionReport takes S and the
    gradient norm from the loop, bit for bit what action_report computes.
    nearest_distances then runs only for the node guards of the seed and
    the candidates and for the distance profiles (one grid and one set of
    Newton-refined times each): no quadrature pass at the end."""
    model, opts = builtin("two_centers"), SolveOptions(N=24)
    counted = [count_calls(monkeypatch, sys.modules[f"minact.{name}"],
                           "nearest_distances")
               for name in ("action", "optimize", "trajectory")]
    nodes = count_calls(monkeypatch, _Objective, "nodes")
    builds = count_builds(monkeypatch)
    res = solve_in_class(model, 1, opts)
    profiles = [M for kind, _, M in builds if kind == "profile"]
    assert res.status == "Converged" and len(profiles) == 2
    assert sum(map(len, counted)) == len(nodes) + 2 * len(profiles)
    assert _report_bits(res.report) == _report_bits(
        action_report(model, res.trajectory, opts.M))
    for model, seed, opts in (
            (harmonic_model(), FourierTrajectory(TWO_PI, (), 0.3 * np.ones(
                (8, 1))), SolveOptions(N=8)),
            (constrained_planar_model(), FourierTrajectory(
                TWO_PI, (), 0.1 * np.ones((6, 2))), SolveOptions(N=6))):
        res = minimize(model, seed, opts)
        # a constrained grad_norm is the loop's, with the multiplier terms
        got, want = (replace(r, grad_norm=0.0) if model.constraints else r
                     for r in (res.report, action_report(
                         model, res.trajectory, opts.M)))
        assert _report_bits(got) == _report_bits(want)
