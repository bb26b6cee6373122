"""Hypothesis checking, Euler-Lagrange residuals, and homotopy certificates."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from minact import expr as ex
from minact.model import (BUILTIN_NAMES, Constraint, GrowthConstants,
                          ModelSpec, SingularSet, builtin, model_to_dict,
                          singular_set, with_nu, with_omega)
from minact.trajectory import FourierTrajectory, h1_seminorm, \
    min_distance_to, seed_curve, winding_signature
from minact.action import LagrangianTerms, action_gradient, action_report
from minact.optimize import SolveOptions, minimize, solve_in_class
from minact.verify import (SamplerOptions, VerifyError, check_hypotheses,
                           el_residual, energy_drift, holder_seminorm,
                           homotopy_equiv_sufficient, recover_multipliers,
                           _draw_samples, _el_residual_values,
                           _min_norm_step, _project_feasible)
from minact.trajectory import sample

from conftest import (constrained_planar_model, count_builds, count_calls,
                      free_drift_model, harmonic_model, random_trajectory,
                      reference_refine_feasible)

TWO_PI = 2.0 * math.pi


def flat_model(m=2, omega=TWO_PI, constants=None, **kw):
    """Euclidean model with zero gyro/potential; K = 1/2 matches g = I."""
    base = dict(
        m=m, n=0, omega=omega, nu=(),
        metric=[[ex.parse("1" if i == j else "0", m) for j in range(m)]
                for i in range(m)],
        gyro=[ex.parse("0", m) for _ in range(m)],
        potential=ex.parse("0", m),
        constants=constants or GrowthConstants(C=0, M=0, A=0, K=0.5, P=0, C1=0))
    base.update(kw)
    return ModelSpec(**base)


# ---------------------------------------------------------------------------
# hypothesis checks: models that satisfy everything


def test_hypotheses_tube_ball_pass():
    """The tube-and-ball system satisfies every hypothesis with margin 1/4."""
    rep = check_hypotheses(builtin("tube_ball"))
    assert rep.overall, f"violated: {rep.violated}"
    assert rep.violated == []
    assert abs(rep.margin - 0.25) < 1e-12, f"margin = {rep.margin}"
    assert all(rep.parity_ok.values())
    assert rep.rank_min_sv == math.inf  # no constraints to rank-check


def test_hypotheses_two_centers_pass():
    """The two-center problem passes with margin K = 1/2."""
    rep = check_hypotheses(builtin("two_centers"))
    assert rep.overall, f"violated: {rep.violated}"
    assert abs(rep.margin - 0.5) < 1e-12, f"margin = {rep.margin}"


def test_hypotheses_cylinder_parity_counterexample():
    """Gravity on the cylinder breaks only the potential parity condition."""
    rep = check_hypotheses(builtin("cylinder"))
    assert not rep.overall
    assert rep.violated == ["condition 1 (parity): not even: V"], rep.violated
    assert abs(rep.margin - 0.25) < 1e-12, f"margin = {rep.margin}"
    wit = rep.witnesses["parity:V"]
    assert abs(wit["value"] - wit["reflected"]) > 1e-6, \
        f"witness does not separate: {wit}"


def test_hypotheses_forced_oscillator_margin_counterexample():
    """The resonant oscillator fails only the coercivity margin condition."""
    rep = check_hypotheses(builtin("forced_oscillator"))
    assert not rep.overall
    assert abs(rep.margin - (0.5 - math.pi ** 2)) < 1e-12, f"margin = {rep.margin}"
    assert rep.violated == [
        "condition 2 (coercivity margin): margin = -9.369604401089358 <= 0"
    ], rep.violated


# ---------------------------------------------------------------------------
# hypothesis checks: engineered falsifications, one condition at a time


def test_hypotheses_constraint_parity_falsified():
    """A constraint declared even but actually odd is caught by sampling."""
    model = flat_model(constraints=(Constraint(ex.parse("z1 + z2", 2), "even"),))
    rep = check_hypotheses(model)
    assert not rep.overall
    assert rep.violated == ["condition 1 (parity): not even: constraint[0]"]
    assert rep.parity_ok == {"g": True, "a": True, "V": True,
                             "constraint[0]": False}
    assert "parity:constraint[0]" in rep.witnesses


def test_hypotheses_potential_bound_falsified():
    """V = z1^2 grows past a declared quadratic cap with A = 0.01."""
    model = flat_model(potential=ex.parse("z1^2", 2),
                       constants=GrowthConstants(C=0, M=0, A=0.01, K=0.5,
                                                 P=0, C1=0))
    rep = check_hypotheses(model)
    assert rep.violated == ["condition 3 (growth bounds): falsified for V"]
    wit = rep.witnesses["bound_V"]
    assert wit["V"] > wit["bound"], f"witness not violating: {wit}"
    assert rep.margin > 0.0  # isolate condition 3


def test_hypotheses_gyro_bound_falsified():
    """A gyroscopic term growing like z1^2 escapes the declared C + M|z|
    cap; the witness names its component as an integer, in report.json
    too."""
    for d in (0, 1):
        gyro = [ex.parse("0", 2), ex.parse("0", 2)]
        gyro[d] = ex.parse("z1^2", 2)
        rep = check_hypotheses(flat_model(gyro=gyro))
        assert rep.violated == [
            "condition 3 (growth bounds): falsified for a"]
        wit = rep.witnesses["bound_a"]
        assert abs(wit["value"]) > wit["cap"], f"witness not violating: {wit}"
        assert type(wit["component"]) is int and wit["component"] == d
        assert f'"component": {d},' in json.dumps(rep.to_dict())


def test_hypotheses_metric_bound_falsified():
    """A metric of 0.1 cannot dominate K = 1/2 on unit directions."""
    model = flat_model(m=1, metric=[[ex.parse("0.1", 1)]],
                       gyro=[ex.parse("0", 1)], potential=ex.parse("0", 1))
    rep = check_hypotheses(model)
    assert rep.violated == ["condition 3 (growth bounds): falsified for g"]
    wit = rep.witnesses["bound_g"]
    assert abs(wit["half_quad"] - 0.05) < 1e-12, f"half_quad = {wit['half_quad']}"
    assert wit["K"] == 0.5


def test_hypotheses_rank_deficiency_falsified():
    """Two proportional constraint gradients fail the rank condition; every
    feasible point fails, so the witness is the first sample, projected."""
    model = flat_model(m=3, constraints=(Constraint(ex.parse("z1", 3), "odd"),
                                         Constraint(ex.parse("2*z1", 3), "odd")))
    rep = check_hypotheses(model)
    assert rep.violated == [
        "condition 4 (constraint rank): rank deficient at a feasible point"]
    assert rep.rank_min_sv == 0.0, f"rank_min_sv = {rep.rank_min_sv}"
    t, z = _draw_samples(model, SamplerOptions())
    wit = rep.witnesses["rank"]
    assert wit["t"] == t[0]
    assert np.allclose(wit["z"], [0.0, z[0, 1], z[0, 2]], rtol=0, atol=1e-12)


def test_hypotheses_rank_gradient_outside_domain_fails_condition_4():
    """sqrt(z1^2) vanishes on z1 = 0, where its gradient divides by zero:
    every feasible point fails condition 4, and the witness is the first
    in sample order, with the domain error."""
    model = flat_model(constraints=(
        Constraint(ex.parse("sqrt(z1^2)", 2), "even"),))
    rep = check_hypotheses(model)
    assert rep.violated == [
        "condition 4 (constraint rank): rank deficient at a feasible point"]
    assert not rep.rank_ok and rep.warnings == []
    t, z = _draw_samples(model, SamplerOptions())
    zf, feasible = _project_feasible(LagrangianTerms(model), t, z)
    i = int(np.argmax(feasible))
    wit = rep.witnesses["rank"]
    assert wit["t"] == t[i] and np.array_equal(wit["z"], zf[i])
    assert "division by zero" in wit["error"], wit
    json.dumps(rep.to_dict())  # must not raise


_PROJECTION_CASES = {
    "constrained_oscillator": (constrained_planar_model(), 2000),
    "circle": (flat_model(constraints=(
        Constraint(ex.parse("z1^2 + z2^2 - 4", 2), "even"),)), 200),
    "partial_domain": (flat_model(constraints=(
        Constraint(ex.parse("sqrt(z1) - 1", 2), "even"),)), 200),
    "proportional_pair": (flat_model(m=3, constraints=(
        Constraint(ex.parse("z1", 3), "odd"),
        Constraint(ex.parse("2*z1", 3), "odd"))), 200),
    # the gradient z1/sqrt(z1^2) divides by zero on the zero set itself,
    # so a converged row must not evaluate it
    "gradient_undefined_on_zero_set": (flat_model(constraints=(
        Constraint(ex.parse("sqrt(z1^2)", 2), "even"),)), 200),
}


@pytest.mark.parametrize("name", sorted(_PROJECTION_CASES))
def test_batched_projection_matches_per_sample_reference(name):
    """All samples projected at once land where one-by-one Gauss-Newton
    lands, with the same feasibility verdict per sample."""
    model, count = _PROJECTION_CASES[name]
    terms = LagrangianTerms(model)
    t, z = _draw_samples(model, SamplerOptions(count=count))
    got, feasible = _project_feasible(terms, t, z)
    for i in range(count):
        want, ok = reference_refine_feasible(terms, float(t[i]), z[i])
        assert feasible[i] == ok, (i, z[i])
        assert np.allclose(got[i], want, rtol=0, atol=1e-12), (i, z[i])
    assert 0 < np.sum(feasible)
    if name == "partial_domain":
        assert not np.all(feasible)  # rows with z1 < 0 leave the domain


def test_projection_runs_are_independent_of_sample_count(monkeypatch):
    """The constraint check makes at most two tape runs per Gauss-Newton
    iteration and one for the rank, however many samples it projects."""
    runs = []
    original = LagrangianTerms.fields

    def counted(self, t, z, kind="objective"):
        if kind in ("constraints", "constraint_jacobian"):
            runs.append(len(t))
        return original(self, t, z, kind)

    monkeypatch.setattr(LagrangianTerms, "fields", counted)
    model = constrained_planar_model()
    for count in (200, 2000):
        runs.clear()
        rep = check_hypotheses(model, SamplerOptions(count=count))
        assert rep.rank_ok
        assert 0 < len(runs) <= 2 * 60 + 1
        assert max(runs) == count


@pytest.mark.parametrize("l", [1, 2])
def test_gram_step_equals_pinv_step(rng, l, monkeypatch):
    """The projection's step J^T beta, (J J^T) beta = -F, is pinv(J) @ -F
    to 1e-12 relative on random full-row-rank stacks.  The Gram route
    squares J's condition number, so the stacks' singular values are
    drawn from [0.5, 2].  A single constraint's Gram matrix is 1x1: the
    step is a division, with no LAPACK call, and a zero row (a vanishing
    gradient) gets pinv's zero step."""
    K, dim = 500, 3
    U = np.linalg.qr(rng.normal(size=(K, l, l)))[0]
    V = np.linalg.qr(rng.normal(size=(K, dim, l)))[0]
    J = U * rng.uniform(0.5, 2.0, size=(K, 1, l)) @ np.swapaxes(V, 1, 2)
    J[7] = 0.0
    F = rng.normal(size=(K, l))
    lapack = [count_calls(monkeypatch, np.linalg, name)
              for name in ("eigvalsh", "solve", "pinv")]
    got = _min_norm_step(J, F)
    if l == 1:
        assert lapack == [[], [], []]
    want = (np.linalg.pinv(J) @ -F[..., None])[..., 0]
    assert np.array_equal(got[7], np.zeros(dim)) and np.array_equal(
        want[7], np.zeros(dim))
    keep = np.arange(K) != 7
    err = (np.linalg.norm(got - want, axis=1)[keep]
           / np.linalg.norm(want, axis=1)[keep])
    assert np.max(err) <= 1e-12, np.max(err)


def test_single_constraint_rank_is_the_gradient_norm(monkeypatch):
    """For one constraint the rank check's singular value is the norm of
    the constraint gradient, read without an SVD: on the circle
    z1^2 + z2^2 = 4 every feasible point has |grad f| = 2|z| = 4."""
    model = flat_model(constraints=(
        Constraint(ex.parse("z1^2 + z2^2 - 4", 2), "even"),))
    svd = count_calls(monkeypatch, np.linalg, "svd")
    rep = check_hypotheses(model)
    assert svd == []
    assert rep.rank_ok and abs(rep.rank_min_sv - 4.0) <= 1e-9, \
        rep.rank_min_sv


def test_gram_step_takes_pinv_on_singular_rows(monkeypatch):
    """A zero Jacobian and a duplicated constraint row make singular Gram
    matrices: those rows, and only those, go through pinv and get pinv's
    step; the regular row is solved."""
    a = np.array([1.0, -2.0, 0.5])
    J = np.array([np.zeros((2, 3)), [a, a], [a, [0.0, 1.0, 1.0]]])
    F = np.array([[0.3, -0.1], [0.7, 0.7], [0.2, -0.4]])
    want = (np.linalg.pinv(J) @ -F[..., None])[..., 0]
    pinv_calls = count_calls(monkeypatch, np.linalg, "pinv")
    got = _min_norm_step(J, F)
    assert [len(args[0]) for args in pinv_calls] == [2]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15), (got, want)
    assert np.array_equal(got[0], [0.0, 0.0, 0.0])


def test_hypotheses_infeasible_constraint_warns():
    """A constraint with empty zero set skips the rank check with a warning."""
    model = flat_model(constraints=(Constraint(ex.parse("z1^2 + 1", 2), "even"),))
    rep = check_hypotheses(model)
    assert rep.overall  # nothing falsified, only unverifiable
    assert rep.warnings == ["no feasible constraint points found; "
                            "rank check skipped"]
    assert rep.rank_ok and rep.rank_min_sv == math.inf


def test_hypotheses_partial_domain_warns():
    """A potential undefined on half the box skips its bound check."""
    model = flat_model(m=1, metric=[[ex.parse("1", 1)]],
                       gyro=[ex.parse("0", 1)],
                       potential=ex.parse("sqrt(z1)", 1))
    rep = check_hypotheses(model)
    assert rep.overall
    assert rep.bound_V_ok
    assert len(rep.warnings) == 1 and "bound check skipped" in rep.warnings[0], \
        f"warnings = {rep.warnings}"


def test_check_runs_the_model_data_on_one_tape(monkeypatch):
    """check evaluates every g entry, a, V and f in one tape run on the
    samples and their reflections (-t, -z), and an unconstrained model
    builds no LagrangianTerms.  The reports equal those of the per-tree
    and per-bound path that a domain error in that run falls back to."""
    builds = count_calls(monkeypatch, LagrangianTerms, "__init__")
    runs = count_calls(monkeypatch, ex.Tape, "run")
    sampler = SamplerOptions(count=60, rng_seed=5)
    reports = {name: check_hypotheses(builtin(name), sampler).to_dict()
               for name in BUILTIN_NAMES}
    assert builds == [] and len(runs) == len(BUILTIN_NAMES)
    original = ex.Tape.run

    def refused(self, t, z):
        if len(t) == 2 * sampler.count:  # only the stacked run
            raise ex.EvalDomainError("refused", ex.ZERO)
        return original(self, t, z)

    monkeypatch.setattr(ex.Tape, "run", refused)
    for name in BUILTIN_NAMES:
        assert check_hypotheses(builtin(name), sampler).to_dict() == \
            reports[name], name
    assert builds


def test_hypotheses_sampler_box_matters():
    """A quartic potential passes in a small box and is falsified in a large one."""
    model = flat_model(omega=0.1, potential=ex.parse("z1^4", 2),
                       constants=GrowthConstants(C=0, M=0, A=1.0, K=0.5,
                                                 P=0, C1=0))
    small = check_hypotheses(model, SamplerOptions(count=200, box_radius=0.5))
    large = check_hypotheses(model, SamplerOptions(count=200, box_radius=5.0))
    assert small.bound_V_ok and small.overall
    assert not large.bound_V_ok


def test_hypotheses_deterministic_and_json_safe():
    """Reports are reproducible and serialize to JSON including witnesses."""
    model = flat_model(potential=ex.parse("z1^2", 2),
                       constants=GrowthConstants(C=0, M=0, A=0.01, K=0.5,
                                                 P=0, C1=0))
    a = json.dumps(check_hypotheses(model).to_dict(), sort_keys=True)
    b = json.dumps(check_hypotheses(model).to_dict(), sort_keys=True)
    assert a == b, "hypothesis report is not reproducible"
    json.dumps(check_hypotheses(builtin("cylinder")).to_dict())  # must not raise


def test_sampler_options_validate():
    """Sampler options reject a non-positive count or box radius."""
    with pytest.raises(VerifyError):
        SamplerOptions(count=0)
    with pytest.raises(VerifyError):
        SamplerOptions(box_radius=0.0)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals


def test_el_residual_harmonic_solution_zero():
    """x = sin t solves the unit harmonic oscillator with zero residual."""
    rep = el_residual(harmonic_model(), FourierTrajectory(TWO_PI, (), [[1.0]]), 32)
    assert rep.el_sup <= 1e-12, f"el_sup = {rep.el_sup}"
    assert rep.el_l2 <= 1e-12, f"el_l2 = {rep.el_l2}"
    assert rep.multipliers is None
    assert rep.energy_drift <= 1e-12, f"drift = {rep.energy_drift}"


def test_el_residual_free_drift_zero():
    """Pure drift on a free angle has identically zero residual."""
    traj = FourierTrajectory(TWO_PI, (1,), np.zeros((1, 1)))
    rep = el_residual(free_drift_model(), traj, 16)
    assert rep.el_sup == 0.0, f"el_sup = {rep.el_sup}"
    assert rep.energy_drift == 0.0
    assert rep.min_distance == math.inf  # no singular set


def test_el_residual_tube_ball_minimizer():
    """The tube-and-ball minimizer satisfies its equations to solver accuracy."""
    model = builtin("tube_ball")
    res = solve_in_class(model, None, SolveOptions(N=16, M=160, grad_tol=1e-10))
    assert res.status == "Converged", res.status
    rep = el_residual(model, res.trajectory, 160)
    assert rep.el_sup < 1e-8, f"el_sup = {rep.el_sup}"
    assert rep.el_l2 <= rep.el_sup * math.sqrt(model.omega) + 1e-15
    assert rep.energy_drift < 1e-9, f"drift = {rep.energy_drift}"


def test_el_residual_matches_action_gradient():
    """Projecting the residual on the sine basis reproduces the action gradient."""
    model = ModelSpec(
        m=2, n=0, omega=TWO_PI, nu=(),
        metric=[[ex.parse("1 + 0.25*z2^2", 2), ex.parse("0.1*z1*z2", 2)],
                [ex.parse("0.1*z1*z2", 2), ex.parse("1 + 0.25*z1^2", 2)]],
        gyro=[ex.parse("0.2*z2^2", 2), ex.parse("0.3*z1*z2", 2)],
        potential=ex.parse("0.5*z1^2*z2^2 + 0.1*z1^4 + 0.2*z1*sin(t)", 2),
        constants=GrowthConstants(C=0, M=0, A=1.0, K=0.5, P=0, C1=0))
    terms = LagrangianTerms(model)
    rng = np.random.default_rng(5)
    M = 128  # large enough that rectangle quadrature is exact for these data
    for _ in range(20):
        traj = random_trajectory(rng, dim=2, N=4, scale=0.8)
        grad = action_gradient(model, traj, M)
        path = sample(traj, M)
        resid = _el_residual_values(terms, path)
        S_mat = np.sin(np.outer(path.t, traj.frequencies()))
        projected = -(model.omega / M) * (S_mat.T @ resid)
        err = np.max(np.abs(grad - projected)) / (1.0 + np.max(np.abs(grad)))
        assert err < 1e-12, f"gradient/residual mismatch: {err}"


def test_el_residual_two_coil_n48_is_truncation_floor():
    """At 48 modes the two-coil orbit's residual is its first omitted mode.

    The solve meets its Galerkin conditions (no residual on modes 1..48),
    and the mode-49 residual is the force the true orbit balances with its
    own mode-49 acceleration, 49^2 b*_49.  Since sup|R| >= (pi/4)|r_k| for
    any sine coefficient r_k, that term bounds el_sup from below for every
    48-mode curve near the orbit, and tightening the solve does not move it.
    """
    model = builtin("two_centers")
    terms = LagrangianTerms(model)
    res = solve_in_class(model, 2, SolveOptions(N=48, M=512, grad_tol=1e-8))
    assert res.status == "Converged", res.status
    M = 4096
    path = sample(res.trajectory, M)
    R = _el_residual_values(terms, path)
    k = np.arange(1, 50)
    r = (2.0 / M) * np.sin(np.outer(path.t, TWO_PI * k / model.omega)).T @ R
    galerkin = np.max(np.abs(r[:48]))
    assert galerkin < 1e-8, f"max |r_k|, k <= 48: {galerkin:.3e}"

    fine = solve_in_class(model, 2, SolveOptions(N=96, M=512, grad_tol=1e-8))
    assert fine.status == "Converged", fine.status
    tail = 49 ** 2 * fine.trajectory.coeffs[48]
    mismatch = np.linalg.norm(r[48] - tail) / np.linalg.norm(tail)
    assert mismatch < 0.05, f"r_49 = {r[48]} vs 49^2 b*_49 = {tail}"

    floor = math.pi / 4 * np.max(np.abs(r[48]))
    assert floor > 1e-5, f"mode-49 floor {floor:.3e}"
    el_sup = el_residual(model, res.trajectory, 512).el_sup
    assert el_sup >= floor, f"el_sup {el_sup:.3e} below floor {floor:.3e}"

    tight = solve_in_class(model, 2, SolveOptions(N=48, M=512,
                                                  grad_tol=1e-11))
    tight_sup = el_residual(model, tight.trajectory, 512).el_sup
    assert abs(tight_sup - el_sup) < 5e-4 * el_sup, \
        f"el_sup {el_sup:.4e} -> {tight_sup:.4e} at grad_tol 1e-11"


def test_surface_slide_el_sup_is_a_truncation_floor():
    """surface_slide's one-coil residual at 48 modes is truncation, not a
    defect: 256 modes cut el_sup by more than 100x (27.35 -> 0.127) while
    the action has already settled (S(256) and S(384) differ by 1.1e-8)."""
    model = builtin("surface_slide")
    solved = {}
    for N in (48, 256, 384):
        res = solve_in_class(model, 1, SolveOptions(N=N))
        assert res.status == "Converged", (N, res.status)
        solved[N] = (res.report.S,
                     el_residual(model, res.trajectory, 8 * N).el_sup)
    assert solved[256][1] < solved[48][1] / 100, solved
    assert abs(solved[256][0] - solved[384][0]) < 1e-5, solved


def test_model_owns_one_compiled_terms(monkeypatch):
    """Solve, residual, energy drift and check share the model's one
    LagrangianTerms; so do with_omega and with_nu copies, while a replace
    that changes a tree builds its own, and holding terms changes neither
    the model's equality, hash, repr nor its file form."""
    builds = count_calls(monkeypatch, LagrangianTerms, "__init__")
    model = builtin("two_centers")
    res = solve_in_class(model, 1, SolveOptions(N=16))
    el_residual(model, res.trajectory, 128)
    energy_drift(model, res.trajectory, 128)
    check_hypotheses(model, SamplerOptions(count=50))
    assert len(builds) == 1
    assert LagrangianTerms.of(model) is builds[0][0]
    other = with_nu(with_omega(model, 5.0), ())
    assert LagrangianTerms.of(other) is LagrangianTerms.of(model)
    assert len(builds) == 1
    changed = replace(model, potential=ex.parse("z1^2 + z2^2", 2))
    assert LagrangianTerms.of(changed) is not LagrangianTerms.of(model)
    assert len(builds) == 2
    copy = replace(model)
    assert copy == model and hash(copy) == hash(model)
    assert repr(copy) == repr(model)
    assert model_to_dict(copy) == model_to_dict(model)


def test_el_residual_node_on_singular_set():
    """A quadrature node landing exactly on a center is refused."""
    model = builtin("two_centers")
    bad = FourierTrajectory(TWO_PI, (), [[1.0, 0.0]])  # hits (1, 0) at t = pi/2
    with pytest.raises(VerifyError):
        el_residual(model, bad, 4)


def test_el_residual_constrained_multipliers():
    """The constrained minimizer's reaction force matches the closed form."""
    model = constrained_planar_model(beta=0.5)
    seed = FourierTrajectory(TWO_PI, (), 0.1 * np.ones((6, 2)))
    res = minimize(model, seed, SolveOptions(N=6))
    assert res.status == "Converged", res.status
    M = 64
    rep = el_residual(model, res.trajectory, M)
    # on z1 = z2 = -beta sin t the raw residual is (-/+) (beta/2) sin t, all
    # of it absorbed by the multiplier on f = z2 - z1
    t = TWO_PI * np.arange(M) / M
    want = 0.25 * np.sin(t)
    assert rep.multipliers.shape == (M, 1)
    err = np.max(np.abs(rep.multipliers[:, 0] - want))
    assert err < 1e-6, f"multiplier error = {err}"
    assert rep.el_sup < 1e-6, f"orthogonal residual = {rep.el_sup}"
    assert rep.constraint_sup < 1e-6, f"constraint_sup = {rep.constraint_sup}"
    assert rep.constraint_rate_sup < 1e-6, f"rate = {rep.constraint_rate_sup}"
    assert not rep.gram_warning


def test_el_residual_dependent_constraints_warn():
    """Proportional constraint gradients trigger the singular-Gram fallback."""
    model = flat_model(m=3, potential=ex.parse("0.5*(z1^2 + z2^2 + z3^2)", 3),
                       constraints=(Constraint(ex.parse("z1", 3), "odd"),
                                    Constraint(ex.parse("2*z1", 3), "odd")))
    traj = FourierTrajectory(TWO_PI, (), [[0.1, 0.2, 0.3]])
    rep = el_residual(model, traj, 16)
    assert rep.gram_warning, "expected a Gram-matrix warning"
    assert np.all(np.isfinite(rep.multipliers))
    assert math.isfinite(rep.el_sup)


def test_clearance_integral_sandwich():
    """omega/(max gap)^2 <= clearance integral <= omega/(min gap)^2."""
    model = builtin("two_centers")
    s = singular_set(model)
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 20:
        traj = random_trajectory(rng, dim=2, N=4, scale=1.5)
        if min_distance_to(traj, s) < 0.2:
            continue  # keep the report well defined
        rep = el_residual(model, traj, 64)
        upper = model.omega / rep.min_distance ** 2
        pts = sample(traj, 1024).z
        reach = np.max(np.linalg.norm(pts, axis=1)) + 1.0  # |witness| = 1
        lower = model.omega / reach ** 2
        assert lower - 1e-9 <= rep.clearance_integral <= upper + 1e-9, \
            f"{lower} !<= {rep.clearance_integral} !<= {upper}"
        checked += 1


# ---------------------------------------------------------------------------
# energy drift


def test_energy_drift_oracle():
    """x = sin 2t in the harmonic well drifts by exactly 3/2 at node pi/4."""
    traj = FourierTrajectory(TWO_PI, (), [[0.0], [1.0]])
    d = energy_drift(harmonic_model(), traj, 16)
    # h = 1/2 + (3/2) cos^2(2t): extremes 2 and 1/2 are both on the grid
    assert abs(d - 1.5) < 1e-12, f"drift = {d}"


def test_energy_drift_needs_autonomous():
    """Time-dependent forcing has no conserved Jacobi integral."""
    traj = FourierTrajectory(TWO_PI, (), [[0.1, 0.1]])
    with pytest.raises(VerifyError):
        energy_drift(builtin("forced_oscillator"), traj, 16)


# ---------------------------------------------------------------------------
# multiplier recovery


def test_recover_multipliers_manufactured():
    """alpha is recovered exactly when R = J^T alpha by construction."""
    rng = np.random.default_rng(0)
    J = rng.normal(size=(2, 4))
    alpha = rng.normal(size=2)
    got, orth, warn = recover_multipliers(J, J.T @ alpha)
    assert np.max(np.abs(got - alpha)) < 1e-12, f"alpha error: {got - alpha}"
    assert np.max(np.abs(orth)) < 1e-12
    assert not warn


def test_recover_multipliers_batched():
    """Batched recovery matches per-node truth across 30 nodes."""
    rng = np.random.default_rng(1)
    J = rng.normal(size=(30, 2, 4))
    alpha = rng.normal(size=(30, 2))
    R = np.einsum("mld,ml->md", J, alpha)
    got, orth, warn = recover_multipliers(J, R)
    assert got.shape == (30, 2)
    assert np.max(np.abs(got - alpha)) < 1e-10, "batched multipliers off"
    assert np.max(np.abs(orth)) < 1e-10
    assert not warn


def test_recover_multipliers_keeps_orthogonal_part():
    """Components orthogonal to the constraint gradients pass through."""
    J = np.array([[1.0, 0.0, 0.0]])
    q = np.array([0.0, 0.0, 1.0])
    got, orth, warn = recover_multipliers(J, J.T @ np.array([2.0]) + q)
    assert abs(got[0] - 2.0) < 1e-12
    assert np.max(np.abs(orth - q)) < 1e-12, f"orth = {orth}"
    assert not warn


def test_recover_multipliers_singular_gram():
    """Duplicate constraint rows fall back to the pseudo-inverse with a warning."""
    J = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    R = np.array([2.0, 0.0, 0.0])
    alpha, orth, warn = recover_multipliers(J, R)
    assert warn, "expected gram warning on duplicate rows"
    assert np.max(np.abs(J.T @ alpha - R)) < 1e-12, "reaction does not span R"
    assert np.max(np.abs(orth)) < 1e-12


def test_recover_multipliers_random_consistency():
    """Recovered reactions always reproduce R up to the orthogonal part."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        M, l, dim = rng.integers(1, 6), rng.integers(1, 3), 4
        J = rng.normal(size=(int(M), int(l), dim))
        R = rng.normal(size=(int(M), dim))
        alpha, orth, _ = recover_multipliers(J, R)
        back = np.einsum("mld,ml->md", J, alpha) + orth
        assert np.max(np.abs(back - R)) < 1e-10, "decomposition broken"
        dots = np.abs(np.einsum("mld,md->ml", J, orth))
        assert np.max(dots) < 1e-8, f"orth not orthogonal: {np.max(dots)}"


# ---------------------------------------------------------------------------
# homotopy certificates


def test_homotopy_identical_loops():
    """A loop is homotopic to itself at any admissible delta."""
    fig8 = FourierTrajectory(TWO_PI, (), [[2.0, 0.0], [0.0, 1.0]])
    s = singular_set(builtin("two_centers"))
    delta = 0.8 * min_distance_to(fig8, s)
    assert homotopy_equiv_sufficient(fig8, fig8, s, delta) == "Homotopic"


def test_homotopy_small_perturbation():
    """A coefficient nudge far below delta/2 keeps the certificate."""
    fig8 = FourierTrajectory(TWO_PI, (), [[2.0, 0.0], [0.0, 1.0]])
    near = FourierTrajectory(TWO_PI, (), [[2.0, 0.001], [0.0008, 1.0]])
    s = singular_set(builtin("two_centers"))
    delta = 0.8 * min_distance_to(fig8, s)
    assert homotopy_equiv_sufficient(fig8, near, s, delta) == "Homotopic"


def test_homotopy_reflection_inconclusive():
    """The point-reflected figure eight cannot be certified equivalent."""
    fig8 = FourierTrajectory(TWO_PI, (), [[2.0, 0.0], [0.0, 1.0]])
    refl = FourierTrajectory(TWO_PI, (), [[-2.0, 0.0], [0.0, -1.0]])
    s = singular_set(builtin("two_centers"))
    delta = 0.8 * min_distance_to(fig8, s)
    assert homotopy_equiv_sufficient(fig8, refl, s, delta) == "Inconclusive"


def test_homotopy_winding_vectors_differ():
    """Different angular winding vectors are never certified."""
    s = SingularSet(base=((3.0, 0.0),), m=1, n=1)
    t1 = FourierTrajectory(TWO_PI, (1,), [[0.1, 0.0]])
    t2 = FourierTrajectory(TWO_PI, (2,), [[0.1, 0.0]])
    assert homotopy_equiv_sufficient(t1, t2, s, 1.0) == "Inconclusive"


def test_homotopy_error_cases():
    """Bad delta, low clearance, and dimension mismatch are rejected."""
    fig8 = FourierTrajectory(TWO_PI, (), [[2.0, 0.0], [0.0, 1.0]])
    s = singular_set(builtin("two_centers"))
    clearance = min_distance_to(fig8, s)
    with pytest.raises(VerifyError):
        homotopy_equiv_sufficient(fig8, fig8, s, -1.0)
    with pytest.raises(VerifyError):
        homotopy_equiv_sufficient(fig8, fig8, s, 2.0 * clearance)
    line = FourierTrajectory(TWO_PI, (), [[1.0]])
    with pytest.raises(VerifyError):
        homotopy_equiv_sufficient(fig8, line, s, 0.1)


# ---------------------------------------------------------------------------
# Hoelder seminorm


def test_holder_below_h1():
    """The 1/2-Hoelder seminorm never exceeds the H1 seminorm."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        traj = random_trajectory(rng, dim=dim, N=5, nu=(1,) * min(dim, 1))
        hs = holder_seminorm(traj, 128)
        h1 = h1_seminorm(traj)
        assert hs <= h1 + 1e-12, f"holder {hs} > h1 {h1}"


def test_holder_sine_value():
    """sup |sin s - sin t|/sqrt(s - t) over a period is about 1.2038."""
    traj = FourierTrajectory(TWO_PI, (), [[1.0]])
    got = holder_seminorm(traj, 512)
    assert abs(got - 1.2038) < 2e-3, f"holder = {got}"
    assert got <= h1_seminorm(traj) + 1e-12  # h1 = sqrt(pi)


@pytest.mark.parametrize("N", [16, 64, 96])
def test_certificate_builds_one_distance_profile(monkeypatch, N):
    """The action report, the winding signature and the residual report
    of one trajectory share one distance profile, also above N = 64,
    where the winding grid is finer than 1024 nodes."""
    model = builtin("two_centers")
    s = singular_set(model)
    coeffs = seed_curve(1, s, model.omega, N).coeffs
    traj = FourierTrajectory(model.omega, (), coeffs)
    builds = count_builds(monkeypatch)
    report = action_report(model, traj, 8 * N)
    sig = winding_signature(traj, s)
    rep = el_residual(model, traj, 8 * N)
    assert [t for kind, t, _ in builds if kind == "profile"] == [traj]
    fresh = FourierTrajectory(model.omega, (), coeffs)
    assert report == action_report(model, fresh, 8 * N)
    assert sig == winding_signature(fresh, s)
    assert rep.to_dict() == el_residual(model, fresh, 8 * N).to_dict()


def test_homotopy_builds_one_profile_per_loop(monkeypatch):
    """The clearance check and the winding signatures of each loop share
    one distance profile."""
    s = singular_set(builtin("two_centers"))
    fig8 = FourierTrajectory(TWO_PI, (), [[2.0, 0.0], [0.0, 1.0]])
    near = FourierTrajectory(TWO_PI, (), [[2.0, 0.001], [0.0008, 1.0]])
    delta = 0.8 * min_distance_to(
        FourierTrajectory(TWO_PI, (), fig8.coeffs), s)
    builds = count_builds(monkeypatch)
    assert homotopy_equiv_sufficient(fig8, near, s, delta) == "Homotopic"
    profiles = [t for kind, t, _ in builds if kind == "profile"]
    assert profiles == [fig8, near]
