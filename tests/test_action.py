"""Discrete action, exact gradient, and the coercivity arithmetic."""

import math
import sys

import numpy as np
import pytest

from minact import expr as ex
from minact.action import (
    LagrangianTerms, NonCoercive, SingularityHit, action, action_gradient,
    action_lower_bound, action_report, apriori_radius, coercivity_margin,
)
from minact.model import BUILTIN_NAMES, GrowthConstants, ModelSpec, builtin
from minact.trajectory import FourierTrajectory, SampledPath, SineGrid, \
    h1_seminorm
from conftest import (coercive_oscillator_model, constrained_planar_model,
                      free_drift_model,
                      harmonic_model, random_trajectory, reference_evaluate)

TWO_PI = 2.0 * math.pi


def k_only(K, C=0.0, M=0.0, A=0.0, P=0.0, C1=0.0):
    return GrowthConstants(C=C, M=M, A=A, K=K, P=P, C1=C1)


def test_action_free_drift_is_pi():
    """S = (1/2) * omega * (2*pi*nu/omega)^2 = pi for nu = 1, omega = 2*pi."""
    model = free_drift_model()
    traj = FourierTrajectory(TWO_PI, (1,), np.zeros((1, 1)))
    S = action(model, traj, 64)
    assert abs(S - math.pi) < 1e-12, f"free drift action {S}"


def test_action_harmonic_solution_is_zero():
    """x = sin t on L = (1/2) dx^2 - (1/2) x^2: kinetic and potential cancel."""
    model = harmonic_model()
    traj = FourierTrajectory(TWO_PI, (), [[1.0]])
    S = action(model, traj, 32)
    assert abs(S) < 1e-12, f"harmonic action {S}"


def test_action_zero_trajectory():
    model = coercive_oscillator_model()
    traj = FourierTrajectory(model.omega, (), np.zeros((4, 1)))
    assert action(model, traj, 16) == 0.0


def test_action_deterministic():
    """Same inputs give bit-identical values."""
    model = builtin("two_centers")
    rng = np.random.default_rng(7)
    traj = random_trajectory(rng, dim=2, N=6, scale=1.5)
    a = action(model, traj, 128)
    b = action(model, traj, 128)
    assert a == b


def test_gradient_of_pure_kinetic_is_diagonal(rng):
    """For L = (1/2) dx^2 the gradient is (2*pi*k/omega)^2 * (omega/2) * b_k."""
    omega = 1.7
    model = ModelSpec(m=1, n=0, omega=omega, nu=(),
                      metric=[[ex.const(1.0)]], gyro=[ex.const(0.0)],
                      potential=ex.const(0.0), constants=k_only(0.5))
    traj = random_trajectory(rng, dim=1, N=5, omega=omega)
    g = action_gradient(model, traj, 64)
    w = TWO_PI * np.arange(1, 6) / omega
    want = (w**2 * omega / 2.0)[:, None] * traj.coeffs
    assert np.allclose(g, want, rtol=1e-12, atol=1e-14), \
        f"kinetic gradient off: {g - want}"


def test_gradient_zero_at_origin():
    """The zero loop is a critical point when dV vanishes at 0."""
    model = coercive_oscillator_model()
    traj = FourierTrajectory(model.omega, (), np.zeros((4, 1)))
    g = action_gradient(model, traj, 16)
    assert np.all(g == 0.0), f"gradient at origin {g}"


def test_gradient_matches_finite_differences(rng):
    """50 random coefficient perturbations on a mixed model."""
    model = builtin("tube_ball")
    traj = random_trajectory(rng, dim=2, N=4, omega=1.0, nu=(1,), scale=0.4)
    M = 64
    g = action_gradient(model, traj, M)
    S0 = action(model, traj, M)
    h = 1e-6
    for _ in range(50):
        direction = rng.normal(size=traj.coeffs.shape)
        direction /= np.linalg.norm(direction)
        Sp = action(model, traj.with_coeffs(traj.coeffs + h * direction), M)
        Sm = action(model, traj.with_coeffs(traj.coeffs - h * direction), M)
        fd = (Sp - Sm) / (2 * h)
        an = float(np.sum(g * direction))
        assert abs(fd - an) <= 1e-6 * (1 + abs(S0)), \
            f"directional derivative {an} vs fd {fd}"


def test_action_guards_singular_nodes():
    """A node exactly on a singular point raises instead of returning inf."""
    model = builtin("two_centers")
    # z(t) = (2 sin t, 0) passes through (1, 0) but not at a node of M = 4;
    # use M such that some node hits sin t = 1/2 exactly: t = pi/6 needs
    # M = 12 (node index 1)
    traj = FourierTrajectory(TWO_PI, (), [[2.0, 0.0]])
    with pytest.raises(SingularityHit):
        action(model, traj, 12)


def test_action_quadrature_is_spectral():
    """Node-count doubling slashes the quadrature error until roundoff."""
    model = builtin("tube_ball")
    rng = np.random.default_rng(11)
    traj = random_trajectory(rng, dim=2, N=3, omega=1.0, nu=(1,), scale=0.3)
    ref = action(model, traj, 4096)
    errs = []
    for M in (8, 16, 32, 64, 128):
        errs.append(abs(action(model, traj, M) - ref))
    for e0, e1 in zip(errs, errs[1:]):
        if e0 < 1e-12:
            break
        assert e1 < e0 / 10.0, f"convergence stalled: {errs}"
    assert errs[-1] < 1e-12, f"final quadrature error {errs[-1]}"


def test_action_negation_symmetry(rng):
    """S(-z) = S(z) when g is even, a odd, V even (two_centers, tube_ball)."""
    for model, dim, nu in ((builtin("two_centers"), 2, ()),
                           (builtin("tube_ball"), 2, (1,))):
        for _ in range(10):
            traj = random_trajectory(rng, dim=dim, N=4, omega=model.omega,
                                     nu=nu, scale=0.3)
            # negating coefficients flips the oscillation; the drift flips
            # with nu, so compare against the model with -nu
            neg = FourierTrajectory(model.omega, tuple(-v for v in nu),
                                    -traj.coeffs)
            from minact.model import with_nu
            m_neg = with_nu(model, tuple(-v for v in nu)) if nu else model
            a, b = action(model, traj, 96), action(m_neg, neg, 96)
            assert abs(a - b) <= 1e-10 * (1 + abs(a)), \
                f"negation changed action: {a} vs {b}"


def test_margin_forced_oscillator_value():
    """K = A = 1/2 at omega = 2*pi: margin = 1/2 - pi^2."""
    got = coercivity_margin(k_only(0.5, A=0.5), TWO_PI)
    assert abs(got - (0.5 - math.pi**2)) < 1e-14
    assert abs(got - (-9.369604401089358)) < 1e-12


def test_margin_small_period():
    """0.5 - 0.5*0.1^2/2 = 0.4975, the formula applied literally."""
    got = coercivity_margin(k_only(0.5, A=0.5), 0.1)
    assert abs(got - 0.4975) < 1e-15


def test_margin_without_growth_terms_is_k():
    assert coercivity_margin(k_only(0.75), 5.0) == 0.75


def test_margin_gyroscopic_term():
    """M enters as -M*omega/sqrt(2)."""
    got = coercivity_margin(k_only(1.0, M=1.0), math.sqrt(2.0))
    assert abs(got) < 1e-15


def test_lower_bound_values():
    assert action_lower_bound(k_only(1.0), 1.0, 2.0) == 4.0
    got = action_lower_bound(k_only(0.5, C=1.0), 1.0, 1.0)
    assert abs(got + 0.5) < 1e-15
    assert action_lower_bound(k_only(0.5, C=1.0), 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        action_lower_bound(k_only(1.0), 1.0, -1.0)


def test_apriori_radius_values():
    assert abs(apriori_radius(k_only(1.0), 1.0, 4.0) - 2.0) < 1e-14
    got = apriori_radius(k_only(0.5, C=1.0), 4.0, 3.0)
    assert abs(got - (2.0 + math.sqrt(10.0))) < 1e-12


def test_apriori_radius_requires_positive_margin():
    with pytest.raises(NonCoercive):
        apriori_radius(k_only(0.5, A=0.5), TWO_PI, 1.0)


def test_lower_bound_invariant_on_tube_ball(rng):
    """S(z) + C1*omega >= margin*h1^2 - C*sqrt(omega)*h1 for 100 random z."""
    model = builtin("tube_ball")
    k = model.constants
    for _ in range(100):
        traj = random_trajectory(rng, dim=2, N=5, omega=model.omega,
                                 nu=(int(rng.integers(-2, 3)),),
                                 scale=float(rng.uniform(0.1, 3.0)))
        S = action(model, traj, 128)
        h1 = h1_seminorm(traj)
        bound = action_lower_bound(k, model.omega, h1)
        assert S + k.C1 * model.omega >= bound - 1e-9 * (1 + abs(S)), \
            f"coercivity bound violated: S = {S}, h1 = {h1}, bound = {bound}"


def test_action_report_fields():
    model = coercive_oscillator_model()
    traj = FourierTrajectory(model.omega, (), [[0.2], [0.0], [0.0], [0.0]])
    r = action_report(model, traj, 32)
    # one sampling and one field evaluation give what the two calls give
    assert r.S == action(model, traj, 32)
    assert r.grad_norm == float(np.linalg.norm(
        action_gradient(model, traj, 32)))
    assert r.margin == coercivity_margin(model.constants, model.omega)
    assert abs(r.h1 - h1_seminorm(traj)) < 1e-15
    assert r.min_distance == math.inf
    assert r.lower_bound_at_h1 <= r.S + model.constants.C1 * model.omega
    d = r.to_dict()
    assert set(d) == {"S", "grad_norm", "h1", "min_distance", "margin",
                      "lower_bound_at_h1"}


# ---------------------------------------------------------------------------
# compiled field evaluation


def _model(name):
    # constrained_planar_model is the model of demos/constrained_oscillator.py
    if name == "constrained":
        return constrained_planar_model()
    if name == "gyro":
        # state-dependent metric and gyro: no term of L is structurally zero
        return ModelSpec(
            m=2, n=0, omega=TWO_PI, nu=(),
            metric=[[ex.parse("1 + 0.5*z1^2", 2), ex.parse("0.1*z2", 2)],
                    [ex.parse("0.1*z2", 2), ex.parse("1", 2)]],
            gyro=[ex.parse("-z2*(1 + z1^2)", 2), ex.parse("z1 + sin(t)", 2)],
            potential=ex.parse("z1^2 + z2^2", 2), constants=k_only(0.5))
    return builtin(name)


def _nodes(model, rng, M=64):
    t = rng.uniform(-model.omega, model.omega, size=M)
    z = 2.0 * rng.normal(size=(M, model.dim))
    dz = rng.normal(size=(M, model.dim))
    return t, z, dz


def _held_trees(terms):
    """Every tree a LagrangianTerms holds, lower triangles included."""
    return ([e for row in terms.g for e in row] + list(terms.a) + [terms.V]
            + [e for mat in terms.dg for row in mat for e in row]
            + [e for row in terms.dtg for e in row]
            + [e for row in terms.da for e in row] + list(terms.dta)
            + list(terms.dV) + list(terms.f)
            + [e for row in terms.df for e in row] + list(terms.dtf))


def _program_roots(terms, fields):
    """(values, tree) of every root of the penalized Lagrangian program."""
    L, dLdz, dLdv = terms.program
    return ([(fields.L, L)]
            + [(fields.dL[0, :, d], e) for d, e in enumerate(dLdz)]
            + [(fields.dL[1, :, d], e) for d, e in enumerate(dLdv)]
            + [(fields.f[:, j], e) for j, e in enumerate(terms.f)]
            + [(fields.df[:, j, d], e) for j, row in enumerate(terms.df)
               for d, e in enumerate(row)])


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("constrained", "gyro"))
def test_tape_matches_evaluate_on_every_model_tree(name, rng):
    """One tape over all of a model's trees reproduces the tree walk
    exactly, and every root of the Lagrangian program equals evaluate of
    its own tree on [z | dz] bit for bit."""
    model = _model(name)
    terms = LagrangianTerms(model)
    trees = _held_trees(terms)
    t, z, dz = _nodes(model, rng)
    for e, got in zip(trees, ex.compile(trees).run(t, z)):
        assert np.array_equal(got, reference_evaluate(e, t, z)), \
            ex.to_text(e)
    fields = terms.lagrangian_at(SampledPath(t=t, z=z, dz=dz, ddz=None),
                                 "penalized")
    zv = np.concatenate((z, dz), axis=1)
    roots = _program_roots(terms, fields)
    assert len(roots) == 1 + 2 * model.dim + len(terms.f) * (1 + model.dim)
    for got, e in roots:
        assert np.array_equal(got, ex.evaluate(e, t, zv)), ex.to_text(e)
        assert np.array_equal(got, reference_evaluate(e, t, zv)), \
            ex.to_text(e)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("gyro",))
def test_hessian_kind_matches_differences_of_dL(name, rng):
    """The hessian kind's d2L, the second derivatives of L in [z | dz], is
    symmetric and equals central differences of the program's dL."""
    model = _model(name)
    terms = LagrangianTerms(model)
    t, z, dz = _nodes(model, rng, M=16)
    zv = np.concatenate((z, dz), axis=1)
    D = terms.fields(t, zv, "hessian").d2L
    assert D.shape == (16, 2 * model.dim, 2 * model.dim)
    assert np.array_equal(D, D.transpose(0, 2, 1))
    eps = 1e-6
    for j in range(2 * model.dim):
        dL = [terms.fields(t, zv + s * np.eye(2 * model.dim)[j],
                           "gradient").dL for s in (eps, -eps)]
        fd = (np.concatenate(dL[0], axis=1)
              - np.concatenate(dL[1], axis=1)) / (2.0 * eps)
        scale = 1.0 + np.max(np.abs(D), axis=(1, 2))
        assert np.all(np.abs(fd - D[:, :, j]) <= 1e-8 * scale[:, None]), j


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("constrained", "gyro"))
def test_fields_match_per_entry_evaluation(name, rng):
    """fields() equals the entry-by-entry reference, and the Lagrangian
    program's L, dL/dz and dL/ddz equal the einsum assembly of those
    entries to 1e-13 relative to the sizes of its terms."""
    model = _model(name)
    terms = LagrangianTerms(model)
    t, z, dz = _nodes(model, rng)
    M, dim = len(t), model.dim

    def ev(e):
        return ex.evaluate(e, t, z)

    def sym(trees):
        out = np.empty((M, dim, dim))
        for i in range(dim):
            for j in range(i, dim):
                out[:, i, j] = out[:, j, i] = ev(trees[i][j])
        return out

    def cols(trees):
        return np.stack([ev(e) for e in trees], axis=-1)

    G, a, V = sym(terms.g), cols(terms.a), ev(terms.V)
    dG = [sym(terms.dg[d]) for d in range(dim)]
    da = [cols(terms.da[d]) for d in range(dim)]
    res = terms.fields(t, z, "residual")
    assert np.array_equal(res.G, G)
    assert np.array_equal(res.dG, np.stack(dG))
    assert np.array_equal(res.da, np.stack(da))
    assert np.array_equal(res.dV, cols(terms.dV))
    assert np.array_equal(res.dtG, sym(terms.dtg))
    assert np.array_equal(res.dta, cols(terms.dta))
    assert res.a is None and res.V is None  # never evaluated there
    data = terms.fields(t, z, "data")
    assert np.array_equal(data.G, G) and np.array_equal(data.a, a)
    assert np.array_equal(data.V, V)
    energy = terms.fields(t, z, "energy")
    assert np.array_equal(energy.G, G) and np.array_equal(energy.V, V)
    if terms.f:
        assert np.array_equal(terms.constraints_at(t, z), cols(terms.f))
        assert np.array_equal(
            terms.constraint_jacobian_at(t, z),
            np.stack([cols(row) for row in terms.df], axis=1))
        assert np.array_equal(terms.fields(t, z, "constraint_rate").dtf,
                              cols(terms.dtf))

    assert terms.zero == {g for g, v in (("a", a), ("dG", np.stack(dG)),
                                         ("da", np.stack(da)))
                          if not np.any(v)}

    def close(got, *parts):
        # parts (products, gyro terms, potential) with their absolute
        # values: the rounding of any summation order is below eps times
        # the sum of the absolute values
        want = sum(p for p, _ in parts)
        scale = sum(q for _, q in parts)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    A, adz = np.abs, np.abs(dz)
    fields = terms.lagrangian_at(SampledPath(t=t, z=z, dz=dz, ddz=None))
    close(fields.L,
          (0.5 * np.einsum("mij,mi,mj->m", G, dz, dz),
           0.5 * np.einsum("mij,mi,mj->m", A(G), adz, adz)),
          (np.einsum("mi,mi->m", a, dz), np.einsum("mi,mi->m", A(a), adz)),
          (-V, A(V)))
    close(fields.dL[1], (np.einsum("mij,mj->mi", G, dz),
                          np.einsum("mij,mj->mi", A(G), adz)), (a, A(a)))
    dV = cols(terms.dV)
    for d in range(dim):
        close(fields.dL[0, :, d],
              (0.5 * np.einsum("mij,mi,mj->m", dG[d], dz, dz),
               0.5 * np.einsum("mij,mi,mj->m", A(dG[d]), adz, adz)),
              (np.einsum("mi,mi->m", da[d], dz),
               np.einsum("mi,mi->m", A(da[d]), adz)),
              (-dV[:, d], A(dV[:, d])))
    # each kind stores what it computes and nothing else
    path = SampledPath(t=t, z=z, dz=dz, ddz=None)
    assert np.array_equal(terms.lagrangian_at(path, "action").L, fields.L)
    assert np.array_equal(terms.dL_fields(path), fields.dL)
    assert terms.lagrangian_at(path, "action").dL is None
    assert terms.lagrangian_at(path, "gradient").L is None
    assert fields.f is None


def test_program_errors_follow_the_field_order():
    """With the metric entry sqrt(z2) and the gyro component log(z1) both
    outside their domain, a walk of L alone reaches log(z1) first, but
    every kind of the program evaluates the metric before the gyro, as
    the fields it replaced did, and names sqrt(z2)."""
    model = ModelSpec(
        m=2, n=0, omega=TWO_PI, nu=(),
        metric=[[ex.const(1.0), ex.const(0.0)],
                [ex.const(0.0), ex.parse("sqrt(z2)", 2)]],
        gyro=[ex.parse("log(z1)", 2), ex.const(0.0)],
        potential=ex.const(0.0), constants=k_only(0.5))
    terms = LagrangianTerms(model)
    t, z = np.zeros(2), np.array([[1.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(ex.EvalDomainError) as walk:
        ex.evaluate(terms.program[0], t, np.hstack([z, z]))
    assert walk.value.node == ex.parse("log(z1)", 2)
    path = SampledPath(t=t, z=z, dz=z, ddz=None)
    for kind in ("action", "gradient", "objective", "penalized"):
        with pytest.raises(ex.EvalDomainError) as err:
            terms.lagrangian_at(path, kind)
        assert err.value.node == ex.parse("sqrt(z2)", 2), kind


def test_surface_slide_tape_computes_each_distinct_subtree_once():
    """The objective program has one slot per distinct subtree, where
    a+b and b+a, and a*b and b*a, are one subtree: 135 of them."""
    terms = LagrangianTerms(builtin("surface_slide"))
    distinct = set()

    def key(e):
        # structural identity, with numbers compared by their bits and
        # the operands of + and * unordered
        parts = [type(e).__name__]
        for name in e._fields:
            v = getattr(e, name)
            if isinstance(v, ex.Expr):
                v = key(v)
            elif isinstance(v, float):
                v = v.hex()
            parts.append(v)
        if isinstance(e, ex.Binary) and e.op in ("+", "*"):
            parts[2:] = sorted(parts[2:], key=repr)
        distinct.add(tuple(parts))
        return tuple(parts)

    dim = terms.dim
    L, dLdz, dLdv = terms.program
    for e in ([terms.g[i][j] for i in range(dim) for j in range(i, dim)]
              + list(terms.a) + [terms.V]
              + [terms.dg[d][i][j] for d in range(dim)
                 for i in range(dim) for j in range(i, dim)]
              + [e for row in terms.da for e in row] + list(terms.dV)
              + [L, *dLdz, *dLdv]):
        key(e)
    tape = terms._program_kinds["objective"][0]
    assert len(tape) == len(distinct) == 135


def test_action_evaluates_no_derivative_tree():
    """V = (z1^2)^0.75 is defined at z1 = 0 but its derivative is not.

    Every odd loop passes z = 0 at the node t = 0, so the action must come
    from the value trees alone, while the gradient fails there.
    """
    model = ModelSpec(
        m=1, n=0, omega=TWO_PI, nu=(), metric=[[ex.const(1.0)]],
        gyro=[ex.const(0.0)], potential=ex.parse("(z1^2)^0.75", 1),
        constants=k_only(0.5))
    traj = FourierTrajectory(TWO_PI, (), [[0.5]])
    assert math.isfinite(action(model, traj, 32))
    with pytest.raises(ex.EvalDomainError):
        action_gradient(model, traj, 32)


def test_metric_derivatives_differentiate_the_upper_triangle(monkeypatch):
    """The metric is symmetric, one tree per pair of indices, so
    LagrangianTerms differentiates dim(dim+1)/2 metric entries per
    variable (t and every coordinate), not dim^2, and (j, i) holds the
    (i, j) derivative itself."""
    model = builtin("surface_slide")
    dim = model.dim
    entries = [e for row in model.metric for e in row]
    calls, depth = [], [0]
    original = ex.differentiate

    def counted(e, v, *memo):
        # only the calls LagrangianTerms makes, not the recursion's own
        if depth[0] == 0 and any(e is m for m in entries):
            calls.append(v)
        depth[0] += 1
        try:
            return original(e, v, *memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ex, "differentiate", counted)
    terms = LagrangianTerms(model)
    assert sorted(calls) == sorted(list(range(dim + 1))
                                   * (dim * (dim + 1) // 2))
    for i in range(dim):
        for j in range(dim):
            assert terms.dtg[i][j] is terms.dtg[j][i]
            assert all(terms.dg[d][i][j] is terms.dg[d][j][i]
                       for d in range(dim))


def _fields_outcome(run):
    """Bits, shape and C order of every evaluated field, or the error."""
    try:
        fields = run()
    except ex.EvalDomainError as err:
        return "error", str(err), err.node
    return "value", {name: (v.shape, v.flags.c_contiguous, v.tobytes())
                     for name, v in fields._asdict().items()
                     if v is not None}


def test_program_kernels_store_the_tape_values(monkeypatch, rng):
    """On every builtin and the constrained oscillator, the generated
    kernels of the objective and penalized kinds store what the tape run
    stores, bit for bit and in the same layout, at several node counts;
    a later run leaves the arrays of an earlier one alone."""
    action_module = sys.modules["minact.action"]
    models = [builtin(name) for name in BUILTIN_NAMES]
    models.append(constrained_planar_model())
    for model in models:
        terms = LagrangianTerms(model)
        kinds = ["objective"] + (["penalized"] if model.constraints else [])
        for M, scale in ((33, 0.3), (384, 0.3), (384, 1.0)):
            traj = random_trajectory(rng, model.dim, N=8, nu=model.nu,
                                     omega=model.omega, scale=scale)
            path = SineGrid.uniform(traj, M).path(traj.coeffs)
            zv = np.concatenate((path.z, path.dz), axis=1)
            for kind in kinds:
                got = terms.fields(path.t, zv, kind)
                kept = _fields_outcome(lambda: got)
                with monkeypatch.context() as patch:
                    patch.setattr(action_module, "_KERNEL_KINDS", ())
                    want = _fields_outcome(
                        lambda: terms.fields(path.t, zv, kind))
                assert kept == want, (model, kind, M)
                assert _fields_outcome(lambda: terms.fields(
                    path.t, 2.0 * zv, kind))[0] == "value"
                assert _fields_outcome(lambda: got) == kept
        assert set(terms._kernels) == set(kinds)
