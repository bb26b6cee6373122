"""Shared builders for the test suite: small models and random trajectories."""

import math

import numpy as np
import pytest

from minact import expr as ex
from minact.model import GrowthConstants, ModelSpec, Constraint
from minact.trajectory import FourierTrajectory

TWO_PI = 2.0 * math.pi


def free_drift_model(omega=TWO_PI):
    """L = (1/2) phi_dot^2 on one angle coordinate, nu = 1."""
    return ModelSpec(
        m=0, n=1, omega=omega, nu=(1,),
        metric=[[ex.const(1.0)]], gyro=[ex.const(0.0)],
        potential=ex.const(0.0),
        constants=GrowthConstants(0.0, 0.0, 0.0, 0.5, 0.0, 0.0))


def coercive_oscillator_model(omega=0.1, a_coef=0.5):
    """L = (1/2) x_dot^2 - (a/1) x^2 ... V = a*x^2 scaled to match A."""
    return ModelSpec(
        m=1, n=0, omega=omega, nu=(),
        metric=[[ex.const(1.0)]], gyro=[ex.const(0.0)],
        potential=ex.parse(f"{a_coef}*z1^2", 1),
        constants=GrowthConstants(0.0, 0.0, a_coef, 0.5, 0.0, 0.0))


def harmonic_model(omega=TWO_PI):
    """L = (1/2) x_dot^2 - (1/2) x^2; x = sin t solves it exactly."""
    return ModelSpec(
        m=1, n=0, omega=omega, nu=(),
        metric=[[ex.const(1.0)]], gyro=[ex.const(0.0)],
        potential=ex.parse("0.5*z1^2", 1),
        constants=GrowthConstants(0.0, 0.0, 0.5, 0.5, 0.0, 0.0))


def constrained_planar_model(beta=0.5):
    """Constraint z2 = z1 with an even time-periodic forcing, omega = 2*pi.

    V = -beta*z1*sin(t) + (z1^2 + z2^2)/4 is even under (t,z) -> (-t,-z).
    On the manifold z1 = z2 = s the action is pi*sum_k (k^2 - 1/2)*b_k^2
    + beta*pi*b_1, minimized at b_1 = -beta: the constrained minimizer is
    s = -beta*sin(t) with S = -pi*beta^2/2.
    """
    return ModelSpec(
        m=2, n=0, omega=TWO_PI, nu=(),
        metric=[[ex.const(1.0), ex.const(0.0)],
                [ex.const(0.0), ex.const(1.0)]],
        gyro=[ex.const(0.0), ex.const(0.0)],
        potential=ex.parse(f"0.25*(z1^2+z2^2) - {beta}*z1*sin(t)", 2),
        constraints=(Constraint(ex.parse("z2 - z1", 2), "odd"),),
        constants=GrowthConstants(0.0, 0.0, 0.5, 0.5, 0.0, beta ** 2))


def random_trajectory(rng, dim, N=6, omega=TWO_PI, nu=(), scale=1.0):
    """Random smooth trajectory with geometrically decaying mode sizes."""
    decay = 0.5 ** np.arange(N)
    coeffs = rng.normal(size=(N, dim)) * decay[:, None] * scale
    return FourierTrajectory(omega, tuple(nu), coeffs)


def count_builds(monkeypatch):
    """Record (kind, trajectory, M) for every distance profile ("profile")
    and winding signature ("signature") actually computed, not memoized."""
    import minact.trajectory as trajectory_module
    built = []
    for kind, name in (("profile", "_compute_profile"),
                       ("signature", "_compute_signature")):
        original = getattr(trajectory_module, name)

        def counted(traj, s, M, kind=kind, original=original):
            built.append((kind, traj, M))
            return original(traj, s, M)

        monkeypatch.setattr(trajectory_module, name, counted)
    return built


def count_calls(monkeypatch, owner, name):
    """Record the arguments of every call of owner.name (a module function
    or a method); returns the list, one args tuple per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def reference_nearest_distances(s, points):
    """Distances and witnesses, one pass per signed base point.

    The reference for minact.model's nearest-singular routine: for every
    base point q and then -q, duplicates included, the lattice-reduced
    difference, its np.linalg.norm per row, and a witness that a later
    candidate replaces only when strictly closer.  Returns (d (M,),
    witnesses (M, dim)).
    """
    points = np.asarray(points, dtype=float)
    best = np.full(points.shape[0], np.inf)
    near = np.empty(points.shape)
    for q in s.base:
        for sign in (1.0, -1.0):
            cand = sign * np.asarray(q)
            diff = points - cand
            if s.n:
                ang = diff[:, s.m:]
                shift = TWO_PI * np.round(ang / TWO_PI)
                diff[:, s.m:] = ang - shift
            d = np.linalg.norm(diff, axis=1)
            closer = d < best
            near[closer] = cand
            if s.n:
                near[closer, s.m:] += shift[closer]
            np.minimum(best, d, out=best)
    return best, near


def reference_evaluate(e, t, z):
    """Tree-walk evaluation of one tree: the reference for compiled tapes.

    Visits every node, shared subtrees once per occurrence, with the
    kernel minact.expr binds to each node (ex._kernel), under the tape's
    np.errstate(all="ignore"); takes and returns what ex.evaluate does and
    raises the same EvalDomainError.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    if t.ndim == 0 and z.ndim == 2:
        t = np.full(z.shape[0], float(t))
    with np.errstate(all="ignore"):
        out = _walk(e, t, z)
    if t.ndim == 0:
        return float(np.asarray(out))
    if np.ndim(out) == 0:
        return np.full(t.shape, float(out))
    return np.asarray(out, dtype=float)


def _walk(e, t, z):
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return t if e.index == 0 else z[..., e.index - 1]
    if isinstance(e, ex.Unary):
        children = (e.arg,)
    elif isinstance(e, ex.Binary):
        children = (e.lhs, e.rhs)
    elif isinstance(e, ex.Power):
        children = (e.base,)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return ex._kernel(e)(*(_walk(c, t, z) for c in children))


def reference_refine_feasible(terms, t, z0, max_iters=60, tol=1e-11):
    """Gauss-Newton projection of one point z0 onto {f_j(t, .) = 0}.

    The per-sample reference for verify's batched projection: scalar
    tree walks, a least-squares step capped at unit length, and the same
    rules for convergence and failure.  Returns (z, feasible).
    """
    z = np.asarray(z0, dtype=float).copy()
    for _ in range(max_iters):
        try:
            F = np.array([reference_evaluate(fj, t, z) for fj in terms.f])
        except ex.EvalDomainError:
            return z, False
        if np.max(np.abs(F)) <= tol:
            return z, True
        try:
            J = np.array([[reference_evaluate(dfd, t, z) for dfd in row]
                          for row in terms.df])
        except ex.EvalDomainError:
            return z, False
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(J))):
            return z, False
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        norm = float(np.linalg.norm(step))
        if norm > 1.0:
            step = step / norm
        z = z + step
    return z, False


@pytest.fixture
def rng():
    return np.random.default_rng(0)
