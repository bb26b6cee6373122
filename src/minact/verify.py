"""Certification tools: hypothesis checks and solution-quality reports.

Two halves.  check_hypotheses samples a model's data and tries to falsify
the standing assumptions of the existence result (evenness of the data,
uniform positive definiteness of the metric, growth bounds on the
gyroscopic covector and the potential, constraint-gradient rank, and the
coercivity margin).  A pass means "not falsified on the sample", never a
proof.  el_residual, energy_drift, recover_multipliers and
homotopy_equiv_sufficient certify a candidate trajectory after the fact:
pointwise Euler-Lagrange residuals with constraint reaction forces
removed, Jacobi-integral drift, and a one-sided homotopy equivalence
test.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .action import LagrangianTerms, coercivity_margin
from .model import ModelSpec, SingularSet, is_autonomous, \
    nearest_distances, singular_set
from .trajectory import FourierTrajectory, min_distance_to, sample, \
    uniform_positions, winding_signature

__all__ = ["SamplerOptions", "HypothesisReport", "ResidualReport",
           "VerifyError", "check_hypotheses", "el_residual",
           "recover_multipliers", "energy_drift",
           "homotopy_equiv_sufficient", "holder_seminorm"]

_PARITY_RTOL = 1e-10


class VerifyError(ValueError):
    """Inputs outside an operation's contract."""


class SamplerOptions(ex.Record):
    """Sampling plan for hypothesis falsification."""

    _fields = ("count", "box_radius", "rng_seed")
    _defaults = {"count": 200, "box_radius": 5.0, "rng_seed": 0}

    def __post_init__(self):
        if self.count < 1:
            raise VerifyError("sampler count must be at least 1")
        if self.box_radius <= 0:
            raise VerifyError("sampler box_radius must be positive")


class HypothesisReport(ex.Record):
    """Outcome of sample-based hypothesis checks on one model.

    Every flag is a "not falsified" verdict over the drawn sample;
    witnesses carry the full (t, z) coordinates of the first failure.
    overall is True exactly when every flag holds and margin > 0.
    """

    _fields = ("parity_ok", "bound_g_ok", "bound_a_ok", "bound_V_ok",
               "rank_ok", "rank_min_sv", "margin", "overall", "violated",
               "witnesses", "warnings")

    def to_dict(self) -> dict:
        # a witness's arrays (points, singular values) become lists
        return {**self._asdict(),
                "witnesses": {name: {k: v.tolist()
                                     if isinstance(v, np.ndarray) else v
                                     for k, v in w.items()}
                              for name, w in self.witnesses.items()}}


def _draw_samples(model: ModelSpec, sampler: SamplerOptions):
    """Sample (t, z) uniformly over the time window and box, off sigma."""
    rng = np.random.default_rng(sampler.rng_seed)
    s = singular_set(model)
    guard = 1e-3 * sampler.box_radius
    n_pts = sampler.count
    t = rng.uniform(-model.omega / 2, model.omega / 2, size=n_pts)
    z = rng.uniform(-sampler.box_radius, sampler.box_radius,
                    size=(n_pts, model.dim))
    if not s.is_empty():
        for _ in range(100):
            d = nearest_distances(s, z)
            bad = d <= guard
            if not np.any(bad):
                break
            z[bad] = rng.uniform(-sampler.box_radius, sampler.box_radius,
                                 size=(int(np.sum(bad)), model.dim))
    return t, z


def _parity_ok(f, t, z, declared=None):
    """Check f(-t,-z) == f(t,z), or == -f(t,z) when declared is "odd".

    Returns (ok, witness or None).  declared is a constraint's parity tag,
    which its witness repeats; the model data g, a and V pass None and
    must be even.
    """
    sign = -1.0 if declared == "odd" else 1.0
    try:
        plus = ex.evaluate(f, t, z)
        minus = ex.evaluate(f, -t, -z)
    except ex.EvalDomainError:
        return True, None  # partial domain: nothing falsified
    scale = 1.0 + np.maximum(np.abs(plus), np.abs(minus))
    bad = np.abs(minus - sign * plus) > _PARITY_RTOL * scale
    if not np.any(bad):
        return True, None
    i = int(np.argmax(bad))
    wit = {"t": float(t[i]), "z": z[i].copy(),
           "value": float(plus[i]), "reflected": float(minus[i])}
    if declared is not None:
        wit["declared"] = declared
    return False, wit


def _by_rows(run, t, z, shape):
    """run(t, z) on all rows at once; after a domain error, row by row.

    Returns (values (K, *shape), ok (K,), errors); a row that leaves the
    domain on its own has ok False, zero values and its message in errors.
    """
    errors: dict = {}
    try:
        return run(t, z), np.ones(len(t), dtype=bool), errors
    except ex.EvalDomainError:
        pass
    values = np.zeros((len(t),) + shape)
    ok = np.ones(len(t), dtype=bool)
    for i in range(len(t)):
        try:
            values[i] = run(t[i:i + 1], z[i:i + 1])[0]
        except ex.EvalDomainError as err:
            ok[i] = False
            errors[i] = str(err)
    return values, ok, errors


def _project_feasible(terms: LagrangianTerms, t: np.ndarray, z0: np.ndarray,
                      max_iters: int = 60, tol: float = 1e-11):
    """Gauss-Newton projection of each row z0[i] onto {f_j(t[i], .) = 0}.

    All rows step together: one constraint run and one Jacobian run on
    the rows still active per iteration, and the min-norm step J^T beta,
    (J J^T) beta = -F, capped at unit length.  A row is feasible once
    max|F| <= tol; it drops out as infeasible when F or J leaves the
    domain or is not finite there, or after max_iters steps.  A converged
    row never evaluates the Jacobian, whose domain can be narrower.
    Returns (z (K, dim), feasible (K,)).
    """
    z = z0.astype(float)
    l, dim = len(terms.f), terms.dim
    feasible = np.zeros(len(t), dtype=bool)
    active = np.arange(len(t))
    for _ in range(max_iters):
        if active.size == 0:
            break
        ta, za = t[active], z[active]
        F, ok, _ = _by_rows(terms.constraints_at, ta, za, (l,))
        done = ok & (np.max(np.abs(F), axis=1) <= tol)
        feasible[active[done]] = True
        keep = ok & ~done
        active, ta, za, F = active[keep], ta[keep], za[keep], F[keep]
        J, ok, _ = _by_rows(terms.constraint_jacobian_at, ta, za,
                            (l, dim))
        ok &= np.all(np.isfinite(F), axis=1)
        ok &= np.all(np.isfinite(J), axis=(1, 2))
        active, za, F, J = active[ok], za[ok], F[ok], J[ok]
        step = _min_norm_step(J, F)
        norm = np.linalg.norm(step, axis=1)
        big = norm > 1.0
        step[big] /= norm[big, None]  # trust region: unit-length cap
        z[active] = za + step
    return z, feasible


def _min_norm_step(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """pinv(J) @ -F per row, the least-norm s with J s = -F, as J^T beta
    with (J J^T) beta = -F: J (K, l, dim), F (K, l), s (K, dim)."""
    return np.einsum("mld,ml->md", J, _gram_solve(J, -F)[0])


def _gram_solve(J: np.ndarray, rhs: np.ndarray):
    """x with (J J^T) x = rhs per row, J (M, l, dim) and rhs (M, l): one
    batched solve, and pinv for a Gram matrix whose least eigenvalue is at
    most 1e-12 times its largest.  Returns (x, whether any row was).  For
    l = 1 the Gram matrix is |J|^2 and the solve a division (bit for bit
    LAPACK's), zero where J is: pinv's value."""
    if J.shape[1] == 1:
        gram = np.einsum("mld,mld->ml", J, J)
        good = gram > 0.0
        x = np.zeros(rhs.shape)
        x[good] = rhs[good] / gram[good]
        return x, not np.all(good)
    gram = np.einsum("mld,mkd->mlk", J, J)
    ev = np.linalg.eigvalsh(gram)
    good = ev[:, 0] > 1e-12 * np.maximum(ev[:, -1], 1e-300)
    # a trailing axis keeps numpy's batched solve in stacked-vector mode
    x, r = np.empty(rhs.shape), rhs[..., None]
    x[good] = np.linalg.solve(gram[good], r[good])[..., 0]
    if not np.all(good):
        x[~good] = (np.linalg.pinv(gram[~good]) @ r[~good])[..., 0]
    return x, not np.all(good)


def check_hypotheses(model: ModelSpec,
                     sampler: SamplerOptions | None = None,
                     ) -> HypothesisReport:
    """Try to falsify the existence hypotheses on random samples.

    Checks, in order: evenness of every metric entry, gyro component,
    the potential, and each declared constraint parity; the uniform
    metric lower bound (condition on K); the gyro growth bound
    |a_i| <= C + M|z|; the potential upper bound
    V <= A|z|^2 - P/dist(z, sigma)^2 + C1 with the nearest singular
    translate; the constraint-gradient rank at refined feasible points
    (a gradient that leaves its domain there fails it);
    and the coercivity margin.  A flag True means "not falsified here".
    """
    if sampler is None:
        sampler = SamplerOptions()
    rng = np.random.default_rng(sampler.rng_seed + 1)
    t, z = _draw_samples(model, sampler)
    k = model.constants
    terms = LagrangianTerms.of(model)
    s = singular_set(model)
    dim = model.dim

    parity_ok: dict = {}
    witnesses: dict = {}
    warnings: list = []
    violated: list = []

    def note_parity(name, trees, declared=None):
        # the first tree that fails the parity test is the witness
        for f in trees:
            ok, wit = _parity_ok(f, t, z, declared)
            if not ok:
                parity_ok[name] = False
                witnesses["parity:" + name] = wit
                return
        parity_ok[name] = True

    note_parity("g", [e for row in model.metric for e in row])
    note_parity("a", model.gyro)
    note_parity("V", [model.potential])
    for ci, c in enumerate(model.constraints):
        note_parity(f"constraint[{ci}]", [c.f], c.parity)

    # metric lower bound on random unit directions
    bound_g_ok = True
    xi = rng.normal(size=(len(t), 4, dim))
    xi /= np.linalg.norm(xi, axis=2, keepdims=True)
    try:
        G = terms.metric_at(t, z)  # (M, dim, dim)
        quad = 0.5 * np.einsum("mkd,mde,mke->mk", xi, G, xi)
        bad = quad < k.K - 1e-10 * (1.0 + k.K)
        if np.any(bad):
            bound_g_ok = False
            m_i, k_i = np.unravel_index(int(np.argmax(bad)), bad.shape)
            witnesses["bound_g"] = {
                "t": float(t[m_i]), "z": z[m_i].copy(),
                "xi": xi[m_i, k_i].copy(),
                "half_quad": float(quad[m_i, k_i]), "K": k.K}
    except ex.EvalDomainError as err:
        warnings.append(f"metric bound check skipped: {err}")

    # gyro growth bound, componentwise
    bound_a_ok = True
    znorm = np.linalg.norm(z, axis=1)
    cap = k.C + k.M * znorm
    try:
        a_vals = terms.fields(t, z, "gyro").a  # (M, dim)
        slack = 1e-10 * (1.0 + cap)
        bad = np.abs(a_vals) > (cap + slack)[:, None]
        if np.any(bad):
            bound_a_ok = False
            m_i, d_i = np.unravel_index(int(np.argmax(bad)), bad.shape)
            witnesses["bound_a"] = {
                "t": float(t[m_i]), "z": z[m_i].copy(),
                "component": int(d_i), "value": float(a_vals[m_i, d_i]),
                "cap": float(cap[m_i])}
    except ex.EvalDomainError as err:
        warnings.append(f"gyro bound check skipped: {err}")

    # potential upper bound with the nearest singular translate
    bound_V_ok = True
    try:
        V_vals = terms.fields(t, z, "potential").V
        if s.is_empty():
            bound = k.A * znorm ** 2 + k.C1
        else:
            d = nearest_distances(s, z)
            bound = k.A * znorm ** 2 - k.P / d ** 2 + k.C1
        bad = V_vals > bound + 1e-10 * (1.0 + np.abs(bound))
        if np.any(bad):
            bound_V_ok = False
            i = int(np.argmax(bad))
            witnesses["bound_V"] = {
                "t": float(t[i]), "z": z[i].copy(),
                "V": float(V_vals[i]), "bound": float(bound[i])}
    except ex.EvalDomainError as err:
        warnings.append(f"potential bound check skipped: {err}")

    # constraint-gradient rank at refined feasible points
    rank_ok = True
    rank_min_sv = math.inf
    l = len(model.constraints)
    if l > 0:
        zf, feasible = _project_feasible(terms, t, z)
        if not s.is_empty():
            feasible[feasible] = nearest_distances(s, zf[feasible]) > 1e-6
        idx = np.flatnonzero(feasible)
        if idx.size == 0:
            warnings.append(
                "no feasible constraint points found; rank check skipped")
        else:
            J, ok, errors = _by_rows(terms.constraint_jacobian_at, t[idx],
                                     zf[idx], (l, dim))
            # (found, min(l, dim)); one constraint's is its gradient norm
            sv = (np.sqrt(np.einsum("mld,mld->ml", J, J)) if l == 1
                  else np.linalg.svd(J, compute_uv=False))
            top = sv[:, 0]
            rank_tol = 1e-8 * np.where(top > 0, top, 1.0)
            bad = ~ok | (sv[:, -1] <= rank_tol) | (sv.shape[1] < l)
            rank_min_sv = float(np.min(sv[:, -1], initial=math.inf,
                                       where=ok))
            if np.any(bad):
                rank_ok = False
                i = int(np.argmax(bad))
                witnesses["rank"] = {
                    "t": float(t[idx[i]]), "z": zf[idx[i]].copy(),
                    **({"singular_values": sv[i].copy()} if ok[i]
                       else {"error": errors[i]})}
    margin = coercivity_margin(k, model.omega)

    if not all(parity_ok.values()):
        names = ", ".join(n for n, okf in parity_ok.items() if not okf)
        violated.append(f"condition 1 (parity): not even: {names}")
    if not (bound_g_ok and bound_a_ok and bound_V_ok):
        which = ", ".join(n for n, okf in
                          (("g", bound_g_ok), ("a", bound_a_ok),
                           ("V", bound_V_ok)) if not okf)
        violated.append(f"condition 3 (growth bounds): falsified for "
                        f"{which}")
    if not rank_ok:
        violated.append("condition 4 (constraint rank): rank deficient "
                        "at a feasible point")
    if margin <= 0.0:
        violated.append(f"condition 2 (coercivity margin): margin = "
                        f"{margin!r} <= 0")

    overall = (all(parity_ok.values()) and bound_g_ok and bound_a_ok
               and bound_V_ok and rank_ok and margin > 0.0)
    return HypothesisReport(
        parity_ok=parity_ok, bound_g_ok=bound_g_ok, bound_a_ok=bound_a_ok,
        bound_V_ok=bound_V_ok, rank_ok=rank_ok, rank_min_sv=rank_min_sv,
        margin=margin, overall=overall, violated=violated,
        witnesses=witnesses, warnings=warnings)


class ResidualReport(ex.Record):
    """Pointwise solution-quality metrics for one trajectory.

    el_sup / el_l2 measure the Euler-Lagrange residual (orthogonal to the
    constraint gradients when constraints are present, raw otherwise).
    multipliers holds recovered reaction-force samples, or None for an
    unconstrained model.  energy_drift is None for time-dependent models.
    """

    _fields = ("el_sup", "el_l2", "multipliers", "constraint_sup",
               "constraint_rate_sup", "energy_drift", "min_distance",
               "clearance_integral", "gram_warning")
    _defaults = {"gram_warning": False}

    def to_dict(self) -> dict:
        return {**self._asdict(),
                "multipliers": (None if self.multipliers is None
                                else self.multipliers.tolist())}


def _el_residual_values(terms: LagrangianTerms, path) -> np.ndarray:
    """R_k(t_i) = d/dt (dL/dv^k) - dL/dz^k, exactly, at the nodes."""
    dz, ddz = path.dz, path.ddz
    fl = terms.fields(path.t, path.z, "residual")
    R = np.einsum("mkj,mj->mk", fl.G, ddz)
    # + d_l g_kj v^l v^j + d_t g_kj v^j
    R += np.einsum("lmkj,ml,mj->mk", fl.dG, dz, dz)
    R += np.einsum("mkj,mj->mk", fl.dtG, dz)
    # + d_l a_k v^l   and  - d_k a_i v^i
    R += np.einsum("lmk,ml->mk", fl.da, dz)
    R -= np.einsum("kmi,mi->mk", fl.da, dz)
    R += fl.dta
    # - (1/2) d_k g_ij v^i v^j  and  + d_k V
    R -= 0.5 * np.einsum("kmij,mi,mj->mk", fl.dG, dz, dz)
    R += fl.dV
    return R


def recover_multipliers(J: np.ndarray, R: np.ndarray):
    """Least-squares reaction forces: alpha minimizing |R - J^T alpha|.

    J has shape (M, l, dim) (or a single (l, dim) slice), R matches with
    shape (M, dim) (or (dim,)).  Solves the normal equations through the
    Gram matrix J J^T per node, falling back to the pseudo-inverse when a
    Gram matrix is singular beyond tolerance.  Returns (alpha, orthogonal
    residual, gram_warning).
    """
    single = J.ndim == 2
    if single:
        J = J[None]
        R = R[None]
    alpha, warning = _gram_solve(J, np.einsum("mld,md->ml", J, R))
    orth = R - np.einsum("mld,ml->md", J, alpha)
    if single:
        return alpha[0], orth[0], warning
    return alpha, orth, warning


def el_residual(model: ModelSpec, traj: FourierTrajectory,
                M: int) -> ResidualReport:
    """Euler-Lagrange residual report at M quadrature nodes.

    Unconstrained models report the raw residual norms; constrained
    models first remove the best least-squares combination of constraint
    gradients (the reaction force) and report the orthogonal part, the
    multiplier samples, the constraint values, and the total time
    derivative of each constraint along the path.
    """
    terms = LagrangianTerms.of(model)
    path = sample(traj, M)
    s = singular_set(model)
    if not s.is_empty():
        d_nodes = nearest_distances(s, path.z)
        if np.min(d_nodes) <= 0.0:
            raise VerifyError("trajectory touches the singular set "
                              "at a quadrature node")
    R = _el_residual_values(terms, path)

    multipliers = None
    constraint_sup = 0.0
    rate_sup = 0.0
    gram_warning = False
    if model.constraints:
        F = terms.constraints_at(path.t, path.z)
        J = terms.constraint_jacobian_at(path.t, path.z)
        constraint_sup = float(np.max(np.abs(F)))
        multipliers, R, gram_warning = recover_multipliers(J, R)
        rate = np.einsum("mld,md->ml", J, path.dz)
        rate += terms.fields(path.t, path.z, "constraint_rate").dtf
        rate_sup = float(np.max(np.abs(rate)))

    node_norms = np.linalg.norm(R, axis=1)
    el_sup = float(np.max(node_norms))
    el_l2 = float(math.sqrt(model.omega / M * float(np.sum(node_norms ** 2))))

    drift = None
    if is_autonomous(model):
        drift = _jacobi_drift(terms, path)

    sig = winding_signature(traj, s)
    return ResidualReport(
        el_sup=el_sup, el_l2=el_l2, multipliers=multipliers,
        constraint_sup=constraint_sup, constraint_rate_sup=rate_sup,
        energy_drift=drift, min_distance=sig.min_distance,
        clearance_integral=sig.clearance_integral,
        gram_warning=gram_warning)


def _jacobi_drift(terms: LagrangianTerms, path) -> float:
    fl = terms.fields(path.t, path.z, "energy")
    h = 0.5 * np.einsum("mi,mij,mj->m", path.dz, fl.G, path.dz) + fl.V
    return float(np.max(np.abs(h - h[0])))


def energy_drift(model: ModelSpec, traj: FourierTrajectory,
                 M: int) -> float:
    """sup_i |h(t_i) - h(t_0)| with h the Jacobi integral.

    Defined only for autonomous models (no expression references t);
    h = v . dL/dv - L, which reduces to (1/2) v G v + V because the
    gyroscopic term is linear in v.
    """
    if not is_autonomous(model):
        raise VerifyError("energy drift is defined only for autonomous "
                          "models (an expression references t)")
    return _jacobi_drift(LagrangianTerms.of(model), sample(traj, M))


def homotopy_equiv_sufficient(t1: FourierTrajectory,
                              t2: FourierTrajectory,
                              s: SingularSet, delta: float) -> str:
    """One-sided homotopy test: 'Homotopic' or 'Inconclusive'.

    Two loops with clearance >= delta from the singular set are
    homotopic in the complement whenever they stay uniformly closer to
    each other than delta/2 (the straight-line homotopy then never
    touches the set) and carry the same winding data.  Anything else is
    Inconclusive -- the test never certifies non-equivalence.
    """
    if delta <= 0:
        raise VerifyError("delta must be positive")
    if t1.dim != t2.dim or abs(t1.omega - t2.omega) > 1e-12 * t1.omega:
        raise VerifyError("trajectories live in different spaces")
    clearance = min(min_distance_to(t1, s), min_distance_to(t2, s))
    if clearance < delta:
        raise VerifyError(
            f"clearance below delta: {clearance:.6g} < {delta:.6g}")
    if t1.nu != t2.nu:
        return "Inconclusive"
    Mq = max(16 * max(t1.N, t2.N), 1024)
    gap = uniform_positions(t1, Mq) - uniform_positions(t2, Mq)
    sup = float(np.max(np.linalg.norm(gap, axis=1)))
    if sup >= delta / 2:
        return "Inconclusive"
    sig1 = winding_signature(t1, s)
    sig2 = winding_signature(t2, s)
    if not sig1.same_class(sig2):
        return "Inconclusive"
    return "Homotopic"


def holder_seminorm(traj: FourierTrajectory, M: int = 512) -> float:
    """Finite-difference 1/2-Holder seminorm over one period.

    sup over node pairs of |z(t_i) - z(t_j)| / sqrt(t_i - t_j), a raw
    regularity diagnostic (no inequality asserted against it).
    """
    M = min(M, 2048)  # O(M^2) pairs
    path = sample(traj, max(M, 2 * traj.N + 1))
    z, t = path.z, path.t
    best = 0.0
    for i in range(len(t) - 1):
        diffs = np.linalg.norm(z[i + 1:] - z[i], axis=1)
        dts = np.sqrt(t[i + 1:] - t[i])
        best = max(best, float(np.max(diffs / dts)))
    return best
