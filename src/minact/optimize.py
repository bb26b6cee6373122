"""Action minimization over sine coefficients inside a fixed winding class.

The unknowns are exactly the coefficients b[k][d] of a FourierTrajectory,
so oddness and the prescribed angle drift survive every step structurally.
The solver is a limited-memory quasi-Newton descent with Armijo
backtracking on the penalized objective

    S_mu(b) = S(b) + (mu/2) * (omega/M) * sum_{i,j} f_j(t_i, z_i)^2,

with mu following a geometric schedule when constraints exist and mu = 0
otherwise.  The line search rejects any candidate that either comes closer
than guard_delta to the singular set at a quadrature node or changes the
winding signature of the seed; the continuous problem cannot cross the
singular barrier, and the guards restore that topology for the discrete
one.  Divergence is declared against the a priori coercivity radius when
the margin is positive, and against runaway norm growth otherwise.

The run is fully deterministic: no randomness, fixed evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .action import LagrangianTerms, action_report, apriori_radius, \
    coercivity_margin
from .model import ModelSpec, enumerate_planar, nearest_distances, \
    singular_set
from .trajectory import FourierTrajectory, HomotopySignature, SineGrid, \
    WindingRefinementError, h1_seminorm, winding_signature, \
    windings_of_closed_points

__all__ = ["SolveOptions", "SolveResult", "OptimizeError",
           "minimize", "solve_in_class"]


class OptimizeError(ValueError):
    """Invalid options or an unusable seed."""


# Fixed settings of the solver: the smallest line-search step, the
# penalty schedule mu = 10, 100, ..., 1e8 for constrained models, the
# divergence threshold as a multiple of the a priori radius (or of the
# seed's H1 norm), and the number of L-BFGS pairs kept.
STEP_TOL = 1e-14
PENALTY_MU0 = 10.0
PENALTY_GROWTH = 10.0
PENALTY_MAX = 1e8
DIVERGE_FACTOR = 10.0
LBFGS_PAIRS = 20


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of one minimization run.

    M defaults to 8*N (enough nodes for spectral quadrature accuracy and
    the no-aliasing requirement M >= 2N+1).
    """

    N: int = 32
    M: int = 0
    max_iters: int = 2000
    grad_tol: float = 1e-8
    guard_delta: float = 1e-3

    def __post_init__(self):
        if self.M == 0:
            object.__setattr__(self, "M", 8 * self.N)
        for name in ("N", "M", "max_iters", "grad_tol", "guard_delta"):
            if getattr(self, name) <= 0:
                raise OptimizeError(f"option {name} must be positive")
        if self.M < 2 * self.N + 1:
            raise OptimizeError(
                f"M = {self.M} must be at least 2N+1 = {2 * self.N + 1}")


@dataclass(frozen=True)
class SolveResult:
    trajectory: FourierTrajectory
    status: str  # Converged | Diverged | GuardTriggered | SignatureChanged | MaxIter
    report: object  # ActionReport
    history: list
    signature: HomotopySignature | None = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "report": self.report.to_dict(),
            "history": self.history,
            "windings": ({str(list(p)): w
                          for p, w in self.signature.windings.items()}
                         if self.signature else {}),
        }


class _Objective:
    """Penalized action and gradient as functions of flat coefficients.

    The sine bases of the quadrature grid and of the two (coarser) winding
    grids are built once; every inner-loop quantity is then a dense
    matmul.
    """

    def __init__(self, model: ModelSpec, proto: FourierTrajectory,
                 M: int, terms: LagrangianTerms, sig_nodes: int):
        self.proto = proto
        self.terms = terms
        self.weight = model.omega / M
        self.sigma = singular_set(model)
        self.grid = SineGrid.uniform(proto, M)
        self.shape = proto.coeffs.shape
        self.sig_grids = (SineGrid.uniform(proto, sig_nodes, velocity=False),
                          SineGrid.uniform(proto, 2 * sig_nodes,
                                           velocity=False))
        self.sig_centers = (tuple(enumerate_planar(self.sigma))
                            if not self.sigma.is_empty() else ())

    def traj(self, b_flat: np.ndarray) -> FourierTrajectory:
        return self.proto.with_coeffs(b_flat.reshape(self.shape))

    def node_min_distance(self, b_flat: np.ndarray) -> float:
        if self.sigma.is_empty():
            return math.inf
        z = self.grid.z(b_flat.reshape(self.shape))
        return float(np.min(nearest_distances(self.sigma, z)))

    def windings(self, b_flat: np.ndarray):
        """Winding dict on the cached grids, or a refinement error.

        Tries the base grid and one doubled grid only, so every line-search
        candidate costs at most two matmuls.  A curve that cannot be
        classified at that resolution passes too close to a singular point
        to certify its class; callers treat the error as a conservative
        rejection.
        """
        B = b_flat.reshape(self.shape)
        for grid in self.sig_grids:
            ws = windings_of_closed_points(grid.z(B), self.sig_centers)
            if ws is not None:
                return ws
        raise WindingRefinementError(
            "candidate passes too near the singular set to certify its "
            "winding numbers at the cached resolution")

    def value_and_grad(self, b_flat: np.ndarray, mu: float):
        path = self.grid.path(b_flat.reshape(self.shape))
        fields = self.terms.fields(path.t, path.z)
        L = self.terms.lagrangian_at(path, fields)
        S = self.weight * float(np.sum(L))
        dLdz, dLdv = self.terms.dL_fields(path, fields)
        if mu > 0.0 and self.terms.f:
            F = self.terms.constraints_at(path.t, path.z)     # (M, l)
            J = self.terms.constraint_jacobian_at(path.t, path.z)  # (M,l,dim)
            S += 0.5 * mu * self.weight * float(np.sum(F * F))
            dLdz = dLdz + mu * np.einsum("ml,mld->md", F, J)
        grad = self.weight * self.grid.gradient(dLdz, dLdv)
        return S, grad.reshape(-1)


class _LbfgsMemory:
    """Two-loop L-BFGS with a fixed diagonal seed matrix.

    The action's kinetic block is exactly diagonal in the sine basis with
    entries ~ g * w_k^2 * omega/2, so seeding the recursion with the
    inverse of that diagonal removes the O(N^2) conditioning that plain
    identity seeding suffers from.
    """

    def __init__(self, diag_h0: np.ndarray):
        self.d0 = diag_h0
        self.s: list[np.ndarray] = []
        self.y: list[np.ndarray] = []
        self.rho: list[float] = []  # 1 / (y . s) of each stored pair

    def clear(self) -> None:
        self.s.clear()
        self.y.clear()
        self.rho.clear()

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(np.dot(s, y))
        if sy <= 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            return  # skip pairs that would break positive definiteness
        if len(self.s) == LBFGS_PAIRS:
            self.s.pop(0)
            self.y.pop(0)
            self.rho.pop(0)
        self.s.append(s)
        self.y.append(y)
        self.rho.append(1.0 / sy)

    def direction(self, grad: np.ndarray) -> np.ndarray:
        # standard two-loop recursion, H0 = gamma * diag(d0)
        q = grad.copy()
        alphas = []
        for s, y, rho in zip(reversed(self.s), reversed(self.y),
                             reversed(self.rho)):
            a = rho * np.dot(s, q)
            alphas.append(a)
            q -= a * y
        if self.s:
            s, y = self.s[-1], self.y[-1]
            gamma = np.dot(s, y) / np.dot(y, self.d0 * y)
        else:
            gamma = 1.0
        q = gamma * (self.d0 * q)
        for (s, y, rho), a in zip(zip(self.s, self.y, self.rho),
                                  reversed(alphas)):
            beta = rho * np.dot(y, q)
            q += (a - beta) * s
        return -q


def minimize(model: ModelSpec, seed: FourierTrajectory,
             opts: SolveOptions) -> SolveResult:
    """Minimize the (penalized) discrete action starting from the seed.

    Statuses:
      Converged        gradient norm reached grad_tol in the last penalty
                       phase, signature preserved;
      Diverged         H1 norm left the a priori ball (positive margin) or
                       grew past DIVERGE_FACTOR times the seed scale;
      GuardTriggered   no step exists keeping guard_delta clearance;
      SignatureChanged no step exists keeping the seed's windings;
      MaxIter          iteration budget exhausted.
    """
    if seed.N != opts.N:
        raise OptimizeError(
            f"seed has N = {seed.N} but options request N = {opts.N}")
    if abs(seed.omega - model.omega) > 1e-12 * model.omega:
        raise OptimizeError("seed period differs from the model period")
    if seed.nu != model.nu:
        raise OptimizeError("seed winding vector differs from the model")
    terms = LagrangianTerms(model)
    sig_nodes = max(16 * opts.N, 64)
    obj = _Objective(model, seed, opts.M, terms, sig_nodes)
    sigma = obj.sigma
    track_signature = (not sigma.is_empty()) and model.m == 2 \
        and model.n == 0
    # the iterate b carries its node distance and H1 norm, computed once
    # when it is accepted, into its history rows and the divergence check
    b = seed.coeffs.reshape(-1).copy()
    dist = obj.node_min_distance(b)
    seed_windings = None
    if track_signature:
        try:
            seed_sig = winding_signature(seed, sigma, M=sig_nodes)
        except WindingRefinementError as err:
            raise OptimizeError(
                f"seed cannot be classified against sigma: {err}") from err
        seed_windings = seed_sig.windings
        if seed_sig.min_distance <= opts.guard_delta:
            raise OptimizeError(
                f"seed clears sigma by {seed_sig.min_distance:.3e}, below "
                f"guard_delta = {opts.guard_delta}")
    elif dist <= opts.guard_delta:
        raise OptimizeError("seed violates the singularity guard")

    margin = coercivity_margin(model.constants, model.omega)
    h1 = seed_h1 = h1_seminorm(seed)
    # kinetic-block diagonal of the Hessian per mode, repeated over coords
    w_freq = seed.frequencies()
    diag_kin = (model.omega / 2.0) * (2.0 * model.constants.K
                                      * w_freq ** 2 + 1.0)
    diag_h0 = np.repeat(1.0 / diag_kin, model.dim)
    radius = None
    if margin > 0.0:
        S_seed, _ = obj.value_and_grad(seed.coeffs.reshape(-1), 0.0)
        radius = apriori_radius(model.constants, model.omega, S_seed)
    diverge_h1 = (DIVERGE_FACTOR * radius if radius is not None
                  else DIVERGE_FACTOR * max(1.0, seed_h1))

    phases = [0.0]
    if model.constraints:
        phases = []
        mu = PENALTY_MU0
        while mu <= PENALTY_MAX:
            phases.append(mu)
            mu *= PENALTY_GROWTH

    history: list[dict] = []
    total_iter = 0

    def finish(status: str, b_final: np.ndarray) -> SolveResult:
        traj = obj.traj(b_final)
        report = action_report(model, traj, opts.M, terms)
        sig = None
        if track_signature:
            try:
                sig = winding_signature(traj, sigma, M=sig_nodes)
            except WindingRefinementError:
                pass  # unclassifiable: not Converged, see below
        if status == "Converged" and track_signature:
            if sig is None or sig.windings != seed_windings:
                status = "SignatureChanged"
        return SolveResult(trajectory=traj, status=status, report=report,
                           history=history, signature=sig)

    for phase_idx, mu in enumerate(phases):
        memory = _LbfgsMemory(diag_h0)
        try:
            S, g = obj.value_and_grad(b, mu)
        except ex.EvalDomainError as err:
            raise OptimizeError(
                f"expression domain error at iteration {total_iter}: "
                f"{err}") from err
        retried_steepest = False
        while True:
            gn = float(np.linalg.norm(g))
            history.append({
                "iter": total_iter, "mu": mu, "S_mu": S,
                "grad_norm": gn,
                "min_distance": dist, "h1": h1,
            })
            if gn <= opts.grad_tol:
                break  # phase converged
            if total_iter >= opts.max_iters:
                return finish("MaxIter", b)
            direction = memory.direction(g)
            dgd = float(np.dot(direction, g))
            if dgd >= 0.0:
                direction = -g
                dgd = -float(np.dot(g, g))
                memory.clear()
            if not memory.s:
                # first step of a phase: conservative scale
                scale = 1.0 / max(1.0, float(np.linalg.norm(direction)))
                direction = direction * scale
                dgd *= scale

            alpha = 1.0
            reject_reason = "armijo"
            domain_err = None
            accepted = None
            while alpha >= STEP_TOL:
                cand = b + alpha * direction
                d = obj.node_min_distance(cand)
                if d <= opts.guard_delta:
                    reject_reason = "guard"
                    alpha *= 0.5
                    continue
                try:
                    S_cand, g_cand = obj.value_and_grad(cand, mu)
                except ex.EvalDomainError as err:
                    reject_reason = "domain"
                    domain_err = err
                    alpha *= 0.5
                    continue
                # Armijo with a rounding allowance: near the minimum the
                # demanded decrease falls below the resolution of S itself
                noise = 4.0 * np.finfo(float).eps * (1.0 + abs(S))
                if S_cand > S + 1e-4 * alpha * dgd + noise:
                    reject_reason = "armijo"
                    alpha *= 0.5
                    continue
                if track_signature:
                    try:
                        ws = obj.windings(cand)
                    except WindingRefinementError:
                        ws = None
                    if ws != seed_windings:
                        reject_reason = "signature"
                        alpha *= 0.5
                        continue
                accepted = (cand, S_cand, g_cand, d)
                break

            if accepted is None:
                if reject_reason == "guard":
                    return finish("GuardTriggered", b)
                if reject_reason == "signature":
                    return finish("SignatureChanged", b)
                if reject_reason == "domain":
                    raise OptimizeError(
                        f"expression domain error persisted through the "
                        f"line search at iteration {total_iter}: "
                        f"{domain_err}")
                if memory.s and not retried_steepest:
                    # Armijo stalled on the quasi-Newton direction; retry
                    # once from plain steepest descent before giving up
                    memory.clear()
                    retried_steepest = True
                    continue
                return finish("MaxIter", b)

            cand, S_cand, g_cand, dist = accepted
            memory.push(cand - b, g_cand - g)
            b, S, g = cand, S_cand, g_cand
            h1 = h1_seminorm(obj.traj(b))
            retried_steepest = False
            total_iter += 1

            if h1 > diverge_h1:
                return finish("Diverged", b)

        # phase ended with small gradient; tighten constraints further
    return finish("Converged", b)


def solve_in_class(model: ModelSpec, homotopy_class, opts: SolveOptions,
                   ) -> SolveResult:
    """Resolve a homotopy-class request to a seed, then minimize.

    homotopy_class may be:
      - a positive int: coil count for a planar two-center style seed
        (built with trajectory.seed_curve);
      - a FourierTrajectory: explicit seed (padded with zero modes up to
        opts.N when shorter);
      - None: the drift-only trajectory with zero coefficients.
    """
    from .trajectory import seed_curve

    if isinstance(homotopy_class, FourierTrajectory):
        seed = homotopy_class
        if seed.N > opts.N:
            raise OptimizeError(
                f"seed has more modes ({seed.N}) than options allow "
                f"({opts.N}); raise --modes")
        if seed.N < opts.N:
            coeffs = np.zeros((opts.N, seed.dim))
            coeffs[:seed.N] = seed.coeffs
            seed = FourierTrajectory(seed.omega, seed.nu, coeffs)
    elif homotopy_class is None:
        seed = FourierTrajectory(model.omega, model.nu,
                                 np.zeros((opts.N, model.dim)))
    else:
        m_coils = int(homotopy_class)
        seed = seed_curve(m_coils, singular_set(model), model.omega, opts.N)
    return minimize(model, seed, opts)
