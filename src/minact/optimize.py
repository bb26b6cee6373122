"""Action minimization over sine coefficients inside a fixed winding class.

The unknowns are exactly the coefficients b[k][d] of a FourierTrajectory,
so oddness and the prescribed angle drift survive every step structurally.
The solver is a limited-memory quasi-Newton descent with Armijo
backtracking.  Constraints enter by the method of multipliers (Nocedal and
Wright, Numerical Optimization, 17.3): with mu fixed, each round minimizes

    S_mu(b) = S(b) + (omega/M) * sum_{i,j} (lam_ij f_ij + (mu/2) f_ij^2),

f_ij = f_j(t_i, z_i), and sets lam <- lam + mu f until max|f| <= FEAS_TOL;
without constraints one round minimizes S.  The line search rejects any
candidate that either comes closer than guard_delta to the singular set at
a quadrature node or changes the winding signature of the seed; the
continuous problem cannot cross the singular barrier, and the guards
restore that topology for the discrete
one.  Divergence is declared against the a priori coercivity radius when
the margin is positive, and against runaway norm growth otherwise.

Most winding checks are certified: the accepted iterate's curve stays
r_b = d_b - (h/2) V_b from the singular set (d_b its node distance,
h = omega/M, V_b = |drift| + sum_k w_k |b_k| bounds its speed), and a step
moves no point by more than delta = sum_k |b_k' - b_k|.  If delta < r_b the
straight homotopy misses the set; other steps are classified on nodes
sampled by inverse FFT.

A seed in the fixed space of a half-period reflection that leaves the
model invariant (minact.symmetry) is minimized there first, on half the
unknowns and nodes; the Hessian's symmetry-breaking block then certifies
a minimum, or gives the full-space loop its first step off a saddle.

The run is fully deterministic: no randomness, fixed evaluation order.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from . import symmetry as sy
from .action import ActionReport, LagrangianTerms, apriori_radius, \
    coercivity_margin
from .model import ModelSpec, enumerate_planar, least_distance, \
    singular_set
from .trajectory import FourierTrajectory, SineGrid, \
    WindingRefinementError, refine_windings, winding_signature

__all__ = ["SolveOptions", "SolveResult", "OptimizeError",
           "minimize", "solve_in_class"]


class OptimizeError(ValueError):
    """Invalid options or an unusable seed."""


# Fixed settings of the solver: the smallest line-search step, mu and the
# tolerance on max|f| at the nodes for constrained models, the divergence
# threshold as a multiple of the a priori radius (or of the seed's H1
# norm), the number of L-BFGS pairs kept, and the relative slack on both
# terms of the clearance bound, far above their rounding.
STEP_TOL = 1e-14
AL_MU = 1e3
FEAS_TOL = 1e-12
DIVERGE_FACTOR = 10.0
LBFGS_PAIRS = 64
CERT_SLACK = 1e-9
# the Armijo test's rounding allowance per unit of 1 + |S|
ROUNDING = 4.0 * np.finfo(float).eps
# why the line search rejects a candidate, as counted in each history row
REJECT_REASONS = ("armijo", "guard", "signature", "domain")
# a seed's breaking part, relative to its size, below which it lies in the
# fixed space; the band, relative to the breaking block's largest diagonal
# entry, in which its least eigenvalue is inconclusive
FIXED_TOL = 1e-12
BAND = 1e-8


class SolveOptions(ex.Record):
    """Knobs of one minimization run.

    M defaults to 8*N (enough nodes for spectral quadrature accuracy and
    the no-aliasing requirement M >= 2N+1).
    """

    _fields = ("N", "M", "max_iters", "grad_tol", "guard_delta")
    _defaults = {"N": 32, "M": 0, "max_iters": 2000, "grad_tol": 1e-8,
                 "guard_delta": 1e-3}

    def __post_init__(self):
        if self.M == 0:
            object.__setattr__(self, "M", 8 * self.N)
        for name in self._fields:
            if getattr(self, name) <= 0:
                raise OptimizeError(f"option {name} must be positive")
        if self.M < 2 * self.N + 1:
            raise OptimizeError(
                f"M = {self.M} must be at least 2N+1 = {2 * self.N + 1}")


class SolveResult(ex.Record):
    """The returned iterate (trajectory) and its status (Converged |
    Diverged | GuardTriggered | SignatureChanged | MaxIter), ActionReport
    (report) and history rows; its HomotopySignature (signature) where
    the solve tracks one, and the (M, l) multipliers at the nodes of a
    constrained solve (or None); the axis r of the symmetric phase's
    reflection (None if it did not run), its accepted steps and the
    breaking block's least eigenvalue (None if not computed)."""

    _fields = ("trajectory", "status", "report", "history", "signature",
               "multipliers", "axis", "symmetric_iters",
               "breaking_eigenvalue")
    _defaults = {"signature": None, "multipliers": None, "axis": None,
                 "symmetric_iters": 0, "breaking_eigenvalue": None}

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "report": self.report.to_dict(),
            "history": self.history,
            "windings": ({str(list(p)): w
                          for p, w in self.signature.windings.items()}
                         if self.signature else {}),
            "reflection_axis": (None if self.axis is None
                                else list(self.axis)),
            "symmetric_iters": self.symmetric_iters,
            "breaking_eigenvalue": self.breaking_eigenvalue,
        }


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a vector, bit for bit, without its dispatch."""
    return math.sqrt(np.dot(x, x))


def _row_norms(B: np.ndarray) -> np.ndarray:
    """np.linalg.norm(B, axis=1), bit for bit, without its dispatch."""
    return np.sqrt((B * B).sum(axis=1))


class _Objective:
    """Penalized action and gradient as functions of flat coefficients.

    The quadrature grid's sine basis is built once; every inner-loop
    quantity is a dense matmul on it.
    """

    def __init__(self, model: ModelSpec, proto: FourierTrajectory, M: int):
        self.proto = proto
        self.terms = LagrangianTerms.of(model)
        self.weight = self.h = model.omega / M  # and h the node spacing
        self.sigma = singular_set(model)
        self.grid = SineGrid.uniform(proto, M)
        self.shape = proto.coeffs.shape
        self.sig_centers = tuple(enumerate_planar(self.sigma))
        self.drift_speed = np.linalg.norm(self.grid.drift)
        # h1_seminorm's terms that do not depend on the coefficients
        drift = self.grid.drift
        self.h1_drift = proto.omega * float(np.dot(drift, drift))
        self.w2 = self.grid.w[:, None] ** 2

    def coeffs(self, b_flat: np.ndarray) -> np.ndarray:
        """The coefficients (N, dim) of the loop's coordinates b."""
        return b_flat.reshape(self.shape)

    def reduce(self, grad: np.ndarray) -> np.ndarray:
        """A coefficient gradient (N, dim) in the loop's coordinates."""
        return grad.reshape(-1)

    def sizes(self, b_flat: np.ndarray) -> np.ndarray:
        """|b_k| per mode."""
        return _row_norms(self.coeffs(b_flat))

    def reach(self, direction: np.ndarray) -> float:
        """sum_k |d_k|: a step alpha d moves no point beyond alpha times
        this."""
        return float(np.sum(self.sizes(direction)))

    def traj(self, b_flat: np.ndarray) -> FourierTrajectory:
        return self.proto.with_coeffs(self.coeffs(b_flat))

    def nodes(self, b_flat: np.ndarray):
        """Node positions (M, dim), shared by the guard and the objective,
        and their least distance to sigma (inf for an empty sigma)."""
        z = self.grid.z(self.coeffs(b_flat))
        return z, least_distance(self.sigma, z)

    def clearance(self, b_flat: np.ndarray, node_distance: float) -> float:
        """Lower bound r_b on the distance from the curve b to sigma: every
        time lies within h/2 = omega/(2M) of a node, and the speed is at
        most |drift| + sum_k w_k |b_k|."""
        speed = self.drift_speed + self.grid.w @ self.sizes(b_flat)
        return ((1.0 - CERT_SLACK) * node_distance
                - (1.0 + CERT_SLACK) * 0.5 * self.h * float(speed))

    def windings(self, b_flat: np.ndarray):
        """Winding dict on the default winding grid or, failing that, on
        twice as many nodes; None for a curve classified on neither, which
        passes too close to a singular point to certify its class."""
        try:
            return refine_windings(self.traj(b_flat), self.sig_centers, 1)
        except WindingRefinementError:
            return None

    def h1(self, b_flat: np.ndarray) -> float:
        """h1_seminorm of the trajectory b, bit for bit."""
        B = self.coeffs(b_flat)
        return math.sqrt(self.h1_drift + float(np.sum(self.w2 * B * B))
                         * self.proto.omega / 2.0)

    def action(self, fields) -> float:
        """The discrete action (omega/M) sum_i L_i of evaluated fields."""
        return self.weight * float(np.sum(fields.L))

    def value_and_grad(self, b_flat: np.ndarray, z: np.ndarray, lam=None):
        """S, or S_mu with multipliers lam (M, l), and its gradient at b,
        whose node positions are z; and the evaluated fields, whose L
        gives S without the multiplier terms (action), and f the
        constraint values (M, l) or None."""
        path = self.grid.path(self.coeffs(b_flat), z)
        fields = self.terms.lagrangian_at(
            path, "objective" if lam is None else "penalized")
        S = self.action(fields)
        if lam is not None:
            F = fields.f
            S += self.weight * float(np.sum(F * (lam + 0.5 * AL_MU * F)))
            fields.dL[0] += np.sum((lam + AL_MU * F)[:, :, None]
                                   * fields.df, axis=1)
        grad = self.weight * self.grid.gradient(fields.dL)
        return S, self.reduce(grad), fields


class _HalfPeriodObjective(_Objective):
    """The objective on the fixed space of a half-period reflection
    (minact.symmetry), in the c_k of b_k = c_k e_k: S and the gradient,
    projected on the e_k, come from the first M/2 nodes of the full grid
    with weight 2 omega/M; h stays the full grid's node spacing."""

    def __init__(self, full: _Objective, axis: np.ndarray):
        self.__dict__.update(full.__dict__)
        self.axis = axis
        self.grid = full.grid.head(len(full.grid.t) // 2)
        self.weight = 2.0 * full.weight
        self.E, self.F = sy.mode_directions(axis, self.shape[0])
        self._last = None, None  # (c, its coefficients)

    @classmethod
    def of(cls, model: ModelSpec, full: _Objective, b_flat: np.ndarray):
        """(the fixed-space objective, the seed b's coordinates there), or
        (None, b) unless the model is planar, unconstrained and invariant
        under the reflection swapping its one antipodal pair of singular
        points, M is even and b has no breaking part."""
        if (model.m, model.n) != (2, 0) or model.constraints \
                or len(full.sig_centers) != 2 or len(full.grid.t) % 2:
            return None, b_flat
        axis = sy.reflection_axis(model, full.terms, full.sig_centers)
        if axis is None:
            return None, b_flat
        half = cls(full, axis)
        B = full.coeffs(b_flat)
        if _norm(np.sum(B * half.F, axis=1)) > FIXED_TOL * _norm(b_flat):
            return None, b_flat
        return half, np.sum(B * half.E, axis=1)

    def coeffs(self, c: np.ndarray) -> np.ndarray:
        """c_k e_k, kept for the last c: the loop asks for the
        coefficients of one iterate several times, and never writes to
        an iterate."""
        if c is not self._last[0]:
            self._last = c, c[:, None] * self.E
        return self._last[1]

    def sizes(self, c: np.ndarray) -> np.ndarray:
        return np.abs(c)  # |e_k| = 1 to rounding, far below CERT_SLACK

    def reduce(self, grad: np.ndarray) -> np.ndarray:
        return (grad * self.E).sum(axis=1)

    def breaking_block(self, c: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The breaking block at c, whose node positions are z."""
        return sy.breaking_block(self.terms, self.grid, self.weight,
                                 self.axis, self.coeffs(c), z)

    def second_order(self, c: np.ndarray, z: np.ndarray):
        """(the breaking block's least eigenvalue, whether it lies above
        the band, the escape direction): below the band, the unit
        eigenvector with its largest entry positive in flat coefficients;
        else None."""
        H = self.breaking_block(c, z)
        least, v = sy.least_eigenpair(H)
        band = BAND * float(np.max(np.diag(H)))
        if least >= -band:
            return least, least > band, None
        v = v * np.sign(v[np.argmax(np.abs(v))])
        return least, False, sy.breaking_coeffs(self.F, v).reshape(-1)


class _LbfgsMemory:
    """L-BFGS in compact form with a fixed seed matrix.

    The action's kinetic block is exactly diagonal in the sine basis with
    entries ~ g * w_k^2 * omega/2, so seeding the inverse Hessian with
    H0 = gamma * D, D = diag(d0) the inverse of that diagonal, removes the
    O(N^2) conditioning that plain identity seeding suffers from.  A 2-D
    d0 is D itself, any symmetric positive definite matrix.

    The newest k <= LBFGS_PAIRS pairs are the rows of S and Y, oldest
    first.  With R the upper triangle of S Y^T, the product H g is a few
    (k, n) and (k, k) matrix products (Byrd, Nocedal and Schnabel, Math.
    Programming 63, 1994): push keeps R^-1, diag(S Y^T) and Y D Y^T
    current, and the direction equals the two-loop recursion's up to
    rounding.  A deep memory cuts the iterations of long solves (Liu and
    Nocedal, Math. Programming 45, 1989): two_centers with three coils at
    N = 48 takes 317 of them with 20 pairs and 160 with 64.

    The pairs live in the window [lo, lo + k) of buffers with
    2 LBFGS_PAIRS rows.  Dropping the oldest pair advances lo, and the
    R^-1 and Y D Y^T of the rest are the trailing block of the old ones;
    only a window that reaches the end of the buffers is copied to the
    front, once every LBFGS_PAIRS pushes.
    """

    def __init__(self, d0: np.ndarray):
        self.D = (lambda v: d0 * v) if d0.ndim == 1 else (lambda v: d0 @ v)
        n, rows = len(d0), 2 * LBFGS_PAIRS
        self.lo = self.k = 0
        self._S = np.empty((rows, n))
        self._Y = np.empty((rows, n))
        self._sy = np.empty(rows)  # diag(S Y^T)
        # the lower triangle of R^-1 is never written and stays zero
        self._Rinv = np.zeros((rows, rows))
        self._YDY = np.empty((rows, rows))

    @property
    def S(self) -> np.ndarray:
        return self._S[self.lo:self.lo + self.k]

    @property
    def Y(self) -> np.ndarray:
        return self._Y[self.lo:self.lo + self.k]

    def __len__(self) -> int:
        return self.k

    def clear(self) -> None:
        self.lo = self.k = 0

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(np.dot(s, y))
        if sy <= 1e-10 * _norm(s) * _norm(y):
            return  # skip pairs that would break positive definiteness
        lo, k = self.lo, self.k
        if k == LBFGS_PAIRS:
            lo, k = lo + 1, k - 1  # drop the oldest pair
        if lo + k == len(self._sy):  # at the end: move the window to the front
            for a in (self._S, self._Y, self._sy):
                a[:k] = a[lo:]
            for a in (self._Rinv, self._YDY):
                a[:k, :k] = a[lo:, lo:]
            lo = 0
        w, c = slice(lo, lo + k), lo + k  # the kept pairs, the new row
        # R gains the column (S y, s.y); R^-1 the column -R^-1 (S y) / s.y
        self._Rinv[w, c] = (self._Rinv[w, w] @ (self._S[w] @ y)) / -sy
        self._Rinv[c, c] = 1.0 / sy
        dy = self.D(y)
        self._YDY[w, c] = self._YDY[c, w] = self._Y[w] @ dy
        self._YDY[c, c] = np.dot(y, dy)
        self._S[c], self._Y[c], self._sy[c] = s, y, sy
        self.lo, self.k = lo, k + 1

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """-H grad, with gamma = s.y / y.D y of the newest pair (1 with
        no pairs)."""
        dg = self.D(grad)
        if not self.k:
            return -dg
        w, c = slice(self.lo, self.lo + self.k), self.lo + self.k - 1
        S, Y, Rinv = self._S[w], self._Y[w], self._Rinv[w, w]
        gamma = self._sy[c] / self._YDY[c, c]
        p = Rinv @ (S @ grad)
        x = self._sy[w] * p + gamma * (self._YDY[w, w] @ p - Y @ dg)
        return -(gamma * (dg - self.D(p @ Y)) + (x @ Rinv) @ S)


def minimize(model: ModelSpec, seed: FourierTrajectory,
             opts: SolveOptions) -> SolveResult:
    """Minimize the discrete action from the seed, on the constraint set.

    Statuses:
      Converged        gradient norm of S_mu reached grad_tol, max|f| <=
                       FEAS_TOL at the nodes, signature preserved;
      Diverged         H1 norm left the a priori ball (positive margin) or
                       grew past DIVERGE_FACTOR times the seed scale;
      GuardTriggered   no step exists keeping guard_delta clearance;
      SignatureChanged no step exists keeping the seed's windings;
      MaxIter          iteration budget exhausted, or Armijo still failed
                       after the one steepest-descent retry.

    A seed in the fixed space of a half-period reflection is minimized
    there first (_HalfPeriodObjective).  If that phase and the full
    gradient of its iterate meet grad_tol, a positive definite breaking
    block returns it Converged, and a negative eigenvalue gives the
    full-space loop its first step; any other end hands the iterate to
    that loop.  max_iters counts the steps of both.
    """
    if seed.N != opts.N:
        raise OptimizeError(
            f"seed has N = {seed.N} but options request N = {opts.N}")
    if seed.dim != model.dim:
        raise OptimizeError(f"seed has dimension {seed.dim} but the model "
                            f"has dimension {model.dim}")
    if abs(seed.omega - model.omega) > 1e-12 * model.omega:
        raise OptimizeError("seed period differs from the model period")
    if seed.nu != model.nu:
        raise OptimizeError("seed winding vector differs from the model")
    obj = _Objective(model, seed, opts.M)
    track_signature = (not obj.sigma.is_empty()) and model.m == 2 \
        and model.n == 0
    # the iterate b carries its node positions, distance, H1 norm and
    # clearance bound, computed once when it is accepted
    b = seed.coeffs.reshape(-1).copy()
    # the symmetric phase, if any, and b in its coordinates
    half, b = _HalfPeriodObjective.of(model, obj, b)
    first = obj if half is None else half
    z, dist = first.nodes(b)
    seed_windings = None
    if track_signature:
        try:
            seed_sig = winding_signature(seed, obj.sigma)
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

    total_iter = 0

    def evaluate(objective, b_flat, z_b):
        try:
            return objective.value_and_grad(b_flat, z_b, lam)
        except ex.EvalDomainError as err:
            raise OptimizeError(
                f"expression domain error at iteration {total_iter}: "
                f"{err}") from err

    # S_mu's multipliers and mu: none and 0 without constraints
    lam, mu = (np.zeros((opts.M, len(model.constraints))), AL_MU) \
        if model.constraints else (None, 0.0)
    # the seed's S_mu sets the a priori radius
    S, g, fields = evaluate(first, b, z)
    h1 = seed_h1 = first.h1(b)
    diverge_h1 = DIVERGE_FACTOR * (
        apriori_radius(model.constants, model.omega, S)
        if coercivity_margin(model.constants, model.omega) > 0.0
        else max(1.0, seed_h1))
    # kinetic-block diagonal of the Hessian per mode, repeated over coords
    diag_kin = (model.omega / 2.0) * (2.0 * model.constants.K
                                      * obj.grid.w ** 2 + 1.0)
    h0 = np.repeat(1.0 / diag_kin, model.dim)
    if lam is not None:
        # S_mu's Hessian adds mu w sum_i (s_i s_i^T) x (J_i^T J_i), s_i the
        # sines at node i: H0 inverts it, taken at the seed, plus the
        # kinetic diagonal, which is exact for a linear constraint
        J = obj.terms.constraint_jacobian_at(obj.grid.t, z)
        JJ = np.einsum("mld,mle->mde", J, J) * (mu * obj.weight)
        sines = obj.grid.S  # (M, N)
        A = np.einsum("mk,mden->kdne", sines, JJ[..., None]
                      * sines[:, None, None]).reshape(len(h0), len(h0))
        h0 = np.linalg.inv(A + np.diag(1.0 / h0))
    history: list[dict] = []
    symmetric_iters, least = 0, None  # for the result

    def finish(status: str, it) -> SolveResult:
        b, _, _, _, g, fields, h1 = it
        traj = obj.traj(b)  # the current iterate, with the loop's S, g, h1
        # S_mu holds the multiplier terms: the report's S is the action
        # alone, from the iterate's own fields.  The gradient is the
        # loop's, which a Converged solve leaves at that of
        # S + (omega/M) sum lam f with the returned lam
        report = ActionReport.of(model, traj, obj.action(fields), g, h1)
        sig = None
        if track_signature:
            try:
                sig = winding_signature(traj, obj.sigma)
            except WindingRefinementError:
                pass  # unclassifiable: not Converged
            if status == "Converged" and (sig is None
                                          or sig.windings != seed_windings):
                status = "SignatureChanged"
        return SolveResult(
            trajectory=traj, status=status, report=report, history=history,
            signature=sig, multipliers=lam,
            axis=None if half is None else tuple(map(float, half.axis)),
            symmetric_iters=symmetric_iters, breaking_eigenvalue=least)

    def descend(obj, h0, it, escape=None):
        """The status and last iterate of the loop on obj from the
        iterate it = (b, z, dist, S, g, fields, h1).  An escape direction
        is the first step's, taken whatever the gradient."""
        nonlocal total_iter, lam
        b, z, dist, S, g, fields, h1 = it
        # the clearance bound certifies windings, so only a tracked
        # signature needs it
        clear = obj.clearance(b, dist) if track_signature else None
        memory = _LbfgsMemory(h0)
        # the multipliers changed since the last step; the steepest-descent
        # retry was taken from the current iterate
        updated = retried = False
        while True:
            gn = _norm(g)
            # the candidates rejected by the line search from this row
            rejected = dict.fromkeys(REJECT_REASONS, 0)
            history.append({
                "iter": total_iter, "mu": mu, "S_mu": S, "grad_norm": gn,
                "min_distance": dist, "h1": h1, "rejected": rejected,
            })
            if gn <= opts.grad_tol and not updated and escape is None:
                if lam is not None:
                    lam += mu * fields.f  # the next estimate, from f
                if lam is None or np.max(np.abs(fields.f)) <= FEAS_TOL:
                    return "Converged", (b, z, dist, S, g, fields, h1)
                # a gradient below grad_tol may still hide an f above
                # FEAS_TOL: the next round takes at least one step
                S, g, fields = evaluate(obj, b, z)
                updated = True
                continue
            if total_iter >= opts.max_iters:
                return "MaxIter", (b, z, dist, S, g, fields, h1)
            escaping = escape is not None
            if escaping:
                direction, escape = escape, None
                dgd = float(np.dot(direction, g))
            else:
                direction = memory.direction(g)
                dgd = float(np.dot(direction, g))
                if dgd >= 0.0:
                    direction = -g
                    dgd = -float(np.dot(g, g))
                    memory.clear()
            if not memory:
                # first step, or first after a reset: conservative scale
                scale = 1.0 / max(1.0, _norm(direction))
                direction = direction * scale
                dgd *= scale
            # a step of alpha moves no point of the curve beyond
            # alpha*reach
            reach = obj.reach(direction) if track_signature else None
            # Armijo with a rounding allowance: near the minimum the
            # demanded decrease falls below the resolution of S itself
            noise = ROUNDING * (1.0 + abs(S))

            def candidate(alpha):
                """A reason from REJECT_REASONS and its domain error, if
                any; or None and the candidate's b, z, S_mu, g, fields and
                node distance."""
                # 1.0 * direction is direction, bit for bit
                cand = b + direction if alpha == 1.0 \
                    else b + alpha * direction
                z_cand, d = obj.nodes(cand)
                if d <= opts.guard_delta:
                    return "guard", None
                try:
                    S_cand, g_cand, f_cand = obj.value_and_grad(
                        cand, z_cand, lam)
                except ex.EvalDomainError as err:
                    return "domain", err
                if S_cand > S + 1e-4 * alpha * dgd + noise:
                    return "armijo", None
                # a step not certified by the clearance bound is classified
                if track_signature and alpha * reach >= clear \
                        and obj.windings(cand) != seed_windings:
                    return "signature", None
                return None, (cand, z_cand, S_cand, g_cand, f_cand, d)

            alpha = 1.0
            while alpha >= STEP_TOL:
                reason, found = candidate(alpha)
                if reason is None:
                    break
                rejected[reason] += 1
                alpha *= 0.5
            else:
                if reason == "domain":
                    raise OptimizeError(
                        f"expression domain error persisted through the "
                        f"line search at iteration {total_iter}: {found}")
                if escaping:
                    continue  # no step leaves the saddle: the loop decides
                if reason == "armijo" and memory and not retried:
                    # Armijo stalled on the quasi-Newton direction; retry
                    # once from plain steepest descent before giving up
                    memory.clear()
                    retried = True
                    continue
                return {"guard": "GuardTriggered",
                        "signature": "SignatureChanged"}.get(
                            reason, "MaxIter"), (b, z, dist, S, g, fields, h1)

            cand, z, S_cand, g_cand, fields, dist = found
            memory.push(cand - b, g_cand - g)
            b, S, g = cand, S_cand, g_cand
            h1 = obj.h1(b)
            if track_signature:
                clear = obj.clearance(b, dist)
            retried = updated = False
            total_iter += 1
            if h1 > diverge_h1:
                return "Diverged", (b, z, dist, S, g, fields, h1)

    it, escape = (b, z, dist, S, g, fields, h1), None
    if half is not None:
        status, it = descend(half, 1.0 / diag_kin, it)
        symmetric_iters = total_iter
        # the phase's iterate on all M nodes: a certified minimum's report
        c, z_half = it[0], it[1]
        b = half.coeffs(c).reshape(-1)
        z, dist = obj.nodes(b)
        S, g, fields = evaluate(obj, b, z)
        it = (b, z, dist, S, g, fields, it[6])
        if status == "Converged" and _norm(g) <= opts.grad_tol:
            least, certified, escape = half.second_order(c, z_half)
            if certified:
                return finish("Converged", it)
    status, it = descend(obj, h0, it, escape)
    return finish(status, it)


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
