"""The action functional, its exact coefficient gradient, and coercivity.

The action of a trajectory over one period is

    S(z) = integral_0^omega [ (1/2) g_ij dz^i dz^j + a_i dz^i - V ] dt,

discretized by the rectangle rule on M uniform nodes (identical to the
trapezoid rule for periodic integrands, and spectrally accurate for smooth
ones).  Because z depends linearly on the sine coefficients, the chain rule
through the same quadrature yields the gradient of the discrete S exactly:

    dS/db[k][d] = (omega/M) * sum_i [ dL/dz^d(t_i) * sin(w_k t_i)
                                    + dL/ddz^d(t_i) * w_k cos(w_k t_i) ],

with w_k = 2*pi*k/omega.  The optimizer therefore sees a consistent
objective/gradient pair; agreement with the continuous Euler-Lagrange
equations is verified separately (minact.verify).

Coercivity: with constants (C, M, A, K, P, C1) valid for the model, the
action of any odd admissible loop obeys

    S(z) + C1*omega >= margin * ||z||^2 - C*sqrt(omega) * ||z||,
    margin = K - M*omega/sqrt(2) - A*omega^2/2,

where ||z|| is the H1 seminorm.  A positive margin bounds every minimizer
inside an a priori radius computable from any reference action value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .model import GrowthConstants, ModelSpec, nearest_distances, \
    singular_set
from .trajectory import FourierTrajectory, SampledPath, SineGrid, \
    h1_seminorm, min_distance_to

__all__ = [
    "ActionReport", "SingularityHit", "NonCoercive",
    "action", "action_gradient", "action_report",
    "coercivity_margin", "action_lower_bound", "apriori_radius",
    "LagrangianTerms", "Fields",
]

MACHINE_GUARD = 1e-12


class SingularityHit(RuntimeError):
    """A quadrature node fell (numerically) onto the singular set."""


class NonCoercive(RuntimeError):
    """Coercivity margin is not positive; the a priori bound is unavailable."""


class Fields(NamedTuple):
    """Model data and its derivatives at M nodes; None where not evaluated.

    G (M, dim, dim), a (M, dim), V (M,): metric, gyro covector, potential.
    dG (dim, M, dim, dim), da (dim, M, dim), dV (M, dim): their derivatives
    in z^d, with d the leading axis of dG and da and the last axis of dV.
    dtG (M, dim, dim), dta (M, dim): derivatives in t.
    f (M, l), df (M, l, dim), dtf (M, l): constraint values, gradients in
    z and derivatives in t.
    """

    G: np.ndarray | None = None
    a: np.ndarray | None = None
    V: np.ndarray | None = None
    dG: np.ndarray | None = None
    da: np.ndarray | None = None
    dV: np.ndarray | None = None
    dtG: np.ndarray | None = None
    dta: np.ndarray | None = None
    f: np.ndarray | None = None
    df: np.ndarray | None = None
    dtf: np.ndarray | None = None


# The groups of trees each kind of field evaluation computes, in the order
# its caller has always evaluated them.  A derivative can have a narrower
# domain than the tree it came from (d/dz sqrt(z) at z = 0), so a caller
# evaluates no tree it does not use; where several trees leave their domain
# at once, the first in this order names the EvalDomainError.  "dz" is dG,
# da and dV interleaved per coordinate, the order of the action gradient.
_KINDS = {
    "objective": ("G", "a", "V", "dz"),
    "lagrangian": ("G", "a", "V"),
    "gradient": ("G", "a", "dz"),
    "residual": ("G", "dG", "dtG", "da", "dta", "dV"),
    "energy": ("G", "V"),
    "metric": ("G",),
    "gyro": ("a",),
    "potential": ("V",),
    "constraints": ("f",),
    "constraint_jacobian": ("df",),
    "constraint_rate": ("dtf",),
}


class LagrangianTerms:
    """Derivative trees of the model data, built once and reused.

    Holds g_ij, a_i, V, the constraint functions, and their first
    derivatives in t and every coordinate, as evaluatable trees.  All of
    them are compiled into one expression tape (minact.expr.compile), so
    a field evaluation computes each distinct subtree once per node array.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        dim = model.dim
        self.dim = dim
        self.g = model.metric
        self.a = model.gyro
        self.V = model.potential
        self.dg = [[[ex.differentiate(model.metric[i][j], d + 1)
                     for j in range(dim)] for i in range(dim)]
                   for d in range(dim)]
        self.dtg = [[ex.differentiate(model.metric[i][j], 0)
                     for j in range(dim)] for i in range(dim)]
        self.da = [[ex.differentiate(model.gyro[i], d + 1)
                    for i in range(dim)] for d in range(dim)]
        self.dta = [ex.differentiate(model.gyro[i], 0) for i in range(dim)]
        self.dV = [ex.differentiate(model.potential, d + 1)
                   for d in range(dim)]
        self.f = [c.f for c in model.constraints]
        self.df = [[ex.differentiate(c.f, d + 1) for d in range(dim)]
                   for c in model.constraints]
        self.dtf = [ex.differentiate(c.f, 0) for c in model.constraints]
        self._kinds = self._compile()

    def _compile(self) -> dict:
        """kind -> (tape, (group, places) per root, groups it fills).

        Every tree goes into one tape; each kind runs a selection of it.
        """
        dim, l = self.dim, len(self.f)
        n = slice(None)  # the node axis
        upper = [(i, j) for i in range(dim) for j in range(i, dim)]
        entries: list = []  # (group, tree, places its values are stored at)
        index: dict = {}    # group -> entry indices

        def add(group, tree, *places):
            index.setdefault(group, []).append(len(entries))
            entries.append((group, tree, places))

        # symmetric matrices are read from their upper triangle
        for i, j in upper:
            add("G", self.g[i][j], (n, i, j), (n, j, i))
        for i in range(dim):
            add("a", self.a[i], (n, i))
        add("V", self.V, (n,))
        for d in range(dim):
            for i, j in upper:
                add("dG", self.dg[d][i][j], (d, n, i, j), (d, n, j, i))
            for i in range(dim):
                add("da", self.da[d][i], (d, n, i))
            add("dV", self.dV[d], (n, d))
        # added coordinate by coordinate, so in entry order the three
        # groups interleave per coordinate, as "dz" needs
        index["dz"] = sorted(index.get("dG", []) + index.get("da", [])
                             + index.get("dV", []))
        for i, j in upper:
            add("dtG", self.dtg[i][j], (n, i, j), (n, j, i))
        for i in range(dim):
            add("dta", self.dta[i], (n, i))
        for j in range(l):
            add("f", self.f[j], (n, j))
            add("dtf", self.dtf[j], (n, j))
            for d in range(dim):
                add("df", self.df[j][d], (n, j, d))

        tape = ex.compile([tree for _, tree, _ in entries])
        kinds = {}
        for kind, groups in _KINDS.items():
            order = [k for g in groups for k in index.get(g, [])]
            outputs = [h for g in groups
                       for h in (("dG", "da", "dV") if g == "dz" else (g,))]
            kinds[kind] = (tape.select(order),
                           [(entries[k][0], entries[k][2]) for k in order],
                           outputs)
        return kinds

    # -- field evaluation on sampled nodes --------------------------------

    def fields(self, t, z, kind: str = "objective") -> Fields:
        """Evaluate one kind of fields at node arrays in one tape run.

        kind is a key of _KINDS.  The default, "objective", gives G, a, V,
        dG, da and dV: everything the action and its gradient need.  The
        other kinds give the subsets their callers have always evaluated.
        """
        tape, targets, groups = self._kinds[kind]
        M = len(t)
        dim, l = self.dim, len(self.f)
        shapes = {"G": (M, dim, dim), "a": (M, dim), "V": (M,),
                  "dG": (dim, M, dim, dim), "da": (dim, M, dim),
                  "dV": (M, dim), "dtG": (M, dim, dim), "dta": (M, dim),
                  "f": (M, l), "df": (M, l, dim), "dtf": (M, l)}
        out = {g: np.empty(shapes[g]) for g in groups}
        # a root free of t and z comes back a scalar and is broadcast by
        # the assignment, with the values tape.run would have filled in
        for (group, places), v in zip(targets, tape._values(t, z)):
            for p in places:
                out[group][p] = v
        return Fields(**out)

    def metric_at(self, t, z) -> np.ndarray:
        return self.fields(t, z, "metric").G

    def gyro_at(self, t, z) -> np.ndarray:
        return self.fields(t, z, "gyro").a

    def potential_at(self, t, z) -> np.ndarray:
        return self.fields(t, z, "potential").V

    def lagrangian_at(self, path: SampledPath, fields: Fields) -> np.ndarray:
        """L at the nodes, from fields holding G, a and V."""
        G, a, V = fields.G, fields.a, fields.V
        kinetic = 0.5 * np.einsum("mij,mi,mj->m", G, path.dz, path.dz)
        return kinetic + np.einsum("mi,mi->m", a, path.dz) - V

    def dL_fields(self, path: SampledPath, fields: Fields):
        """(dL/dz^d, dL/ddz^d) at the nodes, each of shape (M, dim).

        fields must hold G, a, dG, da and dV.
        """
        dz = path.dz
        dLdv = np.einsum("mij,mj->mi", fields.G, dz) + fields.a
        dLdz = np.empty((len(path.t), self.dim))
        for d in range(self.dim):
            dLdz[:, d] = (0.5 * np.einsum("mij,mi,mj->m", fields.dG[d], dz,
                                          dz)
                          + np.einsum("mi,mi->m", fields.da[d], dz)
                          - fields.dV[:, d])
        return dLdz, dLdv

    def constraints_at(self, t, z) -> np.ndarray:
        """Constraint values, shape (M, l)."""
        return self.fields(t, z, "constraints").f

    def constraint_jacobian_at(self, t, z) -> np.ndarray:
        """d f_j / d z^d at the nodes, shape (M, l, dim)."""
        return self.fields(t, z, "constraint_jacobian").df


def _nodes(model: ModelSpec, traj: FourierTrajectory, M: int,
           terms: LagrangianTerms | None, kind: str):
    """Guarded path, basis and one kind of fields at the M uniform nodes."""
    terms = terms or LagrangianTerms(model)
    grid = SineGrid.uniform(traj, M)
    path = grid.path(traj.coeffs)
    if model.sigma_base:
        d = nearest_distances(singular_set(model), path.z)
        if np.any(d <= MACHINE_GUARD):
            i = int(np.argmin(d))
            raise SingularityHit(
                f"quadrature node t = {path.t[i]} lies within "
                f"{MACHINE_GUARD} of the singular set (distance {d[i]:.3e})")
    return terms, grid, path, terms.fields(path.t, path.z, kind)


def action(model: ModelSpec, traj: FourierTrajectory, M: int,
           terms: LagrangianTerms | None = None) -> float:
    """Discrete action S = (omega/M) * sum_i L(t_i, z_i, dz_i).

    Deterministic: fixed node order, fixed summation order.  Raises
    SingularityHit if a node touches the singular set and EvalDomainError
    if an expression leaves its domain.
    """
    terms, _, path, fields = _nodes(model, traj, M, terms, "lagrangian")
    return model.omega / M * float(np.sum(terms.lagrangian_at(path, fields)))


def action_gradient(model: ModelSpec, traj: FourierTrajectory, M: int,
                    terms: LagrangianTerms | None = None) -> np.ndarray:
    """Exact gradient of the discrete action; shape matches traj.coeffs."""
    terms, grid, path, fields = _nodes(model, traj, M, terms, "gradient")
    return model.omega / M * grid.gradient(*terms.dL_fields(path, fields))


def coercivity_margin(k: GrowthConstants, omega: float) -> float:
    """K - M*omega/sqrt(2) - A*omega^2/2; positive certifies coercivity."""
    return k.K - k.M * omega / math.sqrt(2.0) - k.A * omega * omega / 2.0


def action_lower_bound(k: GrowthConstants, omega: float, h1: float) -> float:
    """Lower bound margin*h1^2 - C*sqrt(omega)*h1 for S(z) + C1*omega.

    The additive C1*omega is kept on the action side of the comparison
    (S + C1*omega >= bound) so model potentials keep their literal form.
    """
    if h1 < 0:
        raise ValueError("h1 must be >= 0")
    margin = coercivity_margin(k, omega)
    return margin * h1 * h1 - k.C * math.sqrt(omega) * h1


def apriori_radius(k: GrowthConstants, omega: float, S_ref: float) -> float:
    """Largest H1 norm any minimizer below the reference action can have.

    Solves margin*r^2 - C*sqrt(omega)*r - (S_ref + C1*omega) = 0 for the
    larger root.  Any admissible trajectory with S <= S_ref satisfies
    ||z|| <= r.  Raises NonCoercive when the margin is not positive.
    """
    margin = coercivity_margin(k, omega)
    if margin <= 0.0:
        raise NonCoercive(f"coercivity margin {margin} is not positive")
    c_term = k.C * math.sqrt(omega)
    disc = c_term * c_term + 4.0 * margin * (S_ref + k.C1 * omega)
    disc = max(disc, 0.0)
    return (c_term + math.sqrt(disc)) / (2.0 * margin)


@dataclass(frozen=True)
class ActionReport:
    """Summary of one trajectory against one model."""

    S: float
    grad_norm: float
    h1: float
    min_distance: float
    margin: float
    lower_bound_at_h1: float

    def to_dict(self) -> dict:
        return {
            "S": self.S,
            "grad_norm": self.grad_norm,
            "h1": self.h1,
            "min_distance": self.min_distance,
            "margin": self.margin,
            "lower_bound_at_h1": self.lower_bound_at_h1,
        }


def action_report(model: ModelSpec, traj: FourierTrajectory, M: int,
                  terms: LagrangianTerms | None = None) -> ActionReport:
    """Action, gradient norm, H1 norm, clearance, and coercivity numbers."""
    terms, grid, path, fields = _nodes(model, traj, M, terms, "objective")
    S = model.omega / M * float(np.sum(terms.lagrangian_at(path, fields)))
    g = model.omega / M * grid.gradient(*terms.dL_fields(path, fields))
    h1 = h1_seminorm(traj)
    dist = min_distance_to(traj, singular_set(model))
    k = model.constants
    return ActionReport(
        S=S,
        grad_norm=float(np.linalg.norm(g)),
        h1=h1,
        min_distance=dist,
        margin=coercivity_margin(k, model.omega),
        lower_bound_at_h1=action_lower_bound(k, model.omega, h1),
    )
