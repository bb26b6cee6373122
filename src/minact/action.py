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

import functools
import math
from dataclasses import asdict, dataclass
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
    L (M,): the Lagrangian; dL (2, M, dim): dL/dz^d in dL[0], dL/ddz^d in
    dL[1].
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
    L: np.ndarray | None = None
    dL: np.ndarray | None = None


# The groups of trees each kind of field evaluation computes, in the order
# its caller has always evaluated them.  A derivative can have a narrower
# domain than the tree it came from (d/dz sqrt(z) at z = 0), so a caller
# evaluates no tree it does not use; where several trees leave their domain
# at once, the first in this order names the EvalDomainError.  "dz" is dG,
# da and dV interleaved per coordinate, the order of the action gradient.
# The last four kinds run the Lagrangian program: the model trees its roots
# are built from come first and are stored nowhere; L, dL and f, df, from
# the first program group on, are stored.  The program's own operations
# are +, - and *, which never leave their domain.
_KINDS = {
    "residual": ("G", "dG", "dtG", "da", "dta", "dV"),
    "energy": ("G", "V"),
    "metric": ("G",),
    "gyro": ("a",),
    "potential": ("V",),
    "constraints": ("f",),
    "constraint_jacobian": ("df",),
    "constraint_rate": ("dtf",),
    "action": ("G", "a", "V", "L"),
    "gradient": ("G", "a", "dz", "dL"),
    "objective": ("G", "a", "V", "dz", "L", "dL"),
    "penalized": ("G", "a", "V", "dz", "L", "dL", "f", "df"),
}
_PROGRAM = ("L", "dL")


class LagrangianTerms:
    """Derivative trees of the model data, built once and reused.

    Holds g_ij, a_i, V, the constraint functions, and their first
    derivatives in t and every coordinate, as evaluatable trees.  They
    are compiled into one expression tape (minact.expr.compile), so a
    field evaluation computes each distinct subtree once per node array.
    The Lagrangian program, which adds L and its partial derivatives as
    roots, is compiled into a second tape on first use.
    """

    @classmethod
    def of(cls, model: ModelSpec) -> "LagrangianTerms":
        """The model's terms, built on first use and kept on the model
        instance outside its fields, so every caller shares one build.
        with_omega and with_nu copies share the original's terms when it
        has them; a replace() copy builds its own."""
        if "_terms" not in model.__dict__:
            object.__setattr__(model, "_terms", cls(model))
        return model._terms

    def __init__(self, model: ModelSpec):
        self.dim = dim = model.dim
        self.g = model.metric
        self.a = model.gyro
        self.V = model.potential
        # a symmetric metric holds one tree per index pair, and so does dg
        dg = {(i, j, v): ex.differentiate(model.metric[i][j], v)
              for v in range(dim + 1)
              for i in range(dim) for j in range(i, dim)}
        dg = [[[dg[min(i, j), max(i, j), v] for j in range(dim)]
               for i in range(dim)] for v in range(dim + 1)]
        self.dtg, self.dg = dg[0], dg[1:]
        self.da = [[ex.differentiate(model.gyro[i], d + 1)
                    for i in range(dim)] for d in range(dim)]
        self.dta = [ex.differentiate(model.gyro[i], 0) for i in range(dim)]
        self.dV = [ex.differentiate(model.potential, d + 1)
                   for d in range(dim)]
        self.f = [c.f for c in model.constraints]
        self.df = [[ex.differentiate(c.f, d + 1) for d in range(dim)]
                   for c in model.constraints]
        self.dtf = [ex.differentiate(c.f, 0) for c in model.constraints]
        # all-Const-0 groups (no gyro, a constant metric): fields fills
        # them with one np.zeros
        self.zero = {g for g, trees in (
            ("a", self.a), ("dG", [e for m in self.dg for r in m for e in r]),
            ("da", [e for r in self.da for e in r]))
            if all(e == ex.ZERO for e in trees)}
        self._kinds = self._compile(False)

    @functools.cached_property
    def program(self):
        """The roots (L, dL/dz, dL/ddz) of the Lagrangian program.

        The velocity dz^i is Var(dim + i), so they evaluate on [z | dz];
        with p_i = sum_j g_ij dz^j, L = sum_i dz^i (p_i/2 + a_i) - V,
        dL/ddz^i = p_i + a_i, and dL/dz^d is L with g, a and V replaced
        by their derivatives in z^d (docs/expr-grammar.md).
        """
        dim = self.dim
        v = [ex.Var(dim + i) for i in range(1, dim + 1)]

        def contract(g, a, V):
            # (sum_i dz^i (p_i/2 + a_i) - V, [p_i + a_i])
            total, partial = ex.ZERO, []
            for i in range(dim):
                p = ex.ZERO
                for j in range(dim):
                    p = ex.add(p, ex.mul(g[i][j], v[j]))
                total = ex.add(total, ex.mul(
                    v[i], ex.add(ex.mul(ex.const(0.5), p), a[i])))
                partial.append(ex.add(p, a[i]))
            return ex.sub(total, V), partial

        L, dLdv = contract(self.g, self.a, self.V)
        return L, tuple(contract(self.dg[d], self.da[d], self.dV[d])[0]
                        for d in range(dim)), tuple(dLdv)

    @functools.cached_property
    def _program_kinds(self) -> dict:
        return self._compile(True)

    def _compile(self, program: bool) -> dict:
        """kind -> (tape, (group, places) per root, groups it stores), for
        the kinds of _KINDS that run the Lagrangian program or for the
        others.  The trees go into one tape; each kind runs a selection.
        """
        dim, l = self.dim, len(self.f)
        n = slice(None)  # the node axis
        upper = [(i, j) for i in range(dim) for j in range(i, dim)]
        entries: list = []  # (group, tree, places its values are stored at)
        index: dict = {}    # group -> entry indices

        def add(group, tree, *places):
            index.setdefault(group, []).append(len(entries))
            entries.append((group, tree, places))

        def sym(i, j, *lead):
            # symmetric matrices are read from their upper triangle
            return [(*lead, n, i, j)] + ([(*lead, n, j, i)] if i != j else [])

        for i, j in upper:
            add("G", self.g[i][j], *sym(i, j))
        for i in range(dim):
            add("a", self.a[i], (n, i))
        add("V", self.V, (n,))
        for d in range(dim):
            for i, j in upper:
                add("dG", self.dg[d][i][j], *sym(i, j, d))
            for i in range(dim):
                add("da", self.da[d][i], (d, n, i))
            add("dV", self.dV[d], (n, d))
        # added coordinate by coordinate, so in entry order the three
        # groups interleave per coordinate, as "dz" needs
        index["dz"] = sorted(index.get("dG", []) + index.get("da", [])
                             + index.get("dV", []))
        for i, j in upper:
            add("dtG", self.dtg[i][j], *sym(i, j))
        for i in range(dim):
            add("dta", self.dta[i], (n, i))
        for j in range(l):
            add("f", self.f[j], (n, j))
            add("dtf", self.dtf[j], (n, j))
            for d in range(dim):
                add("df", self.df[j][d], (n, j, d))
        if program:
            L, dLdz, dLdv = self.program
            add("L", L, (n,))
            for k, tree in enumerate(dLdz + dLdv):
                add("dL", tree, (k // dim, n, k % dim))

        tape = ex.compile([tree for _, tree, _ in entries])
        compiled = {}
        for kind, groups in _KINDS.items():
            first = [groups.index(g) for g in _PROGRAM if g in groups]
            if bool(first) != program:
                continue
            order = [k for g in groups for k in index.get(g, [])]
            stored = groups[min(first, default=0):]
            compiled[kind] = (
                tape.select(order),
                # the model trees of the program and a zero group's roots
                # are stored nowhere
                [(g, () if g not in stored or g in self.zero else places)
                 for g, _, places in map(entries.__getitem__, order)],
                stored)
        return compiled

    # -- field evaluation on sampled nodes --------------------------------

    def fields(self, t, z, kind: str) -> Fields:
        """Evaluate one kind of fields (a key of _KINDS) at node arrays in
        one tape run; z is [z | dz] for the kinds of the program."""
        tape, targets, groups = (self._kinds.get(kind)
                                 or self._program_kinds[kind])
        M = len(t)
        dim, l = self.dim, len(self.f)
        shapes = {"G": (M, dim, dim), "a": (M, dim), "V": (M,),
                  "dG": (dim, M, dim, dim), "da": (dim, M, dim),
                  "dV": (M, dim), "dtG": (M, dim, dim), "dta": (M, dim),
                  "f": (M, l), "df": (M, l, dim), "dtf": (M, l),
                  "L": (M,), "dL": (2, M, dim)}
        out = {g: (np.zeros if g in self.zero else np.empty)(shapes[g])
               for g in groups}
        # a root free of t and z comes back a scalar and is broadcast by
        # the assignment, with the values tape.run would have filled in
        for (group, places), v in zip(targets, tape._values(t, z)):
            for p in places:
                out[group][p] = v
        return Fields(**out)

    def lagrangian_at(self, path: SampledPath, kind: str = "objective"
                      ) -> Fields:
        """One kind of the Lagrangian program on the nodes of path:
        "action" gives L, "gradient" dL, "objective" both, and
        "penalized" also f and df."""
        zv = np.concatenate((path.z, path.dz), axis=1)
        return self.fields(path.t, zv, kind)

    def dL_fields(self, path: SampledPath) -> np.ndarray:
        """(dL/dz, dL/ddz) at the nodes, shape (2, M, dim)."""
        return self.lagrangian_at(path, "gradient").dL

    def metric_at(self, t, z) -> np.ndarray:
        return self.fields(t, z, "metric").G

    def constraints_at(self, t, z) -> np.ndarray:
        """Constraint values, shape (M, l)."""
        return self.fields(t, z, "constraints").f

    def constraint_jacobian_at(self, t, z) -> np.ndarray:
        """d f_j / d z^d at the nodes, shape (M, l, dim)."""
        return self.fields(t, z, "constraint_jacobian").df


def _nodes(model: ModelSpec, traj: FourierTrajectory, M: int):
    """Terms, basis and guarded path at the M uniform nodes."""
    terms = LagrangianTerms.of(model)
    grid = SineGrid.uniform(traj, M)
    path = grid.path(traj.coeffs)
    if model.sigma_base:
        d = nearest_distances(singular_set(model), path.z)
        if np.any(d <= MACHINE_GUARD):
            i = int(np.argmin(d))
            raise SingularityHit(
                f"quadrature node t = {path.t[i]} lies within "
                f"{MACHINE_GUARD} of the singular set (distance {d[i]:.3e})")
    return terms, grid, path


def action(model: ModelSpec, traj: FourierTrajectory, M: int) -> float:
    """Discrete action S = (omega/M) * sum_i L(t_i, z_i, dz_i).

    Deterministic: fixed node order, fixed summation order.  Raises
    SingularityHit if a node touches the singular set and EvalDomainError
    if an expression leaves its domain.
    """
    terms, _, path = _nodes(model, traj, M)
    L = terms.lagrangian_at(path, "action").L
    return model.omega / M * float(np.sum(L))


def action_gradient(model: ModelSpec, traj: FourierTrajectory,
                    M: int) -> np.ndarray:
    """Exact gradient of the discrete action; shape matches traj.coeffs."""
    terms, grid, path = _nodes(model, traj, M)
    return model.omega / M * grid.gradient(terms.dL_fields(path))


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

    @classmethod
    def of(cls, model: ModelSpec, traj: FourierTrajectory, S: float,
           grad: np.ndarray, h1: float) -> "ActionReport":
        """The report of traj, whose discrete action S, coefficient
        gradient and H1 seminorm h1 the caller has computed."""
        k = model.constants
        return cls(S=S, grad_norm=float(np.linalg.norm(grad)), h1=h1,
                   min_distance=min_distance_to(traj, singular_set(model)),
                   margin=coercivity_margin(k, model.omega),
                   lower_bound_at_h1=action_lower_bound(k, model.omega, h1))

    def to_dict(self) -> dict:
        return asdict(self)


def action_report(model: ModelSpec, traj: FourierTrajectory,
                  M: int) -> ActionReport:
    """Action, gradient norm, H1 norm, clearance, and coercivity numbers."""
    terms, grid, path = _nodes(model, traj, M)
    fields = terms.lagrangian_at(path)
    S = model.omega / M * float(np.sum(fields.L))
    g = model.omega / M * grid.gradient(fields.dL)
    return ActionReport.of(model, traj, S, g, h1_seminorm(traj))
