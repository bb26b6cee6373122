"""Lagrangian system descriptions and the library of built-in models.

A model is the full data of a natural mechanical system on coordinates
z = (x, phi) in R^m x R^n (x linear, phi angular):

    L = (1/2) g_ij(t,z) dz^i dz^j + a_i(t,z) dz^i - V(t,z),

together with optional holonomic constraints f_j(t,z) = 0 of declared
parity, the growth constants (C, M, A, K, P, C1) entering the coercivity
and barrier bounds, and the singular set sigma where V blows up.  sigma is
stored by base points only; the full set is the closure of the base under
z -> -z and under 2*pi shifts of the angle coordinates, generated on demand.

The growth constants certify, when valid for the model at hand:

    |a_i(t,z)|            <= C + M*|z|
    (1/2) g_ij xi^i xi^j  >= K*|xi|^2
    V(t,z)                <= A*|z|^2 - P/|z - s|^2 + C1   for every s in sigma

and the coercivity margin of the action functional over odd loops of period
omega is K - M*omega/sqrt(2) - A*omega^2/2 (see minact.action).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import expr as ex
from .expr import Expr

__all__ = [
    "GrowthConstants", "Constraint", "ModelSpec", "SingularSet",
    "ModelError", "builtin", "BUILTIN_NAMES",
    "singular_set", "nearest_singular", "nearest_distances",
    "least_distance",
    "enumerate_planar", "model_to_dict", "model_from_dict", "load_model",
    "save_model", "is_autonomous", "with_omega", "with_nu",
]

TWO_PI = 2.0 * math.pi


class ModelError(ValueError):
    """Invalid model data (shape, bounds, parity tag, parameters)."""


@dataclass(frozen=True)
class GrowthConstants:
    """Constants of the growth/ellipticity/barrier bounds; all >= 0, K > 0."""

    C: float
    M: float
    A: float
    K: float
    P: float
    C1: float

    def __post_init__(self):
        for name in ("C", "M", "A", "K", "P", "C1"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ModelError(f"constant {name} must be finite and >= 0")
            object.__setattr__(self, name, v)
        if self.K <= 0.0:
            raise ModelError("constant K must be strictly positive")


@dataclass(frozen=True)
class Constraint:
    """Holonomic constraint f(t,z) = 0 with declared parity.

    parity "odd" means f(-t,-z) = -f(t,z); "even" means f(-t,-z) = f(t,z).
    The declared parity is validated by minact.verify, not assumed here.
    """

    f: Expr
    parity: str

    def __post_init__(self):
        if self.parity not in ("odd", "even"):
            raise ModelError(f"constraint parity must be odd or even, "
                             f"got {self.parity!r}")


def _as_expr_grid(metric, dim: int):
    rows = tuple(tuple(row) for row in metric)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ModelError(f"metric must be a {dim}x{dim} grid of expressions")
    return rows


def _symmetrize(metric, dim: int):
    half = ex.const(0.5)
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        out[i][i] = metric[i][i]
        for j in range(i + 1, dim):
            if metric[i][j] == metric[j][i]:
                out[i][j] = out[j][i] = metric[i][j]
            else:
                s = ex.mul(half, ex.add(metric[i][j], metric[j][i]))
                out[i][j] = out[j][i] = s
    return tuple(tuple(row) for row in out)


def _reduce_angle(value: float) -> float:
    # canonical representative in [-pi, pi)
    r = math.remainder(value, TWO_PI)
    if r == math.pi:
        r = -math.pi
    return r + 0.0  # normalize -0.0


@dataclass(frozen=True)
class ModelSpec:
    """Immutable description of one Lagrangian system.

    Fields
    ------
    m, n : int
        Counts of linear and angle coordinates; dim = m + n >= 1.
    omega : float
        Period, > 0.
    nu : tuple of int
        Winding vector for the angle coordinates, length n; trajectories
        satisfy phi(t + omega) = phi(t) + 2*pi*nu.
    metric, gyro, potential : expression trees
        g_ij (symmetrized on construction), a_i, and V.
    constraints : tuple of Constraint
        0 <= l < m + n holonomic constraints.
    constants : GrowthConstants
    sigma_base : tuple of point tuples
        Base points of the singular set; angle coordinates are reduced to
        [-pi, pi) and exact duplicates dropped.
    """

    m: int
    n: int
    omega: float
    nu: tuple
    metric: tuple
    gyro: tuple
    potential: Expr
    constraints: tuple = ()
    constants: GrowthConstants = GrowthConstants(0, 0, 0, 0.5, 0, 0)
    sigma_base: tuple = ()

    def __post_init__(self):
        m, n = _count(self.m, "m"), _count(self.n, "n")
        if m < 0 or n < 0 or m + n < 1:
            raise ModelError("need m >= 0, n >= 0, m + n >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        dim = m + n
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ModelError("omega must be finite and > 0")
        object.__setattr__(self, "omega", float(self.omega))
        nu = tuple(_count(v, "nu") for v in self.nu)
        if len(nu) != n:
            raise ModelError(f"nu must have length n = {n}")
        object.__setattr__(self, "nu", nu)
        metric = _symmetrize(_as_expr_grid(self.metric, dim), dim)
        object.__setattr__(self, "metric", metric)
        gyro = tuple(self.gyro)
        if len(gyro) != dim:
            raise ModelError(f"gyro must have {dim} components")
        object.__setattr__(self, "gyro", gyro)
        constraints = tuple(self.constraints)
        if len(constraints) >= dim:
            raise ModelError("need fewer constraints than coordinates")
        object.__setattr__(self, "constraints", constraints)
        for e in self._all_expressions():
            k = ex.max_var_index(e)
            if k > dim:
                raise ModelError(
                    f"expression '{ex.to_text(e)}' references z{k}, "
                    f"but dim = {dim}")
        sigma = []
        for pt in self.sigma_base:
            p = tuple(float(v) for v in pt)
            if len(p) != dim:
                raise ModelError("sigma point dimension mismatch")
            p = tuple(v + 0.0 for v in p[:m]) \
                + tuple(_reduce_angle(v) for v in p[m:])
            if p not in sigma:
                sigma.append(p)
        object.__setattr__(self, "sigma_base", tuple(sigma))

    def _all_expressions(self):
        for row in self.metric:
            yield from row
        yield from self.gyro
        yield self.potential
        for c in self.constraints:
            yield c.f

    @property
    def dim(self) -> int:
        return self.m + self.n


@dataclass(frozen=True)
class SingularSet:
    """Base points of sigma plus the coordinate split (m linear, n angular).

    The full set is { s', -s' : s' in base } shifted by 2*pi*p, p integer,
    in each angle coordinate.  The points s', -s' are enumerated once, into
    the read-only (K, dim) array candidates; shifts are generated on the fly.
    """

    base: tuple
    m: int
    n: int

    def __post_init__(self):
        pts = tuple(tuple(float(v) for v in p) for p in self.base)
        object.__setattr__(self, "base", pts)
        cands = np.array(enumerate_planar(self)).reshape(-1, self.dim)
        cands.flags.writeable = False
        object.__setattr__(self, "candidates", cands)

    @property
    def dim(self) -> int:
        return self.m + self.n

    def is_empty(self) -> bool:
        return len(self.base) == 0


def singular_set(model: ModelSpec) -> SingularSet:
    return SingularSet(model.sigma_base, model.m, model.n)


def enumerate_planar(s: SingularSet):
    """Base points with their negations, deduplicated, as an ordered list.

    Valid for any dimensions, but primarily used for winding computations
    when m = 2, n = 0 (no lattice directions exist there, so this list is
    the whole singular set).
    """
    out = []
    for q in s.base:
        for cand in (q, tuple(-v + 0.0 for v in q)):
            if cand not in out:
                out.append(cand)
    return out


def _nearest(s: SingularSet, points: np.ndarray, want: str):
    """Distances from points (M, dim) to the full singular set.

    want "distances" gives the distances (M,); "witnesses" gives them and
    the attaining singular point of each row (the first in
    enumerate_planar order on a tie), including its 2*pi lattice shift;
    "least" gives the least distance, inf for an empty set, as one
    square root of the least squared distance: sqrt is monotone and
    correctly rounded, so it is float(np.min(distances)) bit for bit.
    The lattice minimization is exact: the squared distance separates per
    angle coordinate, so the optimal shift is round((phi - phi_s)/(2*pi))
    coordinatewise.  Squares are summed coordinate by coordinate, which is
    np.linalg.norm's order for fewer than 8 coordinates.
    """
    cands = s.candidates  # (K, dim)
    sq = np.zeros((len(cands), points.shape[0]))
    shifts = []
    for j in range(s.dim):
        diff = points[:, j] - cands[:, j, None]  # (K, M)
        if j >= s.m:
            shift = TWO_PI * np.round(diff / TWO_PI)
            diff -= shift
            shifts.append(shift)
        sq += diff * diff
    if want == "least":
        return math.sqrt(np.min(sq, initial=np.inf))
    d = np.sqrt(sq)
    best = np.min(d, axis=0, initial=np.inf)  # inf for an empty set
    if want == "distances":
        return best
    k = np.argmin(d, axis=0)
    near = cands[k]
    for j, shift in enumerate(shifts, start=s.m):
        near[:, j] += shift[k, np.arange(len(k))]
    return best, near


def nearest_singular(s: SingularSet, point):
    """Minimum distance from a point to the full singular set.

    Returns (distance, witness).  The witness is the attaining singular
    point including its 2*pi lattice shift; (inf, None) for an empty set.
    """
    point = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError("query point must be finite")
    if s.is_empty():
        return math.inf, None
    d, near = _nearest(s, point[None, :], "witnesses")
    return float(d[0]), near[0]


def nearest_distances(s: SingularSet, points: np.ndarray) -> np.ndarray:
    """Vectorized nearest-singular distances for points of shape (M, dim)."""
    return _nearest(s, np.asarray(points, dtype=float), "distances")


def least_distance(s: SingularSet, points: np.ndarray) -> float:
    """float(np.min(nearest_distances(s, points))), bit for bit, from one
    square root; inf for an empty set."""
    if s.is_empty():
        return math.inf
    return _nearest(s, np.asarray(points, dtype=float), "least")


def is_autonomous(model: ModelSpec) -> bool:
    """True when no model expression references the time variable."""
    return not any(ex.references_time(e) for e in model._all_expressions())


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("two_centers", "surface_slide", "tube_ball", "cylinder",
                 "forced_oscillator")


def _double_well_expr(gamma: float, n_exp: float, r0) -> Expr:
    # -gamma*(|z - r0|^(-n) + |z + r0|^(-n)) built on squared distances so
    # that differentiation stays closed-form for any real exponent
    x0, y0 = float(r0[0]), float(r0[1])
    z1, z2 = ex.var(1), ex.var(2)

    def well(sx, sy):
        q = ex.add(ex.power(ex.sub(z1, ex.const(sx)), 2.0),
                   ex.power(ex.sub(z2, ex.const(sy)), 2.0))
        return ex.power(q, -n_exp / 2.0)

    return ex.neg(ex.mul(ex.const(gamma), ex.add(well(x0, y0),
                                                 well(-x0, -y0))))


def _const_grid(values) -> tuple:
    return tuple(tuple(ex.const(v) for v in row) for row in values)


def _zeros(dim: int) -> tuple:
    return tuple(ex.const(0.0) for _ in range(dim))


def _require_positive(params: dict, *names: str):
    for name in names:
        v = params[name]
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            raise ModelError(f"parameter {name} must be a positive number")


def _two_centers(params: dict) -> ModelSpec:
    gamma = float(params.setdefault("gamma", 1.0))
    n_exp = float(params.setdefault("n", 2.0))
    mass = float(params.setdefault("mass", 1.0))
    omega = float(params.setdefault("omega", TWO_PI))
    r0 = params.setdefault("r0", (1.0, 0.0))
    _require_positive(params, "gamma", "n", "mass", "omega")
    r0 = tuple(float(v) for v in np.atleast_1d(r0))
    if len(r0) != 2 or r0 == (0.0, 0.0):
        raise ModelError("r0 must be a nonzero planar point")
    # the barrier constants P = C1 = gamma are valid for n >= 2: near a
    # center -gamma/d^n <= -gamma/d^2 once d <= 1, and beyond d = 1 the
    # potential is negative while -P/d^2 + C1 >= 0
    barrier = gamma if n_exp >= 2.0 else 0.0
    return ModelSpec(
        m=2, n=0, omega=omega, nu=(),
        metric=_const_grid([[mass, 0.0], [0.0, mass]]),
        gyro=_zeros(2),
        potential=_double_well_expr(gamma, n_exp, r0),
        constants=GrowthConstants(C=0.0, M=0.0, A=0.0, K=mass / 2.0,
                                  P=barrier, C1=barrier),
        sigma_base=(r0, (-r0[0], -r0[1])),
    )


def _surface_slide(params: dict) -> ModelSpec:
    gamma = float(params.setdefault("gamma", 1.0))
    n_exp = float(params.setdefault("n", 2.0))
    mass = float(params.setdefault("mass", 1.0))
    g = float(params.setdefault("g", 9.81))
    omega = float(params.setdefault("omega", TWO_PI))
    r0 = params.setdefault("r0", (1.0, 0.0))
    _require_positive(params, "gamma", "n", "mass", "g", "omega")
    r0 = tuple(float(v) for v in np.atleast_1d(r0))
    if len(r0) != 2 or r0 == (0.0, 0.0):
        raise ModelError("r0 must be a nonzero planar point")
    height = _double_well_expr(gamma, n_exp, r0)
    grad = [ex.differentiate(height, 1), ex.differentiate(height, 2)]
    mass_c = ex.const(mass)
    metric = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            delta = ex.const(1.0 if i == j else 0.0)
            metric[i][j] = ex.mul(mass_c, ex.add(delta,
                                                 ex.mul(grad[i], grad[j])))
    barrier = mass * g * gamma if n_exp >= 2.0 else 0.0
    return ModelSpec(
        m=2, n=0, omega=omega, nu=(),
        metric=tuple(tuple(row) for row in metric),
        gyro=_zeros(2),
        potential=ex.mul(ex.const(mass * g), height),
        constants=GrowthConstants(C=0.0, M=0.0, A=0.0, K=mass / 2.0,
                                  P=barrier, C1=barrier),
        sigma_base=(r0, (-r0[0], -r0[1])),
    )


def _tube_ball(params: dict) -> ModelSpec:
    mass = float(params.setdefault("m", 1.0))
    J = float(params.setdefault("J", 1.0))
    g = float(params.setdefault("g", 9.81))
    omega = float(params.setdefault("omega", 1.0))
    nu = params.setdefault("nu", (1,))
    _require_positive(params, "m", "J", "g", "omega")
    nu = tuple(int(v) for v in np.atleast_1d(nu))
    z1, z2 = ex.var(1), ex.var(2)
    # coordinates (x, phi): x position of the ball along the tube, phi tube
    # angle; kinetic energy (1/2) m dx^2 + (1/2) (m x^2 + J) dphi^2
    metric = ((ex.const(mass), ex.const(0.0)),
              (ex.const(0.0), ex.add(ex.mul(ex.const(mass),
                                            ex.power(z1, 2.0)),
                                     ex.const(J))))
    potential = ex.mul(ex.const(mass * g), ex.mul(z1, ex.sin(z2)))
    # V = m g x sin(phi) <= m g |x| <= A x^2 + (m g)^2/(4 A); A = 1/2 keeps
    # the coercivity margin positive up to omega = 1 and a bit beyond
    A = float(params.setdefault("A", 0.5))
    if A <= 0:
        raise ModelError("parameter A must be positive")
    return ModelSpec(
        m=1, n=1, omega=omega, nu=nu,
        metric=metric,
        gyro=_zeros(2),
        potential=potential,
        constants=GrowthConstants(C=0.0, M=0.0, A=A, K=min(mass, J) / 2.0,
                                  P=0.0, C1=(mass * g) ** 2 / (4.0 * A)),
        sigma_base=(),
    )


def _cylinder(params: dict) -> ModelSpec:
    mass = float(params.setdefault("m", 1.0))
    r = float(params.setdefault("r", 1.0))
    g = float(params.setdefault("g", 9.81))
    omega = float(params.setdefault("omega", 1.0))
    nu = params.setdefault("nu", (1,))
    _require_positive(params, "m", "r", "g", "omega")
    nu = tuple(int(v) for v in np.atleast_1d(nu))
    A = float(params.setdefault("A", 0.5))
    if A <= 0:
        raise ModelError("parameter A must be positive")
    # V = m g x is odd in z, so the evenness hypothesis fails (the point
    # of this model); everything else is well-behaved
    return ModelSpec(
        m=1, n=1, omega=omega, nu=nu,
        metric=_const_grid([[mass, 0.0], [0.0, mass * r * r]]),
        gyro=_zeros(2),
        potential=ex.mul(ex.const(mass * g), ex.var(1)),
        constants=GrowthConstants(C=0.0, M=0.0, A=A,
                                  K=min(mass, mass * r * r) / 2.0,
                                  P=0.0, C1=(mass * g) ** 2 / (4.0 * A)),
        sigma_base=(),
    )


def _forced_oscillator(params: dict) -> ModelSpec:
    omega = float(params.setdefault("omega", TWO_PI))
    if abs(omega - TWO_PI) > 1e-12:
        raise ModelError("forced_oscillator has period fixed to 2*pi "
                         "(the forcing sin t)")
    # L = (1/2) dx^2 - (1/2) (x - sin t)^2.  The potential grows like
    # (1/2) x^2 plus a cross term linear in x, so A = 1/2 is the limiting
    # quadratic coefficient; C1 below absorbs the cross term on any
    # bounded sampling box.  With K = 1/2 the coercivity margin at
    # omega = 2*pi is 1/2 - pi^2 < 0, and indeed the action is unbounded
    # below along x = c*sin t, so no odd periodic minimizer exists.
    potential = ex.mul(ex.const(0.5),
                       ex.power(ex.sub(ex.var(1), ex.sin(ex.t_var())), 2.0))
    return ModelSpec(
        m=1, n=0, omega=omega, nu=(),
        metric=_const_grid([[1.0]]),
        gyro=_zeros(1),
        potential=potential,
        constants=GrowthConstants(C=0.0, M=0.0, A=0.5, K=0.5,
                                  P=0.0, C1=100.0),
        sigma_base=(),
    )


_BUILTINS = {
    "two_centers": _two_centers,
    "surface_slide": _surface_slide,
    "tube_ball": _tube_ball,
    "cylinder": _cylinder,
    "forced_oscillator": _forced_oscillator,
}


def builtin(name: str, **params) -> ModelSpec:
    """Construct a built-in model by name.

    Names and parameters (all optional, with defaults):

    - two_centers: gamma, n, mass, r0, omega.  Planar particle attracted
      by two power-law centers at +-r0; sigma = {r0, -r0}.
    - surface_slide: gamma, n, mass, g, r0, omega.  Particle sliding on
      the graph of the double-well height function; same sigma.
    - tube_ball: m, J, g, omega, nu, A.  Ball sliding in a rotating tube,
      coordinates (x, phi).
    - cylinder: m, r, g, omega, nu, A.  Particle on a vertical cylinder;
      fails the evenness hypothesis (V = m g x is odd).
    - forced_oscillator: none (omega fixed to 2*pi).  Coercivity margin
      is negative; the action is unbounded below.

    Built-ins are assembled programmatically as expression trees, so they
    run through exactly the same evaluation path as user model files.
    """
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ModelError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    return factory(dict(params))


def with_omega(model: ModelSpec, omega: float) -> ModelSpec:
    """Copy of the model with a different period; it shares the model's
    compiled terms (see _sharing_terms)."""
    return _sharing_terms(model, replace(model, omega=float(omega)))


def with_nu(model: ModelSpec, nu) -> ModelSpec:
    """Copy of the model with a different winding vector; it shares the
    model's compiled terms (see _sharing_terms)."""
    return _sharing_terms(model, replace(model, nu=tuple(nu)))


def _sharing_terms(model: ModelSpec, copy: ModelSpec) -> ModelSpec:
    """copy, given the compiled terms that action.LagrangianTerms.of has
    kept on model, if any: they read only dim and the expression trees,
    which a change of omega or nu leaves alone."""
    if "_terms" in model.__dict__:
        object.__setattr__(copy, "_terms", model._terms)
    return copy


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def model_to_dict(model: ModelSpec) -> dict:
    """Serializable form matching the documented model-file schema."""
    return {
        "m": model.m,
        "n": model.n,
        "omega": model.omega,
        "nu": list(model.nu),
        "metric": [[ex.to_text(e) for e in row] for row in model.metric],
        "gyro": [ex.to_text(e) for e in model.gyro],
        "potential": ex.to_text(model.potential),
        "constraints": [{"f": ex.to_text(c.f), "parity": c.parity}
                        for c in model.constraints],
        "constants": {k: getattr(model.constants, k)
                      for k in ("C", "M", "A", "K", "P", "C1")},
        "sigma": [list(p) for p in model.sigma_base],
    }


def exact_int(value) -> int:
    """value as an int, refusing what int() would truncate or coerce: a
    bool, a string, or a number with a fractional part.  An integral
    float such as 2.0 is accepted."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _count(value, name: str) -> int:
    try:
        return exact_int(value)
    except ValueError as err:
        raise ModelError(f"{name} must be an integer: {err}") from None


def json_field(data, name: str, read, default=None, error=ModelError):
    """read(data[name]) for one field of a parsed JSON file, or
    read(default) when the field is absent and a default is given.

    Data that is not a JSON object, a missing field, and a value that read
    rejects with a TypeError, ValueError, AttributeError or KeyError raise
    error, naming the field.
    """
    if not isinstance(data, dict):
        raise error(f"expected a JSON object, got {type(data).__name__}")
    if name not in data and default is None:
        raise error(f"missing field {name!r}")
    try:
        return read(data.get(name, default))
    except (TypeError, ValueError, AttributeError, KeyError) as err:
        raise error(f"field {name!r} is malformed: "
                    f"{type(err).__name__}: {err}") from err


def write_json(path, payload) -> None:
    """Write payload as a JSON file: sorted keys, indent 2, LF endings and
    a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def model_from_dict(data: dict) -> ModelSpec:
    """Build a ModelSpec from parsed model-file JSON; a missing or
    malformed field raises a ModelError naming it."""
    field = functools.partial(json_field, data)
    m, n = field("m", exact_int), field("n", exact_int)
    dim = m + n

    def exprs(texts):
        return tuple(ex.parse(s, dim) for s in texts)

    constants = field("constants", lambda kc: {
        k: float(kc.get(k, 0.5 if k == "K" else 0.0))
        for k in ("C", "M", "A", "K", "P", "C1")}, {})
    return ModelSpec(
        m=m, n=n, omega=field("omega", float),
        nu=field("nu", lambda v: tuple(map(exact_int, v)), []),
        metric=field("metric", lambda rows: tuple(map(exprs, rows))),
        gyro=field("gyro", exprs, ["0"] * dim),
        potential=field("potential", lambda s: ex.parse(s, dim)),
        constraints=field("constraints", lambda cs: tuple(
            Constraint(f=ex.parse(c["f"], dim), parity=c["parity"])
            for c in cs), []),
        constants=GrowthConstants(**constants),
        sigma_base=field("sigma", lambda ps: tuple(map(tuple, ps)), []))


def load_model(path) -> ModelSpec:
    """Read a JSON model file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return model_from_dict(data)


def save_model(model: ModelSpec, path) -> None:
    """Write a JSON model file (see write_json)."""
    write_json(path, model_to_dict(model))
