"""Odd omega-periodic trajectories as drift plus truncated sine series.

Each coordinate of a trajectory is

    z^d(t) = drift_d * t + sum_{k=1..N} b[k][d] * sin(2*pi*k*t/omega),

with drift_d = 0 for the m linear coordinates and drift_{m+j} =
2*pi*nu_j/omega for the angle coordinates.  Two symmetries then hold by
construction, not by penalty:

    z(-t) = -z(t)                      (odd loops)
    x(t+omega) = x(t),  phi(t+omega) = phi(t) + 2*pi*nu

so an optimizer that only touches the coefficients b can never leave the
admissible space.  The module also computes the H1 seminorm (exactly, via
Parseval), winding signatures around planar singular points, clearance
diagnostics, seed curves for a prescribed coil count, and the basic
Sobolev-type inequalities used by the a priori bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import SingularSet, enumerate_planar, nearest_distances, \
    nearest_singular

__all__ = [
    "FourierTrajectory", "SampledPath", "SineGrid", "HomotopySignature",
    "TrajectoryError", "SeedError", "WindingRefinementError",
    "sample", "evaluate_path", "h1_seminorm", "winding_signature",
    "windings_of_closed_points", "min_distance_to", "seed_curve",
    "poincare_check", "PoincareBounds",
    "write_trajectory_csv", "coeffs_to_dict", "trajectory_from_dict",
    "save_coeffs", "load_coeffs",
]

TWO_PI = 2.0 * math.pi


class TrajectoryError(ValueError):
    """Invalid trajectory data or sampling request."""


class SeedError(TrajectoryError):
    """Seed-curve construction failed (degenerate resolution, bad sigma)."""


class WindingRefinementError(TrajectoryError):
    """Curve passes too near a singular point to classify its winding."""


@dataclass(frozen=True, eq=False)
class FourierTrajectory:
    """Immutable odd trajectory; coeffs has shape (N, dim), row k-1 = mode k.

    The coefficients are read-only, so results that depend only on the
    trajectory and a singular set (its distance profile and winding
    signature) are computed once per trajectory and kept with it.
    """

    omega: float
    nu: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise TrajectoryError("omega must be finite and > 0")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "nu", tuple(int(v) for v in self.nu))
        b = np.array(self.coeffs, dtype=float, copy=True)
        if b.ndim != 2:
            raise TrajectoryError("coeffs must be a 2-d array (N, dim)")
        if len(self.nu) > b.shape[1]:
            raise TrajectoryError("more winding entries than coordinates")
        if not np.all(np.isfinite(b)):
            raise TrajectoryError("coeffs must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "coeffs", b)
        object.__setattr__(self, "_memo", {})

    def _memoized(self, key, compute):
        """compute(), run once per key for this trajectory."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def N(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def m(self) -> int:
        return self.dim - len(self.nu)

    def drift(self) -> np.ndarray:
        d = np.zeros(self.dim)
        if self.nu:
            d[self.m:] = TWO_PI * np.asarray(self.nu, dtype=float) / self.omega
        return d

    def frequencies(self) -> np.ndarray:
        return TWO_PI * np.arange(1, self.N + 1) / self.omega

    def with_coeffs(self, coeffs) -> "FourierTrajectory":
        return FourierTrajectory(self.omega, self.nu, coeffs)


@dataclass(frozen=True)
class SampledPath:
    """Uniform nodes t_i = i*omega/M with exact z, dz, ddz of the basis."""

    t: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    ddz: np.ndarray


@dataclass(frozen=True)
class HomotopySignature:
    """Winding numbers per planar singular point plus clearance diagnostics.

    windings maps each enumerated singular point (base points and their
    negations) to an integer turning count, counterclockwise positive.  It
    is empty unless m = 2, n = 0 and sigma is nonempty.  min_distance is
    the distance from the curve to the full singular set (dense sampling
    refined near local minima); clearance_integral is the quadrature value
    of integral dt/|z(t) - s|^2 for the nearest singular point s.
    """

    windings: dict
    min_distance: float
    clearance_integral: float

    def same_class(self, other: "HomotopySignature") -> bool:
        return self.windings == other.windings


class SineGrid:
    """The sine basis of one trajectory space on a node array.

    Holds the nodes t, S = sin(w t) and Cw = w cos(w t) for the mode
    frequencies w, so that coefficients B give

        z = drift*t + S @ B,    dz = drift + Cw @ B,

    and the coefficient gradient of a node sum of L(t, z, dz) is
    S^T dL/dz + Cw^T dL/ddz.  Cw is left out (None) when velocity is
    False, for callers that need positions only.
    """

    def __init__(self, traj: FourierTrajectory, t: np.ndarray,
                 velocity: bool = True):
        self.t = t
        self.w = traj.frequencies()
        self.drift = traj.drift()
        self.z_drift = np.outer(t, self.drift)
        phases = np.outer(t, self.w)
        self.S = np.sin(phases)
        self.Cw = np.cos(phases) * self.w if velocity else None

    @classmethod
    def uniform(cls, traj: FourierTrajectory, M: int,
                velocity: bool = True) -> "SineGrid":
        """The grid on the M uniform nodes i*omega/M of one period.

        With velocities it is a quadrature grid, and then requires
        M >= 2N + 1 so that no represented mode aliases on it.
        """
        M = int(M)
        if velocity and M < 2 * traj.N + 1:
            raise TrajectoryError(
                f"M = {M} too small for N = {traj.N} modes (need M >= 2N+1)")
        return cls(traj, traj.omega * np.arange(M) / M, velocity)

    def z(self, B: np.ndarray) -> np.ndarray:
        return self.z_drift + self.S @ B

    def path(self, B: np.ndarray) -> SampledPath:
        """Positions and velocities at the nodes (ddz is not computed)."""
        return SampledPath(t=self.t, z=self.z(B),
                           dz=self.drift + self.Cw @ B, ddz=None)

    def gradient(self, dLdz: np.ndarray, dLdv: np.ndarray) -> np.ndarray:
        """S^T dLdz + Cw^T dLdv, shape (N, dim)."""
        return self.S.T @ dLdz + self.Cw.T @ dLdv


def evaluate_path(traj: FourierTrajectory, t) -> np.ndarray:
    """Positions z(t) for arbitrary times t; shape (len(t), dim)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return SineGrid(traj, t, velocity=False).z(traj.coeffs)


def sample(traj: FourierTrajectory, M: int) -> SampledPath:
    """Evaluate z, dz, ddz exactly at the M uniform nodes i*omega/M.

    Requires M >= 2N + 1 so that no represented mode aliases on the grid.
    """
    grid = SineGrid.uniform(traj, M)
    b = traj.coeffs
    path = grid.path(b)
    return replace(path, ddz=-grid.S @ (grid.w[:, None] ** 2 * b))


def h1_seminorm(traj: FourierTrajectory) -> float:
    """Exact L2 norm of the velocity over one period.

    Parseval gives, per coordinate with drift c and sine coefficients b_k,

        integral_0^omega |dz|^2 dt = omega*c^2
                             + sum_k (2*pi*k/omega)^2 * b_k^2 * omega/2;

    the drift-cosine cross terms integrate to zero over a full period, so
    the formula is exact, not a quadrature.
    """
    w = traj.frequencies()
    b = traj.coeffs
    total = traj.omega * float(np.dot(traj.drift(), traj.drift()))
    total += float(np.sum((w[:, None] ** 2) * b * b)) * traj.omega / 2.0
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# winding signature
# ---------------------------------------------------------------------------


def windings_of_closed_points(points: np.ndarray, centers) -> dict | None:
    """One-shot windings of a sampled closed planar loop about centers.

    Sums the principal-value angle increments of the closed polygon,
    counterclockwise positive, for all centers in one array pass.  Returns
    {center: integer winding} when every increment stays below pi/2 and
    every total is integral, else None (the sampling is too coarse to
    classify; callers refine or fall back).
    """
    centers = list(centers)
    if not centers:
        return {}
    points = np.asarray(points, dtype=float)
    c = np.asarray(centers, dtype=float)
    # theta[j, i]: angle of point i seen from center j
    theta = np.arctan2(points[None, :, 1] - c[:, 1:],
                       points[None, :, 0] - c[:, :1])
    inc = np.diff(theta, axis=1, append=theta[:, :1])
    inc = (inc + math.pi) % TWO_PI - math.pi
    if inc.size and np.max(np.abs(inc)) >= math.pi / 2.0:
        return None
    total = np.sum(inc, axis=1) / TWO_PI
    w = np.round(total)
    if np.any(np.abs(total - w) > 1e-6):
        return None
    return {center: int(k) for center, k in zip(centers, w)}


def _distance_profile(traj: FourierTrajectory, s: SingularSet, M: int):
    """Points and node distances on a dense grid, and the refined minimum.

    Golden-section search refines every sampled local minimum of the
    distance at once, 50 steps on the bracket of its two neighbour nodes;
    the distance is continuous and locally unimodal at this resolution.
    Computed once per (s, grid size) for a trajectory; the arrays are
    read-only.
    """
    M = max(int(M), 4 * traj.N + 4, 64)
    return traj._memoized(("profile", s, M),
                          lambda: _compute_profile(traj, s, M))


def _compute_profile(traj: FourierTrajectory, s: SingularSet, M: int):
    pts = SineGrid.uniform(traj, M, velocity=False).z(traj.coeffs)
    d = nearest_distances(s, pts)
    h = traj.omega / M
    local = np.nonzero((d <= np.roll(d, 1)) & (d <= np.roll(d, -1)))[0]
    ti = traj.omega * local / M
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = ti - h, ti + h
    c = b - inv * (b - a)
    e = a + inv * (b - a)

    def dist(tt):
        return nearest_distances(s, evaluate_path(traj, tt))

    fc, fe = dist(c), dist(e)
    for _ in range(50):
        left = fc <= fe
        # left: the minimum lies in [a, e]; else in [c, b]
        a, b = np.where(left, a, c), np.where(left, e, b)
        c, e = (np.where(left, b - inv * (b - a), e),
                np.where(left, c, a + inv * (b - a)))
        f = dist(np.where(left, c, e))
        fc, fe = np.where(left, f, fe), np.where(left, fc, f)
    best = min(float(np.min(d)), float(np.min(np.minimum(fc, fe))))
    pts.setflags(write=False)
    d.setflags(write=False)
    return pts, d, best


def min_distance_to(traj: FourierTrajectory, s: SingularSet,
                    M: int = 1024) -> float:
    """Distance from the curve to the singular set over one period.

    Dense uniform sampling followed by golden-section refinement around
    every sampled local minimum.
    """
    if s.is_empty():
        return math.inf
    return _distance_profile(traj, s, M)[2]


def winding_signature(traj: FourierTrajectory, s: SingularSet,
                      M: int | None = None) -> HomotopySignature:
    """Winding numbers around the planar singular points plus clearance.

    Windings are computed only when m = 2, n = 0 (closed planar curves);
    the angle-increment criterion max |dtheta| < pi/2 is enforced for all
    centers together by doubling the sample count up to a cap.
    min_distance and the clearance integral are computed for any
    dimensions.  Computed once per (s, M) for a trajectory, so repeated
    calls return the same object.
    """
    if M is None:
        M = max(16 * traj.N, 64)
    M = int(M)
    return traj._memoized(("signature", s, M),
                          lambda: _compute_signature(traj, s, M))


def _compute_signature(traj: FourierTrajectory, s: SingularSet,
                       M: int) -> HomotopySignature:
    if s.is_empty():
        return HomotopySignature(windings={}, min_distance=math.inf,
                                 clearance_integral=0.0)
    windings = {}
    if s.m == 2 and s.n == 0 and traj.dim == 2:
        cap = max(M * 256, 1 << 20)
        centers = enumerate_planar(s)
        level = M
        while True:
            pts = SineGrid.uniform(traj, level, velocity=False) \
                .z(traj.coeffs)
            windings = windings_of_closed_points(pts, centers)
            if windings is not None:
                break
            if level >= cap:
                raise WindingRefinementError(
                    f"cannot classify the windings around {centers}: "
                    f"angle increments stay >= pi/2 at M = {level}")
            level *= 2
    pts, d, dist = _distance_profile(traj, s, max(M, 1024))
    # clearance integral against the fixed singular point nearest to the
    # curve, by the same uniform quadrature the action uses
    _, witness = nearest_singular(s, pts[int(np.argmin(d))])
    gap2 = np.sum((pts - witness) ** 2, axis=1)
    clearance = float(traj.omega / len(pts) * np.sum(1.0 / gap2))
    return HomotopySignature(windings=windings, min_distance=dist,
                             clearance_integral=clearance)


# ---------------------------------------------------------------------------
# seed curves
# ---------------------------------------------------------------------------


def seed_curve(m_coils: int, s: SingularSet, omega: float,
               N: int) -> FourierTrajectory:
    """Odd seed looping m_coils times around r0 on the first half period.

    Requires a planar singular pair {r0, -r0} (m = 2, n = 0).  On
    [0, omega/2] the curve is the ellipse

        z(t) = r0 - r0*cos(theta) + rho*p*sin(theta),
        theta = 2*pi*m_coils*(2*t/omega),

    with p a unit vector orthogonal to r0 and rho = |r0|/2; it starts and
    ends at the origin and circles r0 clockwise, i.e. winding -m_coils.
    The second half period is the forced odd image z(t) = -z(omega - t),
    circling -r0 the opposite way.  The curve is then projected onto the
    first N sine modes by a discrete sine transform on a fine grid, and
    the projection is validated: windings must be (-m_coils, +m_coils)
    and the clearance must stay positive, otherwise N is too small.
    """
    if m_coils < 1:
        raise SeedError("m_coils must be a positive integer")
    if s.m != 2 or s.n != 0 or s.is_empty():
        raise SeedError("seed_curve needs a planar singular set (m=2, n=0)")
    base = [np.asarray(p, dtype=float) for p in s.base]
    r0 = base[0]
    if np.allclose(r0, 0.0):
        raise SeedError("singular base point r0 must be nonzero")
    for q in base[1:]:
        if not (np.allclose(q, r0) or np.allclose(q, -r0)):
            raise SeedError("seed_curve needs sigma base to be the pair "
                            "{r0, -r0}")
    if N < 1:
        raise SeedError("need at least one mode")
    rho = 0.5 * float(np.linalg.norm(r0))
    p = np.array([-r0[1], r0[0]]) / np.linalg.norm(r0)

    Mf = 4096
    while Mf < 16 * max(N, 4 * m_coils):
        Mf *= 2
    proto = FourierTrajectory(omega=omega, nu=(), coeffs=np.zeros((N, 2)))
    grid = SineGrid.uniform(proto, Mf, velocity=False)
    t = grid.t
    half = t <= omega / 2.0
    theta = TWO_PI * m_coils * (2.0 * t / omega)
    zs = np.empty((Mf, 2))
    ellipse = (r0[None, :] - np.outer(np.cos(theta), r0)
               + rho * np.outer(np.sin(theta), p))
    zs[half] = ellipse[half]
    # odd reflection z(t) = -z(omega - t) for the second half period
    mirror = omega - t[~half]
    theta_m = TWO_PI * m_coils * (2.0 * mirror / omega)
    zs[~half] = -(r0[None, :] - np.outer(np.cos(theta_m), r0)
                  + rho * np.outer(np.sin(theta_m), p))

    traj = proto.with_coeffs((2.0 / Mf) * (grid.S.T @ zs))

    try:
        sig = winding_signature(traj, s, M=max(16 * N, 256))
    except WindingRefinementError as e:
        # the projection collapsed onto sigma; classification is impossible
        raise SeedError(f"projected seed cannot be classified ({e}); "
                        f"increase N (requested N = {N})")
    guard = 0.02 * float(np.linalg.norm(r0))
    if sig.min_distance <= guard:
        raise SeedError(
            f"projected seed clears sigma by only {sig.min_distance:.3e}; "
            f"increase N (requested N = {N})")
    want = {tuple(r0): -m_coils, tuple(-r0): m_coils}
    got = {p: w for p, w in sig.windings.items()}
    for point, w in want.items():
        if got.get(point) != w:
            raise SeedError(
                f"projected seed windings {got} do not match the requested "
                f"coil count {m_coils}; increase N")
    return traj


# ---------------------------------------------------------------------------
# scalar-component inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoincareBounds:
    lhs_l2: float
    lhs_sup: float
    rhs_l2: float
    rhs_sup: float
    holds_l2: bool
    holds_sup: bool


def poincare_check(u_coeffs, omega: float, a: float,
                   quad_points: int = 4096) -> PoincareBounds:
    """Check the two vanishing-initial-value inequalities on [0, a].

    For a scalar component u(t) = sum_k u_k sin(2*pi*k*t/omega) (so that
    u(0) = 0) and any 0 < a <= omega, the Cauchy-Schwarz bounds

        ||u||^2_{L2(0,a)} <= (a^2/2) ||du||^2_{L2(0,a)}
        ||u||^2_{C[0,a]}  <=  a      ||du||^2_{L2(0,a)}

    are evaluated by dense trapezoid quadrature on [0, a].  Returns the
    four numbers and the two verdicts (with a tiny slack for quadrature
    rounding).  These Poincare-type estimates with vanishing initial value
    are what turns coercivity of the velocity norm into control of the
    trajectory itself.
    """
    u = np.atleast_1d(np.asarray(u_coeffs, dtype=float))
    if not 0.0 < a <= omega * (1.0 + 1e-12):
        raise TrajectoryError("need 0 < a <= omega")
    t = np.linspace(0.0, a, int(quad_points) + 1)
    grid = SineGrid(FourierTrajectory(omega, (), u[:, None]), t)
    vals = grid.S @ u
    dvals = grid.Cw @ u
    l2_u = float(np.trapezoid(vals * vals, t))
    l2_du = float(np.trapezoid(dvals * dvals, t))
    sup_u = float(np.max(vals * vals))
    rhs_l2 = a * a / 2.0 * l2_du
    rhs_sup = a * l2_du
    slack = 1e-9 * (1.0 + rhs_l2 + rhs_sup)
    return PoincareBounds(
        lhs_l2=l2_u, lhs_sup=sup_u, rhs_l2=rhs_l2, rhs_sup=rhs_sup,
        holds_l2=l2_u <= rhs_l2 + slack, holds_sup=sup_u <= rhs_sup + slack)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def write_trajectory_csv(path, sampled: SampledPath) -> None:
    """CSV with header t,z1..zD,dz1..dzD; one row per node; LF endings."""
    dim = sampled.z.shape[1]
    header = (["t"] + [f"z{d}" for d in range(1, dim + 1)]
              + [f"dz{d}" for d in range(1, dim + 1)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(sampled.t)):
            row = [sampled.t[i], *sampled.z[i], *sampled.dz[i]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def coeffs_to_dict(traj: FourierTrajectory) -> dict:
    return {
        "omega": traj.omega,
        "nu": list(traj.nu),
        "N": traj.N,
        "coeffs": [[float(v) for v in row] for row in traj.coeffs],
    }


def trajectory_from_dict(data: dict) -> FourierTrajectory:
    coeffs = np.asarray(data["coeffs"], dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != int(data["N"]):
        raise TrajectoryError("coeffs shape does not match N")
    return FourierTrajectory(omega=float(data["omega"]),
                             nu=tuple(int(v) for v in data.get("nu", [])),
                             coeffs=coeffs)


def save_coeffs(traj: FourierTrajectory, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(coeffs_to_dict(traj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_coeffs(path) -> FourierTrajectory:
    with open(path, "r", encoding="utf-8") as fh:
        return trajectory_from_dict(json.load(fh))
