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

import functools
import json
import math

import numpy as np

from .expr import Record
from .model import SingularSet, _nearest, enumerate_planar, exact_int, \
    json_field, nearest_distances, nearest_singular, write_json

__all__ = [
    "FourierTrajectory", "SampledPath", "SineGrid", "HomotopySignature",
    "TrajectoryError", "SeedError", "WindingRefinementError",
    "sample", "evaluate_path", "uniform_positions", "h1_seminorm",
    "winding_signature", "refine_windings", "windings_of_closed_points",
    "min_distance_to",
    "seed_curve", "poincare_check", "PoincareBounds",
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


class FourierTrajectory(Record):
    """Immutable odd trajectory; coeffs has shape (N, dim), row k-1 = mode k.

    The coefficients are read-only, so results that depend only on the
    trajectory and a singular set (its distance profile and winding
    signature) are computed once per trajectory and kept with it, as is
    its quadrature grid per node count (SineGrid.uniform), which
    with_coeffs passes on to a copy of the same shape.  Two trajectories
    are equal only when they are one object.
    """

    _fields = ("omega", "nu", "coeffs")
    __slots__ = _fields + ("_memo",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, omega: float, nu: tuple, coeffs: np.ndarray):
        if not (math.isfinite(omega) and omega > 0):
            raise TrajectoryError("omega must be finite and > 0")
        object.__setattr__(self, "omega", float(omega))
        try:
            nu = tuple(exact_int(v) for v in nu)
        except ValueError as err:
            raise TrajectoryError(f"nu must hold integers: {err}") from None
        object.__setattr__(self, "nu", nu)
        b = np.array(coeffs, dtype=float, copy=True)
        if b.ndim != 2:
            raise TrajectoryError("coeffs must be a 2-d array (N, dim)")
        if len(nu) > b.shape[1]:
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
        """The trajectory with other coefficients; it keeps this one's
        quadrature grids when the shape is the same, as the grids depend
        only on omega, nu and the shape."""
        copy = FourierTrajectory(self.omega, self.nu, coeffs)
        if copy.coeffs.shape == self.coeffs.shape:
            copy._memo.update((key, grid) for key, grid in self._memo.items()
                              if key[0] == "grid")
        return copy


class SampledPath(Record):
    """Uniform nodes t_i = i*omega/M with exact z, dz, ddz of the basis."""

    __slots__ = _fields = ("t", "z", "dz", "ddz")

    def __init__(self, t: np.ndarray, z: np.ndarray, dz: np.ndarray,
                 ddz: np.ndarray):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "dz", dz)
        object.__setattr__(self, "ddz", ddz)


class HomotopySignature(Record):
    """Winding numbers per planar singular point plus clearance diagnostics.

    windings maps each enumerated singular point (base points and their
    negations) to an integer turning count, counterclockwise positive.  It
    is empty unless m = 2, n = 0 and sigma is nonempty.  min_distance is
    the distance from the curve to the full singular set (dense sampling
    refined near local minima); clearance_integral is the quadrature value
    of integral dt/|z(t) - s|^2 for the nearest singular point s.
    """

    _fields = ("windings", "min_distance", "clearance_integral")

    def same_class(self, other: "HomotopySignature") -> bool:
        return self.windings == other.windings


class SineGrid:
    """The sine basis of one trajectory space on a node array.

    Holds the nodes t, S = sin(w t) and Cw = w cos(w t) for the mode
    frequencies w, so that coefficients B give

        z = drift*t + S @ B,    dz = drift + Cw @ B,

    and the coefficient gradient of a node sum of L(t, z, dz) is
    S^T dL/dz + Cw^T dL/ddz.  The arrays are read-only, as a uniform grid
    is shared by every trajectory that keeps it.
    """

    def __init__(self, traj: FourierTrajectory, t: np.ndarray):
        self.t = t
        self.w = traj.frequencies()
        self.drift = traj.drift()
        self.z_drift = np.outer(t, self.drift)
        phases = np.outer(t, self.w)
        self.S = np.sin(phases)
        self.Cw = np.cos(phases) * self.w
        for a in (t, self.w, self.drift, self.z_drift, self.S, self.Cw):
            a.setflags(write=False)

    @classmethod
    def uniform(cls, traj: FourierTrajectory, M: int) -> "SineGrid":
        """The quadrature grid on the M uniform nodes i*omega/M of one
        period; requires M >= 2N + 1 so that no represented mode aliases.
        Built once per M for traj and the copies it passes its grids to.
        """
        M = int(M)
        if M < 2 * traj.N + 1:
            raise TrajectoryError(
                f"M = {M} too small for N = {traj.N} modes (need M >= 2N+1)")
        return traj._memoized(
            ("grid", M), lambda: cls(traj, traj.omega * np.arange(M) / M))

    def head(self, M: int) -> "SineGrid":
        """The grid on its first M nodes, as views into this one's
        arrays."""
        head = object.__new__(SineGrid)
        head.__dict__.update(self.__dict__)
        for name in ("t", "z_drift", "S", "Cw"):
            setattr(head, name, getattr(self, name)[:M])
        return head

    def z(self, B: np.ndarray) -> np.ndarray:
        return self.z_drift + self.S @ B

    def path(self, B: np.ndarray, z: np.ndarray | None = None) -> SampledPath:
        """Positions (z if given) and velocities at the nodes; no ddz."""
        return SampledPath(t=self.t, z=self.z(B) if z is None else z,
                           dz=self.drift + self.Cw @ B, ddz=None)

    def gradient(self, dL: np.ndarray) -> np.ndarray:
        """S^T dL/dz + Cw^T dL/ddz, shape (N, dim), for dL = (dL/dz,
        dL/ddz) of shape (2, M, dim)."""
        return self.S.T @ dL[0] + self.Cw.T @ dL[1]


def evaluate_path(traj: FourierTrajectory, t) -> np.ndarray:
    """Positions z(t) for arbitrary times t; shape (len(t), dim)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return (np.outer(t, traj.drift())
            + np.sin(np.outer(t, traj.frequencies())) @ traj.coeffs)


def uniform_positions(traj: FourierTrajectory, M: int) -> np.ndarray:
    """Positions (M, dim) at the nodes i*omega/M, by one inverse real FFT.

    Mode k goes to bin k mod M, folded to M - k with a sign flip past M/2;
    bins 0 and M/2 get nothing, as the sine is zero on the nodes there.
    """
    k = np.arange(1, traj.N + 1) % M
    scale = -0.5j * M * np.sign(M - 2 * k) * (k > 0)
    spectrum = np.zeros((M // 2 + 1, traj.dim), dtype=complex)
    np.add.at(spectrum, np.minimum(k, M - k), scale[:, None] * traj.coeffs)
    return (np.fft.irfft(spectrum, n=M, axis=0)
            + np.outer(traj.omega * np.arange(M) / M, traj.drift()))


def sample(traj: FourierTrajectory, M: int) -> SampledPath:
    """Evaluate z, dz, ddz exactly at the M uniform nodes i*omega/M.

    Requires M >= 2N + 1 so that no represented mode aliases on the grid.
    """
    grid = SineGrid.uniform(traj, M)
    b = traj.coeffs
    path = grid.path(b)
    return SampledPath(path.t, path.z, path.dz,
                       -grid.S @ (grid.w[:, None] ** 2 * b))


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


def _distance_profile(traj: FourierTrajectory, s: SingularSet):
    """FFT-sampled points and node distances, and the refined minimum.

    The points are max(16N, 1024) uniform nodes, the default winding grid
    or finer.  Every sampled local minimum is refined at once by
    safeguarded Newton steps toward the nearest time of the curve to the
    node's nearest singular point, inside the bracket of its two neighbour
    nodes; the minimum is the least of the node distances and the
    distances at the refined times, so it is always attained by the curve.
    Computed once per s for a trajectory; the arrays are read-only.
    """
    M = max(_winding_nodes(traj), 1024)
    return traj._memoized(("profile", s),
                          lambda: _compute_profile(traj, s, M))


def _compute_profile(traj: FourierTrajectory, s: SingularSet, M: int):
    pts = uniform_positions(traj, M)
    d = nearest_distances(s, pts)
    h = traj.omega / M
    local = np.nonzero((d <= np.roll(d, 1)) & (d <= np.roll(d, -1)))[0]
    t = traj.omega * local / M
    lo, hi = t - h, t + h
    _, witness = _nearest(s, pts[local], "witnesses")
    w, drift, dim = traj.frequencies(), traj.drift(), traj.dim
    wb = w[:, None] * traj.coeffs
    # sin(w t) @ sine_basis = (z - drift t, ddz), cos(w t) @ wb = dz - drift
    sine_basis = np.concatenate((traj.coeffs, -w[:, None] * wb), axis=1)
    tol = 4.0 * np.finfo(float).eps * traj.omega  # the rounding of t
    for _ in range(16):  # quadratic convergence takes about four
        phases = np.outer(t, w)
        zs = np.sin(phases) @ sine_basis
        gap = zs[:, :dim] + np.outer(t, drift) - witness
        dz = np.cos(phases) @ wb + drift
        # Newton on g = (z - s).dz, half the derivative of |z - s|^2, with
        # g' = |dz|^2 + (z - s).ddz; no step where g' <= 0
        g = np.sum(gap * dz, axis=1)
        slope = np.sum(dz * dz + gap * zs[:, dim:], axis=1)
        step = -g / np.where(slope > 0.0, slope, np.inf)
        t, t_old = np.minimum(np.maximum(t + step, lo), hi), t
        if np.max(np.abs(t - t_old)) <= tol:
            break  # no step exceeds rounding
    refined = nearest_distances(s, evaluate_path(traj, t))
    best = min(float(np.min(d)), float(np.min(refined)))
    pts.setflags(write=False)
    d.setflags(write=False)
    return pts, d, best


def min_distance_to(traj: FourierTrajectory, s: SingularSet) -> float:
    """Distance from the curve to the singular set over one period.

    Uniform sampling on max(16N, 1024) nodes followed by Newton refinement
    around every sampled local minimum (see _distance_profile); the
    profile is shared with winding_signature.
    """
    if s.is_empty():
        return math.inf
    return _distance_profile(traj, s)[2]


def winding_signature(traj: FourierTrajectory,
                      s: SingularSet) -> HomotopySignature:
    """Winding numbers around the planar singular points plus clearance.

    Windings are computed only when m = 2, n = 0 (closed planar curves),
    by refine_windings from the default winding grid, max(16N, 64) nodes,
    with at least eight doublings and up to 2^20 nodes; a curve whose
    clearance is zero to rounding is refused before any sampling.
    min_distance and the clearance integral are computed for any
    dimensions, from the distance profile min_distance_to reads.  Computed
    once per s for a trajectory, so repeated calls return the same object.
    """
    return traj._memoized(
        ("signature", s),
        lambda: _compute_signature(traj, s, _winding_nodes(traj)))


def _winding_nodes(traj: FourierTrajectory) -> int:
    return max(16 * traj.N, 64)  # the default winding grid


def refine_windings(traj: FourierTrajectory, centers,
                    doublings: int) -> dict:
    """Windings about centers on M, 2M, ..., 2^doublings M uniform nodes.

    M is the default winding grid, 16 nodes per mode and at least 64.
    Each grid is sampled by uniform_positions and classified by
    windings_of_closed_points; the first grid that classifies gives the
    windings.  Raises WindingRefinementError when none does.
    """
    M = _winding_nodes(traj)
    for level in (M << k for k in range(doublings + 1)):
        windings = windings_of_closed_points(uniform_positions(traj, level),
                                             centers)
        if windings is not None:
            return windings
    raise WindingRefinementError(
        f"cannot classify the windings around {centers}: "
        f"angle increments stay >= pi/2 at M = {level}")


def _compute_signature(traj: FourierTrajectory, s: SingularSet,
                       M: int) -> HomotopySignature:
    if s.is_empty():
        return HomotopySignature(windings={}, min_distance=math.inf,
                                 clearance_integral=0.0)
    pts, d, dist = _distance_profile(traj, s)
    windings = {}
    if s.m == 2 and s.n == 0 and traj.dim == 2:
        centers = enumerate_planar(s)
        # zero clearance to rounding (the refined minimum of a curve through
        # the set is far below 1e-9 of its size): no grid size can
        # classify the curve
        if dist <= 1e-9 * float(np.max(np.abs(pts))):
            raise WindingRefinementError(
                f"cannot classify the windings around {centers}: the curve "
                f"passes through the singular set (clearance {dist:.3e})")
        windings = refine_windings(
            traj, centers, max(8, math.ceil(math.log2((1 << 20) / M))))
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
    t = proto.omega * np.arange(Mf) / Mf
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

    # b_k = (2/Mf) sum_i sin(2 pi k i / Mf) zs_i, the sine projection
    traj = proto.with_coeffs(
        (-2.0 / Mf) * np.fft.rfft(zs, axis=0).imag[1:N + 1])

    try:
        sig = winding_signature(traj, s)
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


class PoincareBounds(Record):
    _fields = ("lhs_l2", "lhs_sup", "rhs_l2", "rhs_sup", "holds_l2",
               "holds_sup")


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
    """A trajectory from parsed coefficient-file JSON; a missing or
    malformed field raises a TrajectoryError naming it."""
    field = functools.partial(json_field, data, error=TrajectoryError)
    N = field("N", exact_int)
    coeffs = field("coeffs", lambda c: np.asarray(c, dtype=float))
    if coeffs.ndim != 2 or coeffs.shape[0] != N:
        raise TrajectoryError("coeffs shape does not match N")
    return FourierTrajectory(
        omega=field("omega", float),
        nu=field("nu", lambda v: tuple(map(exact_int, v)), []),
        coeffs=coeffs)


def save_coeffs(traj: FourierTrajectory, path) -> None:
    write_json(path, coeffs_to_dict(traj))


def load_coeffs(path) -> FourierTrajectory:
    with open(path, "r", encoding="utf-8") as fh:
        return trajectory_from_dict(json.load(fh))
