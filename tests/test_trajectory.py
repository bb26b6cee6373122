"""Odd sine-series trajectories: sampling, norms, windings, seeds, export."""

import math

import numpy as np
import pytest

from minact.model import SingularSet, builtin, nearest_distances, \
    nearest_singular, singular_set
from minact.trajectory import (
    FourierTrajectory, HomotopySignature, PoincareBounds, SeedError,
    SineGrid, TrajectoryError, WindingRefinementError, coeffs_to_dict, evaluate_path,
    h1_seminorm, load_coeffs, min_distance_to, poincare_check, sample,
    save_coeffs, seed_curve, trajectory_from_dict, uniform_positions,
    winding_signature, windings_of_closed_points, write_trajectory_csv,
)
from conftest import count_builds, random_trajectory

TWO_PI = 2.0 * math.pi


def test_sample_single_mode_quarter_points():
    """z = sin t at t = 0, pi/2, pi, 3pi/2 gives 0, 1, 0, -1."""
    traj = FourierTrajectory(TWO_PI, (), [[1.0]])
    p = sample(traj, 4)
    assert np.allclose(p.t, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.allclose(p.z[:, 0], [0.0, 1.0, 0.0, -1.0], atol=1e-15)
    assert np.allclose(p.dz[:, 0], [1.0, 0.0, -1.0, 0.0], atol=1e-15)
    assert np.allclose(p.ddz[:, 0], [0.0, -1.0, 0.0, 1.0], atol=1e-15)


def test_sample_drift_only_angle():
    """nu = 1 with zero coefficients is the uniform rotation phi = t."""
    traj = FourierTrajectory(TWO_PI, (1,), np.zeros((1, 1)))
    p = sample(traj, 4)
    assert np.allclose(p.z[:, 0], [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert np.allclose(p.dz[:, 0], 1.0)
    assert np.allclose(p.ddz[:, 0], 0.0)


def test_sample_rejects_aliasing_grid():
    traj = FourierTrajectory(TWO_PI, (), np.ones((4, 1)))
    with pytest.raises(TrajectoryError):
        sample(traj, 8)  # need M >= 2N+1 = 9


def test_winding_vector_must_be_integral():
    """nu is not truncated: 1.5 and True are refused, naming the value,
    while an integral float such as 2.0 is still accepted."""
    for bad in (1.5, True):
        with pytest.raises(TrajectoryError, match=repr(bad)):
            FourierTrajectory(2.0, (bad,), [[0.0, 1.0]])
    assert FourierTrajectory(2.0, (2.0,), [[0.0, 1.0]]).nu == (2,)


def test_sample_derivatives_match_finite_differences(rng):
    """dz and ddz agree with central differences of the position."""
    traj = random_trajectory(rng, dim=2, N=5, nu=(2,))
    p = sample(traj, 32)
    h = 1e-4  # second difference loses ~eps/h^2; 1e-4 balances both errors
    for i in (0, 7, 19):
        t0 = p.t[i]
        zp = evaluate_path(traj, [t0 + h])[0]
        zm = evaluate_path(traj, [t0 - h])[0]
        fd_v = (zp - zm) / (2 * h)
        fd_a = (zp - 2 * p.z[i] + zm) / h**2
        assert np.allclose(p.dz[i], fd_v, rtol=1e-6, atol=1e-6), \
            f"velocity at node {i}: {p.dz[i]} vs {fd_v}"
        assert np.allclose(p.ddz[i], fd_a, rtol=1e-4, atol=1e-4), \
            f"acceleration at node {i}: {p.ddz[i]} vs {fd_a}"


def test_h1_single_mode():
    """b_1 = 1 at omega = 2*pi: integral of cos^2 is pi."""
    traj = FourierTrajectory(TWO_PI, (), [[1.0]])
    assert abs(h1_seminorm(traj) ** 2 - math.pi) < 1e-14


def test_h1_drift_only():
    """Uniform rotation: integral of phidot^2 = omega*(2*pi*nu/omega)^2."""
    traj = FourierTrajectory(TWO_PI, (1,), np.zeros((1, 1)))
    assert abs(h1_seminorm(traj) ** 2 - TWO_PI) < 1e-14


def test_h1_zero_trajectory():
    traj = FourierTrajectory(1.0, (), np.zeros((3, 2)))
    assert h1_seminorm(traj) == 0.0


def test_h1_matches_dense_quadrature(rng):
    """Parseval value equals trapezoid quadrature of |dz|^2 (periodic)."""
    for _ in range(10):
        traj = random_trajectory(rng, dim=3, N=6, omega=2.3, nu=(1, -2))
        t = np.linspace(0.0, traj.omega, 4097)
        S = np.sin(np.outer(t, traj.frequencies()))
        C = np.cos(np.outer(t, traj.frequencies()))
        dz = traj.drift()[None, :] + C @ (traj.frequencies()[:, None]
                                          * traj.coeffs)
        quad = float(np.trapezoid(np.sum(dz * dz, axis=1), t))
        exact = h1_seminorm(traj) ** 2
        assert abs(quad - exact) <= 1e-10 * (1 + exact), \
            f"Parseval {exact} vs quadrature {quad}"
        del S


def test_windings_of_circle_points():
    """A counterclockwise circle has winding +1 about the origin."""
    th = TWO_PI * np.arange(64) / 64
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    w = windings_of_closed_points(pts, [(0.0, 0.0)])
    assert w == {(0.0, 0.0): 1}
    w_rev = windings_of_closed_points(pts[::-1], [(0.0, 0.0)])
    assert w_rev == {(0.0, 0.0): -1}


def test_windings_outside_point_is_zero():
    th = TWO_PI * np.arange(64) / 64
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert windings_of_closed_points(pts, [(3.0, 0.0)]) == {(3.0, 0.0): 0}


def test_windings_coarse_sampling_returns_none():
    """Three points around a circle exceed the pi/2 increment rule."""
    th = TWO_PI * np.arange(3) / 3
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert windings_of_closed_points(pts, [(0.0, 0.0)]) is None


def test_winding_signature_figure_eight():
    """z = (2 sin t, sin 2t) turns -1 about (1,0) and +1 about (-1,0)."""
    traj = FourierTrajectory(TWO_PI, (), [[2.0, 0.0], [0.0, 1.0]])
    s = SingularSet(base=((1.0, 0.0),), m=2, n=0)
    sig = winding_signature(traj, s)
    assert sig.windings == {(1.0, 0.0): -1, (-1.0, 0.0): 1}, \
        f"windings {sig.windings}"
    assert sig.min_distance > 0.4
    assert sig.clearance_integral > 0.0


def test_winding_signature_same_class():
    a = HomotopySignature(windings={(1.0, 0.0): -1, (-1.0, 0.0): 1},
                          min_distance=0.5, clearance_integral=1.0)
    b = HomotopySignature(windings={(1.0, 0.0): -1, (-1.0, 0.0): 1},
                          min_distance=0.9, clearance_integral=2.0)
    c = HomotopySignature(windings={(1.0, 0.0): -2, (-1.0, 0.0): 2},
                          min_distance=0.5, clearance_integral=1.0)
    assert a.same_class(b)
    assert not a.same_class(c)


def test_winding_antisymmetry(rng):
    """Negating the curve negates nothing: w(-z, -s) = w(z, s)."""
    s = SingularSet(base=((1.0, 0.0),), m=2, n=0)
    count = 0
    while count < 20:
        traj = random_trajectory(rng, dim=2, N=5, scale=1.2)
        sig = winding_signature(traj, s)
        if sig.min_distance < 0.05:
            continue  # too close to classify robustly; resample
        neg = traj.with_coeffs(-traj.coeffs)
        sig_neg = winding_signature(neg, s)
        for point, w in sig.windings.items():
            mirror = tuple(-v + 0.0 for v in point)
            assert sig_neg.windings[mirror] == w, \
                f"antisymmetry broken at {point}: {sig.windings} vs " \
                f"{sig_neg.windings}"
        count += 1


def test_min_distance_line_segment():
    """z = (2 sin t, 0) sweeps [-2,2]x{0}; distances are exact."""
    traj = FourierTrajectory(TWO_PI, (), [[2.0, 0.0]])
    s_right = SingularSet(base=((3.0, 0.0),), m=2, n=0)
    assert abs(min_distance_to(traj, s_right) - 1.0) < 1e-8
    s_above = SingularSet(base=((0.0, 1.0),), m=2, n=0)
    assert abs(min_distance_to(traj, s_above) - 1.0) < 1e-8


def test_min_distance_angle_lattice():
    """x = 0, phi = t sweeps every angle, so (0.5, 1) is 0.5 away."""
    traj = FourierTrajectory(TWO_PI, (1,), np.zeros((4, 2)))
    s = SingularSet(base=((0.5, 1.0),), m=1, n=1)
    assert abs(min_distance_to(traj, s) - 0.5) < 1e-10


def _scalar_min_distance(traj, s, M=1024):
    """Reference: golden-section search on one sampled minimum at a time."""
    M = max(M, 4 * traj.N + 4, 64)
    t = traj.omega * np.arange(M) / M
    d = nearest_distances(s, evaluate_path(traj, t))
    best = float(np.min(d))
    h = traj.omega / M
    inv = (math.sqrt(5.0) - 1.0) / 2.0

    def dist(tt):
        return nearest_singular(s, evaluate_path(traj, [tt])[0])[0]

    for i in np.nonzero((d <= np.roll(d, 1)) & (d <= np.roll(d, -1)))[0]:
        a, b = t[i] - h, t[i] + h
        c, e = b - inv * (b - a), a + inv * (b - a)
        fc, fe = dist(c), dist(e)
        for _ in range(50):
            if fc <= fe:
                b, e, fe = e, c, fc
                c = b - inv * (b - a)
                fc = dist(c)
            else:
                a, c, fc = c, e, fe
                e = a + inv * (b - a)
                fe = dist(e)
        best = min(best, fc, fe)
    return best


def test_min_distance_matches_scalar_refinement(rng):
    """Refining all sampled minima at once agrees with one at a time."""
    planar = SingularSet(base=((0.7, 0.2), (0.1, -0.9)), m=2, n=0)
    lattice = SingularSet(base=((0.4, 1.0, -2.0),), m=1, n=2)
    for _ in range(5):
        traj = random_trajectory(rng, dim=2, N=6)
        ref = _scalar_min_distance(traj, planar)
        assert abs(min_distance_to(traj, planar) - ref) <= 1e-12 * ref
        traj = random_trajectory(rng, dim=3, N=4, nu=(1, -2))
        ref = _scalar_min_distance(traj, lattice)
        assert abs(min_distance_to(traj, lattice) - ref) <= 1e-12 * ref


def _golden_min_distance(traj, s, M=1024):
    """Reference: the sampled local minima refined all at once by 50
    golden-section steps on the bracket of their neighbour nodes."""
    M = max(M, 4 * traj.N + 4, 64)
    t = traj.omega * np.arange(M) / M
    d = nearest_distances(s, evaluate_path(traj, t))
    h = traj.omega / M
    ti = t[np.nonzero((d <= np.roll(d, 1)) & (d <= np.roll(d, -1)))[0]]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = ti - h, ti + h
    c, e = b - inv * (b - a), a + inv * (b - a)

    def dist(tt):
        return nearest_distances(s, evaluate_path(traj, tt))

    fc, fe = dist(c), dist(e)
    for _ in range(50):
        left = fc <= fe
        a, b = np.where(left, a, c), np.where(left, e, b)
        c, e = (np.where(left, b - inv * (b - a), e),
                np.where(left, c, a + inv * (b - a)))
        f = dist(np.where(left, c, e))
        fc, fe = np.where(left, f, fe), np.where(left, fc, f)
    return min(float(np.min(d)), float(np.min(np.minimum(fc, fe))))


def test_newton_clearance_matches_golden_section(rng):
    """On random planar and lattice trajectories the Newton-refined
    clearance equals the golden-section value to rounding: 1e-13 relative
    to the larger of the distance and the curve's size, since a distance
    is a difference of positions of that size."""
    planar = SingularSet(base=((0.7, 0.2), (0.1, -0.9)), m=2, n=0)
    lattice = SingularSet(base=((0.4, 1.0, -2.0),), m=1, n=2)
    for _ in range(60):
        for traj, s in ((random_trajectory(rng, dim=2, N=6), planar),
                        (random_trajectory(rng, dim=3, N=4, nu=(1, -2)),
                         lattice)):
            ref = _golden_min_distance(traj, s)
            size = float(np.max(np.abs(uniform_positions(traj, 64))))
            assert abs(min_distance_to(traj, s) - ref) <= 1e-13 * max(
                ref, size)


def _figure_eight():
    coeffs = np.zeros((4, 2))
    coeffs[0, 0], coeffs[1, 1] = 2.0, 1.0  # (2 sin t, sin 2t)
    return FourierTrajectory(TWO_PI, (), coeffs)


def _count_winding_grids(monkeypatch):
    """Record the size of every grid windings_of_closed_points classifies."""
    import minact.trajectory as trajectory_module
    sizes = []
    original = trajectory_module.windings_of_closed_points

    def counted(points, centers):
        sizes.append(len(points))
        return original(points, centers)

    monkeypatch.setattr(trajectory_module, "windings_of_closed_points",
                        counted)
    return sizes


def test_winding_signature_point_on_curve_cannot_be_classified(monkeypatch):
    """A singular point on the figure-eight keeps an angle increment near
    pi at every refinement level.  The zero clearance shows in the distance
    profile, so the refusal comes before any winding grid is sampled."""
    sizes = _count_winding_grids(monkeypatch)
    traj = _figure_eight()
    on_curve = tuple(evaluate_path(traj, [1.0])[0])
    with pytest.raises(WindingRefinementError):
        winding_signature(traj, SingularSet(base=(on_curve,), m=2, n=0))
    assert sizes == []


def test_winding_signature_small_clearance_refines_and_classifies(
        monkeypatch):
    """Points 1e-3 off the figure-eight, one on each side of it, are
    classified after refinement, and their windings differ by one."""
    sizes = _count_winding_grids(monkeypatch)
    traj = _figure_eight()
    point = evaluate_path(traj, [1.0])[0]
    tangent = np.array([2.0 * math.cos(1.0), 2.0 * math.cos(2.0)])
    normal = np.array([-tangent[1], tangent[0]]) / np.linalg.norm(tangent)
    windings = []
    for side in (1.0, -1.0):
        center = tuple(point + side * 1e-3 * normal)
        sig = winding_signature(traj, SingularSet(base=(center,), m=2, n=0))
        assert abs(sig.min_distance - 1e-3) < 1e-5, sig.min_distance
        windings.append(sig.windings[center])
    assert abs(windings[0] - windings[1]) == 1, windings
    assert max(sizes) > min(sizes)  # the grid was refined


def test_min_distance_empty_set():
    traj = FourierTrajectory(TWO_PI, (), [[1.0, 0.0]])
    assert min_distance_to(traj, SingularSet((), 2, 0)) == math.inf


def test_seed_curve_one_coil():
    """The default seed loops clockwise about r0, counterclockwise about -r0."""
    s = singular_set(builtin("two_centers"))
    traj = seed_curve(1, s, TWO_PI, 8)
    sig = winding_signature(traj, s)
    assert sig.windings == {(1.0, 0.0): -1, (-1.0, 0.0): 1}
    assert sig.min_distance > 0.02


def test_seed_curve_two_coils():
    s = singular_set(builtin("two_centers"))
    traj = seed_curve(2, s, TWO_PI, 12)
    sig = winding_signature(traj, s)
    assert sig.windings == {(1.0, 0.0): -2, (-1.0, 0.0): 2}


def test_seed_curve_projection_matches_dense_sine_table(monkeypatch):
    """The rfft projection equals the dense sine-table projection of the
    same fine-grid samples to rounding, and the seed keeps its windings."""
    s = singular_set(builtin("two_centers"))
    samples = []
    rfft = np.fft.rfft

    def recorded(a, *args, **kwargs):
        samples.append(np.array(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recorded)
    for coils, N in ((1, 16), (2, 32), (3, 64)):
        samples.clear()
        traj = seed_curve(coils, s, TWO_PI, N)
        (zs,) = samples
        Mf = len(zs)
        t = TWO_PI * np.arange(Mf) / Mf
        dense = (2.0 / Mf) * (np.sin(np.outer(t, traj.frequencies())).T @ zs)
        assert np.max(np.abs(traj.coeffs - dense)) <= 1e-13
        dense_sig = winding_signature(traj.with_coeffs(dense), s)
        assert winding_signature(traj, s).windings == dense_sig.windings \
            == {(1.0, 0.0): -coils, (-1.0, 0.0): coils}


def test_seed_curve_too_few_modes():
    """One sine mode cannot hold a loop around r0: the projection collides."""
    s = singular_set(builtin("two_centers"))
    with pytest.raises(SeedError):
        seed_curve(1, s, TWO_PI, 1)


def test_seed_curve_requires_planar_pair():
    with pytest.raises(SeedError):
        seed_curve(1, SingularSet((), 2, 0), TWO_PI, 8)
    with pytest.raises(SeedError):
        seed_curve(1, SingularSet(((1.0, 0.0), (0.0, 1.0)), 2, 0), TWO_PI, 8)
    with pytest.raises(SeedError):
        seed_curve(0, singular_set(builtin("two_centers")), TWO_PI, 8)


def test_poincare_closed_form():
    """u = sin t on [0, 2*pi]: ||u||^2 = pi, ||du||^2 = pi, sup u^2 = 1."""
    b = poincare_check([1.0], TWO_PI, TWO_PI)
    assert abs(b.lhs_l2 - math.pi) < 1e-10, f"||u||^2 = {b.lhs_l2}"
    assert abs(b.rhs_l2 - 2 * math.pi**3) < 1e-8
    assert abs(b.lhs_sup - 1.0) < 1e-10
    assert abs(b.rhs_sup - 2 * math.pi**2) < 1e-8
    assert b.holds_l2 and b.holds_sup


def test_poincare_holds_for_random_series(rng):
    """Both inequalities hold for random sine polynomials and partial spans."""
    omega = 2.0
    for _ in range(50):
        u = rng.normal(size=int(rng.integers(1, 8))) * 0.5
        for a in (omega / 4, omega / 2, omega):
            b = poincare_check(u, omega, a)
            assert b.holds_l2, f"L2 bound failed: {b}"
            assert b.holds_sup, f"sup bound failed: {b}"


def test_poincare_rejects_bad_span():
    with pytest.raises(TrajectoryError):
        poincare_check([1.0], TWO_PI, 0.0)
    with pytest.raises(TrajectoryError):
        poincare_check([1.0], TWO_PI, 7.0)


def test_trajectory_is_structurally_odd(rng):
    """z(-t) = -z(t) holds by construction, drift included."""
    traj = random_trajectory(rng, dim=3, N=6, omega=1.7, nu=(2,))
    t = rng.uniform(-3.0, 3.0, size=40)
    zp = evaluate_path(traj, t)
    zm = evaluate_path(traj, -t)
    assert np.max(np.abs(zp + zm)) < 1e-12, "odd symmetry broken"


def test_trajectory_shift_by_period(rng):
    """z(t + omega) - z(t) = (0, ..., 2*pi*nu)."""
    traj = random_trajectory(rng, dim=3, N=5, omega=0.9, nu=(1, -3))
    t = rng.uniform(-2.0, 2.0, size=30)
    gap = evaluate_path(traj, t + traj.omega) - evaluate_path(traj, t)
    want = np.concatenate([[0.0], TWO_PI * np.array([1.0, -3.0])])
    assert np.max(np.abs(gap - want)) < 1e-10, f"period shift gap {gap[0]}"


def test_velocity_mean_equals_drift(rng):
    """The rectangle-rule mean of dz recovers exactly the drift vector."""
    traj = random_trajectory(rng, dim=2, N=4, omega=3.1, nu=(2,))
    p = sample(traj, 4 * traj.N + 2)
    mean = p.dz.mean(axis=0)
    assert np.allclose(mean, traj.drift(), atol=1e-12), \
        f"mean velocity {mean} vs drift {traj.drift()}"


def test_trajectory_validation():
    with pytest.raises(TrajectoryError):
        FourierTrajectory(-1.0, (), [[1.0]])
    with pytest.raises(TrajectoryError):
        FourierTrajectory(1.0, (), np.ones(3))
    with pytest.raises(TrajectoryError):
        FourierTrajectory(1.0, (1, 2), np.ones((2, 1)))


def test_csv_export_format(tmp_path):
    path = tmp_path / "traj.csv"
    traj = FourierTrajectory(TWO_PI, (1,), [[0.5, 0.25]])
    write_trajectory_csv(path, sample(traj, 4))
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "t,z1,z2,dz1,dz2"
    assert len(lines) == 6 and lines[5] == ""  # header + 4 rows + final LF
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0 and first[2] == 0.0


def test_coeffs_json_round_trip(tmp_path, rng):
    path = tmp_path / "coeffs.json"
    traj = random_trajectory(rng, dim=2, N=5, omega=1.3, nu=(2,))
    save_coeffs(traj, path)
    again = load_coeffs(path)
    assert again.omega == traj.omega and again.nu == traj.nu
    assert np.array_equal(again.coeffs, traj.coeffs), "coefficients changed"


def test_trajectory_from_dict_validates_shape():
    with pytest.raises(TrajectoryError):
        trajectory_from_dict({"omega": 1.0, "nu": [], "N": 3,
                              "coeffs": [[1.0], [2.0]]})
    with pytest.raises(TrajectoryError, match="missing field 'N'"):
        trajectory_from_dict({"omega": 1.0, "nu": [],
                              "coeffs": [[1.0], [2.0]]})
    with pytest.raises(TrajectoryError, match="JSON object"):
        trajectory_from_dict([[1.0], [2.0]])
    for name, bad in (("omega", [1.0]), ("nu", 1), ("coeffs", [[1.0], 2]),
                      ("N", 2.5), ("N", True), ("nu", [0.5])):
        with pytest.raises(TrajectoryError, match=f"field '{name}'"):
            trajectory_from_dict({"omega": 1.0, "nu": [], "N": 2,
                                  "coeffs": [[1.0], [2.0]], name: bad})
    traj = trajectory_from_dict({"omega": 1.0, "nu": [], "N": 2.0,
                                 "coeffs": [[1.0], [2.0]]})
    assert traj.N == 2


def test_coeffs_dict_fields():
    traj = FourierTrajectory(2.0, (1,), [[0.0, 1.0], [0.5, 0.0]])
    d = coeffs_to_dict(traj)
    assert d == {"omega": 2.0, "nu": [1], "N": 2,
                 "coeffs": [[0.0, 1.0], [0.5, 0.0]]}


def _windings_per_center(points, centers):
    """The one-center-at-a-time classifier, kept as a reference."""
    out = {}
    for c in centers:
        rel = points - np.asarray(c, dtype=float)
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        inc = np.diff(theta, append=theta[:1])
        inc = (inc + math.pi) % TWO_PI - math.pi
        if inc.size and np.max(np.abs(inc)) >= math.pi / 2.0:
            return None
        total = float(np.sum(inc) / TWO_PI)
        w = round(total)
        if abs(total - w) > 1e-6:
            return None
        out[c] = w
    return out


def test_windings_one_pass_matches_per_center(rng):
    """All centers in one array pass classify exactly as one at a time,
    including loops where one center fails and the empty center list."""
    saw_none = saw_winding = False
    for _ in range(40):
        traj = random_trajectory(rng, dim=2, N=5, scale=2.0)
        pts = uniform_positions(traj, int(rng.integers(16, 400)))
        centers = [tuple(rng.uniform(-2.0, 2.0, size=2))
                   for _ in range(int(rng.integers(1, 5)))]
        got = windings_of_closed_points(pts, centers)
        assert got == _windings_per_center(pts, centers)
        saw_none |= got is None
        saw_winding |= got is not None and any(got.values())
        assert windings_of_closed_points(pts, []) == {}
        # a center halfway along one edge of the polygon sees an angle
        # increment of pi: that center fails, so the whole call does
        i = int(rng.integers(len(pts)))
        bad = centers + [tuple(0.5 * (pts[i] + pts[(i + 1) % len(pts)]))]
        assert windings_of_closed_points(pts, bad) is None
        assert _windings_per_center(pts, bad) is None
    assert saw_none and saw_winding


def test_distance_profile_and_signature_memoized_per_trajectory(
        monkeypatch):
    """min_distance_to and winding_signature share one distance profile
    per singular set, on max(16N, 1024) nodes, a signature is kept per
    singular set, and memoized results equal those of a fresh trajectory
    with equal coefficients."""
    s = singular_set(builtin("two_centers"))
    coeffs = seed_curve(2, s, TWO_PI, 24).coeffs
    traj = FourierTrajectory(TWO_PI, (), coeffs)
    fresh = FourierTrajectory(TWO_PI, (), coeffs)
    builds = count_builds(monkeypatch)

    def built():
        return [(kind, M) for kind, _, M in builds]

    d = min_distance_to(traj, s)
    sig = winding_signature(traj, s)  # M = 16 N = 384, profile on 1024
    assert built() == [("profile", 1024), ("signature", 384)]
    assert min_distance_to(traj, s) == d
    assert winding_signature(traj, s) is sig
    assert len(builds) == 2
    # another singular set is another entry
    other = SingularSet(base=((0.5, 0.5),), m=2, n=0)
    min_distance_to(traj, other)
    sig_other = winding_signature(traj, other)
    assert built()[2:] == [("profile", 1024), ("signature", 384)]
    assert min_distance_to(fresh, s) == d
    assert winding_signature(fresh, s) == sig
    assert min_distance_to(fresh, other) == min_distance_to(traj, other)
    assert winding_signature(fresh, other) == sig_other
    # above N = 64 the profile is the winding grid: 16 N = 1536 nodes
    wide = FourierTrajectory(TWO_PI, (), seed_curve(2, s, TWO_PI, 96).coeffs)
    del builds[:]
    min_distance_to(wide, s)
    winding_signature(wide, s)
    assert built() == [("profile", 1536), ("signature", 1536)]


def test_trajectory_coefficients_are_read_only():
    traj = FourierTrajectory(TWO_PI, (), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        traj.coeffs[0, 0] = 2.0
    assert traj != FourierTrajectory(TWO_PI, (), [[1.0, 0.0]])  # eq=False


def _uniform_sample_cases():
    from minact.optimize import SolveOptions, solve_in_class
    rng = np.random.default_rng(11)
    orbit = solve_in_class(builtin("two_centers"), 1,
                           SolveOptions(N=24)).trajectory
    tube = builtin("tube_ball", nu=(2,))
    rolling = random_trajectory(rng, dim=tube.dim, N=12, omega=tube.omega,
                                nu=tube.nu)
    wide = random_trajectory(rng, dim=2, N=20)
    return [
        ("two_centers orbit", orbit, 1024),
        ("tube_ball drift", rolling, 96),
        ("odd M", orbit, 777),
        ("M = 2N", wide, 40),
        ("M = 2N - 7, folded", wide, 33),
        ("M < N, folded twice", wide, 9),
    ]


def test_uniform_positions_match_dense_sine_grid():
    """The inverse-FFT sample equals the dense basis on the same nodes,
    drift and aliased modes included, to 1e-13 of the curve's size."""
    for name, traj, M in _uniform_sample_cases():
        grid = SineGrid(traj, traj.omega * np.arange(M) / M)
        want = grid.z(traj.coeffs)
        got = uniform_positions(traj, M)
        assert got.shape == want.shape == (M, traj.dim), name
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name


def test_winding_refinement_memory_is_linear_in_nodes():
    """A curve 1e-6 from a singular point doubles its winding grid to the
    2^20-node cap and is still refused, with a traced peak that does not
    grow with N: no M x N sine table is built at any level."""
    import tracemalloc
    rng = np.random.default_rng(5)
    traj = random_trajectory(rng, dim=2, N=16)
    point = evaluate_path(traj, [1.0])[0]
    w = traj.frequencies()
    tangent = (w * np.cos(w * 1.0)) @ traj.coeffs  # dz at t = 1
    normal = np.array([-tangent[1], tangent[0]]) / np.linalg.norm(tangent)
    near = SingularSet(base=(tuple(point + 1e-6 * normal),), m=2, n=0)
    tracemalloc.start()
    try:
        with pytest.raises(WindingRefinementError, match="M = 1048576"):
            winding_signature(traj, near)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20, peak
