"""Model construction, built-ins, singular-set geometry, and JSON I/O."""

import json
import math

import numpy as np
import pytest

from minact import expr as ex
from minact.model import (
    BUILTIN_NAMES, Constraint, GrowthConstants, ModelError, ModelSpec,
    SingularSet, builtin, enumerate_planar, is_autonomous, load_model,
    model_from_dict, model_to_dict, nearest_distances, nearest_singular,
    save_model, singular_set, with_nu, with_omega,
)
from conftest import count_calls, reference_nearest_distances

TWO_PI = 2.0 * math.pi


def test_two_centers_sigma_base():
    """The double-well centers sit at +-r0."""
    m = builtin("two_centers")
    assert m.sigma_base == ((1.0, 0.0), (-1.0, 0.0))


def test_two_centers_potential_at_origin():
    """V(0) = -gamma*(1/|r0|^n + 1/|r0|^n) = -2 for the defaults."""
    m = builtin("two_centers")
    v = ex.evaluate(m.potential, 0.0, np.array([0.0, 0.0]))
    assert abs(v + 2.0) < 1e-14, f"V(0) = {v}"


def test_two_centers_general_exponent():
    """Exponent n scales the wells as |z - r0|^(-n)."""
    m = builtin("two_centers", gamma=2.0, n=3.0)
    z = np.array([0.5, 0.0])
    want = -2.0 * (0.5 ** -3.0 + 1.5 ** -3.0)
    v = ex.evaluate(m.potential, 0.0, z)
    assert abs(v - want) < 1e-12 * abs(want)


def test_tube_ball_metric_entries():
    """Kinetic form diag(m, m*x^2 + J) at x = 2 with m = J = 1."""
    m = builtin("tube_ball")
    z = np.array([2.0, 0.7])
    g = [[ex.evaluate(m.metric[i][j], 0.0, z) for j in range(2)]
         for i in range(2)]
    assert g[0][0] == 1.0 and g[0][1] == 0.0 and g[1][0] == 0.0
    assert abs(g[1][1] - 5.0) < 1e-14, f"g_22 = {g[1][1]}"


def test_cylinder_potential_is_odd():
    """V = m*g*x changes sign under z -> -z (the hypothesis it violates)."""
    m = builtin("cylinder")
    z = np.array([2.0, 1.0])
    vp = ex.evaluate(m.potential, 0.0, z)
    vm = ex.evaluate(m.potential, 0.0, -z)
    assert abs(vp - 2.0 * 9.81) < 1e-12
    assert abs(vp + vm) < 1e-12, f"not odd: {vp} vs {vm}"


def test_forced_oscillator_negative_margin_setup():
    """Fixed period 2*pi; K = A = 1/2 so the margin is 1/2 - pi^2."""
    m = builtin("forced_oscillator")
    assert abs(m.omega - TWO_PI) < 1e-15
    assert m.constants.K == 0.5 and m.constants.A == 0.5
    with pytest.raises(ModelError):
        builtin("forced_oscillator", omega=1.0)


def test_builtin_unknown_name():
    with pytest.raises(ModelError):
        builtin("pendulum")
    assert set(BUILTIN_NAMES) == {"two_centers", "surface_slide", "tube_ball",
                                  "cylinder", "forced_oscillator"}


def test_builtin_rejects_nonpositive_parameters():
    with pytest.raises(ModelError):
        builtin("two_centers", gamma=-1.0)
    with pytest.raises(ModelError):
        builtin("tube_ball", omega=0.0)


def test_nearest_singular_planar():
    """Distance from (2, 0) to the two centers is 1, attained at (1, 0)."""
    s = singular_set(builtin("two_centers"))
    d, w = nearest_singular(s, (2.0, 0.0))
    assert d == 1.0, f"distance {d}"
    assert np.allclose(w, (1.0, 0.0))


def test_nearest_singular_uses_angle_lattice():
    """With one angle coordinate the set repeats every 2*pi."""
    s = SingularSet(base=((0.0, 0.0),), m=1, n=1)
    d, w = nearest_singular(s, (0.0, 7.0))
    assert abs(d - (7.0 - TWO_PI)) < 1e-12, f"lattice distance {d}"
    assert np.allclose(w, (0.0, TWO_PI))


def test_nearest_singular_empty_set():
    s = SingularSet(base=(), m=2, n=0)
    d, w = nearest_singular(s, (3.0, 4.0))
    assert d == math.inf and w is None


def test_nearest_distances_enumerate_a_set_once(monkeypatch, rng):
    """Repeated nearest_distances calls on one set enumerate it once; its
    candidate array is read-only, and the distances do not change."""
    import minact.model as model_module
    enumerated = count_calls(monkeypatch, model_module, "enumerate_planar")
    s = singular_set(builtin("two_centers"))
    points = rng.normal(size=(64, 2))
    first = nearest_distances(s, points)
    for _ in range(3):
        assert np.array_equal(nearest_distances(s, points), first)
    nearest_singular(s, points[0])
    assert len(enumerated) == 1
    assert not s.candidates.flags.writeable
    assert np.array_equal(first, reference_nearest_distances(s, points)[0])


def test_enumerate_planar_contains_negations():
    s = SingularSet(base=((1.0, 0.5),), m=2, n=0)
    pts = enumerate_planar(s)
    assert (1.0, 0.5) in pts and (-1.0, -0.5) in pts
    assert len(pts) == 2


def test_enumeration_negation_closure(rng):
    """The planar enumeration is closed under z -> -z."""
    for _ in range(20):
        k = int(rng.integers(1, 4))
        base = tuple(tuple(rng.normal(size=2)) for _ in range(k))
        pts = enumerate_planar(SingularSet(base=base, m=2, n=0))
        for p in pts:
            neg = tuple(-v + 0.0 for v in p)
            assert neg in pts, f"negation of {p} missing"


def test_nearest_singular_negation_symmetry(rng):
    """dist(-z, sigma) = dist(z, sigma) since sigma = -sigma."""
    s = SingularSet(base=((1.0, 0.3), (-0.2, 0.9)), m=1, n=1)
    for _ in range(100):
        z = rng.uniform(-8.0, 8.0, size=2)
        d_plus, _ = nearest_singular(s, z)
        d_minus, _ = nearest_singular(s, -z)
        assert abs(d_plus - d_minus) < 1e-12, \
            f"asymmetry at {z}: {d_plus} vs {d_minus}"


def test_nearest_singular_angle_periodicity(rng):
    """Shifting any angle coordinate by 2*pi*k leaves the distance fixed."""
    s = SingularSet(base=((0.5, 0.1, -0.4),), m=1, n=2)
    for _ in range(100):
        z = rng.uniform(-3.0, 3.0, size=3)
        shift = np.zeros(3)
        shift[1:] = TWO_PI * rng.integers(-3, 4, size=2)
        d0, _ = nearest_singular(s, z)
        d1, _ = nearest_singular(s, z + shift)
        assert abs(d0 - d1) < 1e-10, f"lattice shift changed {d0} -> {d1}"


def test_nearest_distances_matches_pointwise(rng):
    s = SingularSet(base=((1.0, 0.0), (0.3, -0.8)), m=1, n=1)
    pts = rng.uniform(-6.0, 6.0, size=(50, 2))
    batch = nearest_distances(s, pts)
    for i in range(50):
        d, _ = nearest_singular(s, pts[i])
        assert abs(batch[i] - d) < 1e-12, f"row {i}: {batch[i]} vs {d}"


_NEAREST_CASES = {
    "planar_pair": SingularSet(base=((1.0, 0.0), (-1.0, 0.0)), m=2, n=0),
    "duplicated_base": SingularSet(
        base=((0.3, -0.8), (0.3, -0.8), (1.0, 0.5)), m=2, n=0),
    "lattice": SingularSet(base=((1.0, 0.3), (-0.2, 0.9)), m=1, n=1),
    "single_point": SingularSet(base=((2.0,),), m=1, n=0),
}


@pytest.mark.parametrize("name", sorted(_NEAREST_CASES))
def test_nearest_matches_one_pass_per_signed_base_point(name, rng):
    """One pass over the distinct points of +-base gives the distances of
    the pass per signed base point bit for bit, and the same witnesses,
    ties included (a zero coordinate of a negated base point is +0.0, as
    enumerate_planar lists it)."""
    s = _NEAREST_CASES[name]
    pts = rng.uniform(-8.0, 8.0, size=(300, s.dim))
    pts[:2] = 0.0  # equidistant from q and -q: the first candidate wins
    pts[2, 0] = 5.0
    want_d, want_w = reference_nearest_distances(s, pts)
    assert nearest_distances(s, pts).tobytes() == want_d.tobytes()
    for i in range(len(pts)):
        d, w = nearest_singular(s, pts[i])
        assert d == want_d[i] and np.array_equal(w, want_w[i]), i


def test_sigma_angle_coordinates_are_reduced():
    """Angle components of sigma points get a canonical value in [-pi, pi)."""
    m = ModelSpec(m=1, n=1, omega=1.0, nu=(0,),
                  metric=[[ex.const(1.0), ex.const(0.0)],
                          [ex.const(0.0), ex.const(1.0)]],
                  gyro=[ex.const(0.0), ex.const(0.0)],
                  potential=ex.const(0.0),
                  sigma_base=((0.5, 3.0 * math.pi),))
    assert m.sigma_base == ((0.5, -math.pi),)


def test_sigma_duplicates_dropped():
    m = ModelSpec(m=2, n=0, omega=1.0, nu=(),
                  metric=[[ex.const(1.0), ex.const(0.0)],
                          [ex.const(0.0), ex.const(1.0)]],
                  gyro=[ex.const(0.0), ex.const(0.0)],
                  potential=ex.const(0.0),
                  sigma_base=((1.0, 0.0), (1.0, 0.0)))
    assert m.sigma_base == ((1.0, 0.0),)


def test_metric_symmetrization():
    """Off-diagonal entries are averaged when given asymmetrically."""
    m = ModelSpec(m=2, n=0, omega=1.0, nu=(),
                  metric=[[ex.const(1.0), ex.const(2.0)],
                          [ex.const(4.0), ex.const(1.0)]],
                  gyro=[ex.const(0.0), ex.const(0.0)],
                  potential=ex.const(0.0))
    g12 = ex.evaluate(m.metric[0][1], 0.0, np.zeros(2))
    g21 = ex.evaluate(m.metric[1][0], 0.0, np.zeros(2))
    assert g12 == 3.0 and g21 == 3.0


def test_model_validation_rejects_bad_shapes():
    eye = [[ex.const(1.0), ex.const(0.0)], [ex.const(0.0), ex.const(1.0)]]
    zero2 = [ex.const(0.0), ex.const(0.0)]
    with pytest.raises(ModelError):
        ModelSpec(m=0, n=0, omega=1.0, nu=(), metric=[],
                  gyro=[], potential=ex.const(0.0))
    with pytest.raises(ModelError):
        ModelSpec(m=2, n=0, omega=-1.0, nu=(), metric=eye,
                  gyro=zero2, potential=ex.const(0.0))
    with pytest.raises(ModelError):
        ModelSpec(m=2, n=0, omega=1.0, nu=(1,), metric=eye,
                  gyro=zero2, potential=ex.const(0.0))
    with pytest.raises(ModelError):
        ModelSpec(m=2, n=0, omega=1.0, nu=(), metric=[[ex.const(1.0)]],
                  gyro=zero2, potential=ex.const(0.0))
    with pytest.raises(ModelError):
        ModelSpec(m=2, n=0, omega=1.0, nu=(), metric=eye,
                  gyro=zero2, potential=ex.parse("z3", 3))
    with pytest.raises(ModelError):
        ModelSpec(m=2, n=0, omega=1.0, nu=(), metric=eye, gyro=zero2,
                  potential=ex.const(0.0),
                  constraints=(Constraint(ex.parse("z1", 2), "odd"),
                               Constraint(ex.parse("z2", 2), "odd")))


def test_growth_constants_validation():
    with pytest.raises(ModelError):
        GrowthConstants(C=-1.0, M=0.0, A=0.0, K=0.5, P=0.0, C1=0.0)
    with pytest.raises(ModelError):
        GrowthConstants(C=0.0, M=0.0, A=0.0, K=0.0, P=0.0, C1=0.0)


def test_constraint_parity_tag_validation():
    with pytest.raises(ModelError):
        Constraint(ex.parse("z1", 1), "sideways")


def test_is_autonomous():
    assert is_autonomous(builtin("two_centers"))
    assert not is_autonomous(builtin("forced_oscillator"))


def test_with_omega_and_with_nu():
    m = builtin("tube_ball")
    m2 = with_omega(m, 2.5)
    assert m2.omega == 2.5 and m2.nu == m.nu
    m3 = with_nu(m, (4,))
    assert m3.nu == (4,) and m3.omega == m.omega


def test_counts_must_be_integers():
    """A count that int() would truncate (a fraction, a bool) is refused
    with an error naming the field; an integral float is accepted."""
    data = model_to_dict(builtin("tube_ball"))
    for name, bad in (("m", 1.7), ("n", True), ("nu", [1.5]),
                      ("nu", [False]), ("m", math.inf)):
        with pytest.raises(ModelError, match=f"field '{name}'"):
            model_from_dict({**data, name: bad})
    same = model_from_dict({**data, "m": 1.0, "n": 1.0, "nu": [1.0]})
    assert (same.m, same.n, same.nu) == (1, 1, (1,))
    assert all(type(v) is int for v in (same.m, same.n) + same.nu)
    m = builtin("tube_ball")
    with pytest.raises(ModelError, match="nu"):
        with_nu(m, (1.5,))
    with pytest.raises(ModelError, match="m"):
        ModelSpec(m=1.2, n=1, omega=1.0, nu=(1,), metric=m.metric,
                  gyro=m.gyro, potential=m.potential)


def test_json_round_trip_evaluates_identically(rng):
    """Serialize, rebuild, and compare every expression on random points."""
    m = builtin("tube_ball", m=2.0, J=0.5, g=3.0, omega=0.8, nu=(2,))
    m2 = model_from_dict(model_to_dict(m))
    assert (m2.m, m2.n, m2.omega, m2.nu) == (m.m, m.n, m.omega, m.nu)
    assert m2.constants == m.constants
    for _ in range(25):
        t = float(rng.uniform(-1.0, 1.0))
        z = rng.uniform(-2.0, 2.0, size=2)
        for i in range(2):
            for j in range(2):
                a = ex.evaluate(m.metric[i][j], t, z)
                b = ex.evaluate(m2.metric[i][j], t, z)
                assert abs(a - b) <= 1e-14 * (1 + abs(a))
        a = ex.evaluate(m.potential, t, z)
        b = ex.evaluate(m2.potential, t, z)
        assert abs(a - b) <= 1e-14 * (1 + abs(a))


def test_json_dict_is_stable():
    """to_dict(from_dict(d)) == d: the serialized form is canonical."""
    d = model_to_dict(builtin("two_centers", gamma=2.0))
    assert model_to_dict(model_from_dict(d)) == d


def test_save_load_file(tmp_path):
    path = tmp_path / "model.json"
    m = builtin("surface_slide", gamma=0.5)
    save_model(m, path)
    m2 = load_model(path)
    assert model_to_dict(m2) == model_to_dict(m)
    raw = path.read_text(encoding="utf-8")
    assert raw == json.dumps(model_to_dict(m), sort_keys=True, indent=2) + "\n"


def test_model_from_dict_reports_bad_field():
    with pytest.raises(ModelError, match="missing field 'n'"):
        model_from_dict({"m": 1})
    with pytest.raises(ModelError, match="JSON object"):
        model_from_dict([])
    data = model_to_dict(builtin("tube_ball"))
    for name, bad in (("metric", 5), ("constants", [1.0]), ("nu", 1),
                      ("constraints", [5]), ("omega", "fast")):
        with pytest.raises(ModelError, match=f"field '{name}'"):
            model_from_dict({**data, name: bad})
