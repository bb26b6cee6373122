"""The Record contract: minact's value classes behave as frozen
dataclasses (construction, validation, equality, hashing, printing,
immutability), and pickle and deep-copy as their field values."""

import copy
import pickle

import numpy as np
import pytest

from minact import expr as ex
from minact.model import (Constraint, GrowthConstants, ModelError,
                          SingularSet)
from minact.optimize import OptimizeError, SolveOptions, SolveResult
from minact.trajectory import (FourierTrajectory, HomotopySignature,
                               PoincareBounds, SampledPath, TrajectoryError)
from minact.verify import (HypothesisReport, ResidualReport, SamplerOptions,
                           VerifyError)
from conftest import TWO_PI

X, Y = ex.Var(1), ex.Var(2)
TRAJ = FourierTrajectory(TWO_PI, (), [[0.5, 0.0]])

# class -> (field values of a fixed instance, the repr a frozen dataclass
# with the same fields prints for it, keyword overrides its validation
# rejects and the error)
CASES = {
    ex.Const: ((1.5,), "Const(value=1.5)", None),
    ex.Var: ((2,), "Var(index=2)", None),
    ex.Unary: (("sin", X), "Unary(op='sin', arg=Var(index=1))", None),
    ex.Binary: (("-", Y, ex.Const(2.0)),
                "Binary(op='-', lhs=Var(index=2), rhs=Const(value=2.0))",
                None),
    ex.Power: ((X, -2.0), "Power(base=Var(index=1), exponent=-2.0)", None),
    GrowthConstants: (
        (1.0, 0.0, 0.5, 0.5, 0.0, 2.0),
        "GrowthConstants(C=1.0, M=0.0, A=0.5, K=0.5, P=0.0, C1=2.0)",
        ({"K": 0.0}, ModelError)),
    Constraint: (
        (ex.Binary("-", Y, X), "odd"),
        "Constraint(f=Binary(op='-', lhs=Var(index=2), rhs=Var(index=1)), "
        "parity='odd')",
        ({"parity": "none"}, ModelError)),
    SingularSet: ((((1.0, 0.0),), 2, 0),
                  "SingularSet(base=((1.0, 0.0),), m=2, n=0)", None),
    FourierTrajectory: (
        (TWO_PI, (1,), np.array([[0.5, 0.0]])),
        "FourierTrajectory(omega=6.283185307179586, nu=(1,), "
        "coeffs=array([[0.5, 0. ]]))",
        ({"omega": 0.0}, TrajectoryError)),
    SampledPath: (((0.0, 1.0), (1.0, 2.0), (3.0, 4.0), None),
                  "SampledPath(t=(0.0, 1.0), z=(1.0, 2.0), dz=(3.0, 4.0), "
                  "ddz=None)", None),
    HomotopySignature: (
        ({(1.0, 0.0): -1, (-1.0, -0.0): 1}, 0.25, 3.5),
        "HomotopySignature(windings={(1.0, 0.0): -1, (-1.0, -0.0): 1}, "
        "min_distance=0.25, clearance_integral=3.5)", None),
    PoincareBounds: (
        (1.0, 2.0, 3.0, 4.0, True, False),
        "PoincareBounds(lhs_l2=1.0, lhs_sup=2.0, rhs_l2=3.0, rhs_sup=4.0, "
        "holds_l2=True, holds_sup=False)", None),
    SolveOptions: (
        (8, 64, 100, 1e-10, 0.001),
        "SolveOptions(N=8, M=64, max_iters=100, grad_tol=1e-10, "
        "guard_delta=0.001)",
        ({"M": 16}, OptimizeError)),
    SolveResult: (
        (TRAJ, "Converged", None, [{"iter": 0}], None, None),
        "SolveResult(trajectory=FourierTrajectory(omega=6.283185307179586, "
        "nu=(), coeffs=array([[0.5, 0. ]])), status='Converged', "
        "report=None, history=[{'iter': 0}], signature=None, "
        "multipliers=None)", None),
    SamplerOptions: ((50, 2.0, 7),
                     "SamplerOptions(count=50, box_radius=2.0, rng_seed=7)",
                     ({"count": 0}, VerifyError)),
    HypothesisReport: (
        ({"V": True}, True, True, False, True, 0.5, -1.0, False, ["bound_V"],
         {}, []),
        "HypothesisReport(parity_ok={'V': True}, bound_g_ok=True, "
        "bound_a_ok=True, bound_V_ok=False, rank_ok=True, rank_min_sv=0.5, "
        "margin=-1.0, overall=False, violated=['bound_V'], witnesses={}, "
        "warnings=[])", None),
    ResidualReport: (
        (1e-9, 2e-9, None, 0.0, 0.0, None, 0.75, 4.0, False),
        "ResidualReport(el_sup=1e-09, el_l2=2e-09, multipliers=None, "
        "constraint_sup=0.0, constraint_rate_sup=0.0, energy_drift=None, "
        "min_distance=0.75, clearance_integral=4.0, gram_warning=False)",
        None),
}
CLASSES = list(CASES)
# a FourierTrajectory, and so a record that holds one, equals only itself
EQUAL_COPIES = [cls for cls in CLASSES
                if cls not in (FourierTrajectory, SolveResult)]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def _same(a, b) -> bool:
    """Equal classes and fields; arrays compared by their values."""
    return type(a) is type(b) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
        for u, v in zip(_fields(a), _fields(b)))


def _with(record, name, value):
    """A copy of record with one field replaced, bypassing validation."""
    other = type(record).__new__(type(record))
    for field, v in zip(record._fields, _fields(record)):
        object.__setattr__(other, field, value if field == name else v)
    return other


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_positional_keyword_and_defaults(cls):
    """Fields in order, by position or by keyword; omitted trailing fields
    take their defaults."""
    values, _, _ = CASES[cls]
    assert len(values) == len(cls._fields)
    a = cls(*values)
    assert _same(a, cls(**dict(zip(cls._fields, values))))
    for name, value in zip(cls._fields, values):
        got = getattr(a, name)
        assert (np.array_equal(got, value) if isinstance(got, np.ndarray)
                else got == value), name
    required = len(cls._fields) - len(cls._defaults)
    assert list(cls._defaults) == list(cls._fields[required:])
    assert _same(cls(*values[:required]),
                 cls(*values[:required], *cls._defaults.values()))


def test_default_values():
    assert SolveOptions() == SolveOptions(32, 256, 2000, 1e-8, 1e-3)
    assert SolveOptions(N=8).M == 64  # M = 0 means 8 N
    assert SamplerOptions() == SamplerOptions(200, 5.0, 0)
    values = CASES[ResidualReport][0]
    assert ResidualReport(*values[:-1]).gram_warning is False
    assert SolveResult(*CASES[SolveResult][0][:4]).signature is None


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_argument_errors(cls):
    """Missing, surplus, unknown and repeated arguments raise TypeError,
    as a dataclass constructor did."""
    values, _, _ = CASES[cls]
    required = len(cls._fields) - len(cls._defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})


@pytest.mark.parametrize("cls", [c for c in CLASSES if CASES[c][2]],
                         ids=lambda c: c.__name__)
def test_validation_errors(cls):
    values, _, (bad, error) = CASES[cls]
    with pytest.raises(error):
        cls(**{**dict(zip(cls._fields, values)), **bad})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash(cls):
    """== and hash by the field tuple when the classes match; a
    FourierTrajectory is equal only to itself and hashes by identity."""
    values, _, _ = CASES[cls]
    a, b = cls(*values), cls(*values)
    assert a == a and not a != a
    assert a != tuple(values) and a != object()
    if cls is FourierTrajectory:
        assert a != b and hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    assert a != _with(a, cls._fields[-1], object())
    try:
        want = hash(tuple(values))
    except TypeError:  # a dict or list field: unhashable, as before
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_string(cls):
    values, text, _ = CASES[cls]
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_assignment_and_deletion_raise(cls):
    a = cls(*CASES[cls][0])
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    assert repr(a) == CASES[cls][1]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    """Copies are built by calling the class on the field values, so a
    slotted, frozen record survives pickle, deepcopy and copy."""
    a = cls(*CASES[cls][0])
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a),
                 copy.copy(a)):
        assert type(twin) is cls and repr(twin) == repr(a)
        if cls in EQUAL_COPIES:
            assert twin == a
    if cls is FourierTrajectory:
        twin = copy.deepcopy(a)
        assert not twin.coeffs.flags.writeable and twin._memo == {}
