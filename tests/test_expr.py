"""Expression parsing, evaluation, and symbolic differentiation."""

import math

import numpy as np
import pytest

from minact import expr as ex
from conftest import reference_evaluate


def test_parse_power_and_sin():
    """Standard precedence: ^ binds before * and +."""
    e = ex.parse("z1^2 + sin(t)", 2)
    assert ex.evaluate(e, 0.0, np.array([3.0, 0.0])) == 9.0
    v = ex.evaluate(e, math.pi / 2, np.array([0.0, 5.0]))
    assert abs(v - 1.0) < 1e-15, f"sin(pi/2) contribution wrong: {v}"


def test_parse_two_center_term():
    """1/((z1-1)^2 + z2^2) parses and evaluates like the handwritten form."""
    e = ex.parse("1/((z1-1)^2 + z2^2)", 2)
    z = np.array([0.25, -0.5])
    want = 1.0 / ((0.25 - 1.0) ** 2 + 0.25)
    assert abs(ex.evaluate(e, 0.0, z) - want) < 1e-15


def test_parse_out_of_range_variable():
    """z3 does not exist in a 2-coordinate model."""
    with pytest.raises(ex.ParseError):
        ex.parse("z3 + 1", 2)


def test_parse_syntax_error_position():
    with pytest.raises(ex.ParseError):
        ex.parse("z1 + * 2", 1)


def test_parse_unknown_identifier():
    with pytest.raises(ex.ParseError):
        ex.parse("foo(z1)", 1)


def test_eval_product():
    e = ex.parse("z1*z2", 2)
    assert ex.evaluate(e, 0.0, np.array([3.0, 4.0])) == 12.0


def test_eval_division_by_zero_is_domain_error():
    e = ex.parse("1/z1", 1)
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(e, 0.0, np.array([0.0]))


def test_eval_log_sqrt_domain_errors():
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(ex.parse("log(z1)", 1), 0.0, np.array([-1.0]))
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(ex.parse("sqrt(z1)", 1), 0.0, np.array([-4.0]))


def test_eval_sin_t():
    e = ex.parse("sin(t)", 1)
    assert abs(ex.evaluate(e, math.pi / 2, np.array([0.0])) - 1.0) < 1e-15


def test_eval_vectorized_matches_scalar():
    """Array evaluation agrees with the scalar path pointwise."""
    e = ex.parse("sin(z1)*cos(t) + z2^3/(1+z1^2)", 2)
    rng = np.random.default_rng(3)
    t = rng.normal(size=40)
    z = rng.normal(size=(40, 2))
    vals = ex.evaluate(e, t, z)
    for i in range(40):
        want = ex.evaluate(e, float(t[i]), z[i])
        assert abs(vals[i] - want) <= 1e-15 * (1 + abs(want)), \
            f"row {i}: {vals[i]} vs {want}"


def test_differentiate_square():
    """d/dz1 z1^2 = 2 z1."""
    d = ex.differentiate(ex.parse("z1^2", 1), 1)
    for x in (-2.0, 0.5, 3.0):
        assert abs(ex.evaluate(d, 0.0, np.array([x])) - 2 * x) < 1e-14


def test_differentiate_inverse_square_chain_rule():
    """d/dz1 ((z1-1)^2+z2^2)^(-1) = -2(z1-1) * ((z1-1)^2+z2^2)^(-2)."""
    e = ex.parse("((z1-1)^2 + z2^2)^(-1)", 2)
    d = ex.differentiate(e, 1)
    z = np.array([0.3, 0.4])
    q = (0.3 - 1.0) ** 2 + 0.4 ** 2
    want = -2.0 * (0.3 - 1.0) / q ** 2
    got = ex.evaluate(d, 0.0, z)
    assert abs(got - want) < 1e-13, f"chain rule value {got} != {want}"


def test_differentiate_time_of_coordinate_is_zero():
    d = ex.differentiate(ex.parse("z1", 1), 0)
    assert ex.evaluate(d, 1.23, np.array([4.0])) == 0.0


def test_differentiate_linearity():
    """Derivative of a sum equals the sum of derivatives, node for node."""
    e1 = ex.parse("sin(z1)*t", 1)
    e2 = ex.parse("z1^3", 1)
    d_sum = ex.differentiate(ex.add(e1, e2), 1)
    summed = ex.add(ex.differentiate(e1, 1), ex.differentiate(e2, 1))
    assert d_sum == summed


def test_round_trip_parse_print():
    """parse(to_text(e)) reproduces the tree for a mixed expression."""
    texts = [
        "z1^2 + sin(t)",
        "1/((z1-1)^2 + z2^2)",
        "-z1*cos(t) - (z2 - 1)^(-2)",
        "exp(-z1^2)*log(1 + z2^2)",
        "t*z1/(2 + sin(z2))",
    ]
    for s in texts:
        e = ex.parse(s, 2)
        again = ex.parse(ex.to_text(e), 2)
        assert again == e, f"round trip changed {s!r}: {ex.to_text(e)!r}"


def test_derivative_matches_finite_difference():
    """1000 random well-scaled expressions pass a central-difference check."""
    rng = np.random.default_rng(42)
    h = 1e-5
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, depth=3)
        var = int(rng.integers(0, 3))  # 0 = t, 1..2 = coordinates
        d = ex.differentiate(e, var)
        t0 = float(rng.uniform(-1.0, 1.0))
        z0 = rng.uniform(-1.0, 1.0, size=2)
        try:
            tp, tm = list(z0), list(z0)
            if var == 0:
                up = ex.evaluate(e, t0 + h, z0)
                dn = ex.evaluate(e, t0 - h, z0)
            else:
                tp[var - 1] += h
                tm[var - 1] -= h
                up = ex.evaluate(e, t0, np.array(tp))
                dn = ex.evaluate(e, t0, np.array(tm))
            got = ex.evaluate(d, t0, z0)
            val = ex.evaluate(e, t0, z0)
        except ex.EvalDomainError:
            continue
        fd = (up - dn) / (2 * h)
        if abs(fd) > 1e3:  # step too coarse near a pole; resample
            continue
        assert abs(got - fd) <= 1e-6 * (1 + abs(val)) + 1e-6 * abs(got), \
            f"derivative mismatch: sym {got}, fd {fd}, expr {ex.to_text(e)}"
        checked += 1


def _random_expr(rng, depth):
    """Small random tree over t, z1, z2 with tame constants."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return ex.const(float(rng.uniform(-2.0, 2.0)))
        if r < 0.6:
            return ex.t_var()
        return ex.var(int(rng.integers(1, 3)))
    op = rng.integers(0, 6)
    if op == 0:
        return ex.add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if op == 1:
        return ex.sub(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if op == 2:
        return ex.mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if op == 3:
        # keep the denominator away from zero
        return ex.div(_random_expr(rng, depth - 1),
                      ex.add(ex.const(2.0 + float(rng.random())),
                             ex.mul(_random_expr(rng, depth - 1),
                                    _random_expr(rng, depth - 1))))
    if op == 4:
        return ex.sin(_random_expr(rng, depth - 1))
    return ex.power(ex.add(ex.const(1.5), ex.mul(
        _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))),
        float(rng.choice([-2.0, -1.0, 2.0, 3.0])))


def test_second_derivative_is_exact_tree():
    """Differentiating twice gives the analytic second derivative."""
    e = ex.parse("sin(z1)^2", 1)
    d2 = ex.differentiate(ex.differentiate(e, 1), 1)
    for x in np.linspace(-1.5, 1.5, 7):
        want = 2 * math.cos(2 * x)
        got = ex.evaluate(d2, 0.0, np.array([float(x)]))
        assert abs(got - want) < 1e-12, f"d2 sin^2 at {x}: {got} vs {want}"


def test_constant_negative_base_fractional_power_is_domain_error():
    e = ex.power(ex.var(1), 0.5)
    with pytest.raises(ex.EvalDomainError):
        ex.evaluate(e, 0.0, np.array([-2.0]))


def test_eval_overflow_is_domain_error_naming_the_subtree():
    """exp and power overflow raise EvalDomainError on the overflowing
    subtree, not on the whole expression."""
    for text, message, subtree in (
            ("z1 + exp(z1^2)", "exp overflow", "exp(z1^2)"),
            ("1 + (2*z1)^400", "power overflow", "(2*z1)^400")):
        e = ex.parse(text, 1)
        with pytest.raises(ex.EvalDomainError) as err:
            ex.evaluate(e, 0.0, np.array([30.0]))
        assert err.value.node == ex.parse(subtree, 1)
        assert str(err.value) == f"{message} in subexpression '{subtree}'"


def test_to_text_negative_exponent_parses_back():
    e = ex.power(ex.var(1), -2.0)
    assert ex.parse(ex.to_text(e), 1) == e


# ---------------------------------------------------------------------------
# compiled tapes


def test_tape_matches_evaluate_on_random_trees():
    """One tape over many trees gives every root bit for bit."""
    rng = np.random.default_rng(11)
    roots = [_random_expr(rng, 4) for _ in range(40)]
    roots += [ex.differentiate(e, 1) for e in roots]
    t = rng.normal(size=50)
    z = rng.normal(size=(50, 2))
    tape = ex.compile(roots)
    for e, got in zip(roots, tape.run(t, z)):
        assert np.array_equal(got, reference_evaluate(e, t, z)), \
            ex.to_text(e)
        assert np.array_equal(got, ex.evaluate(e, t, z)), ex.to_text(e)
    # shared subtrees are computed once
    assert len(tape) < sum(len(ex.compile([e])) for e in roots)


def test_evaluate_is_the_tree_walk_on_scalars_and_errors():
    """evaluate, a one-root tape, equals the tree walk at scalar points and
    names the same subtree with the same message when it fails."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        e = _random_expr(rng, 4)
        t0, z0 = float(rng.normal()), rng.normal(size=2)
        got = ex.evaluate(e, t0, z0)
        assert isinstance(got, float)
        assert got == reference_evaluate(e, t0, z0), ex.to_text(e)
    for text, z0 in (("z2 + log(z1)*sqrt(z2)", [-1.0, 3.0]),
                     ("z2/(z1 - 1)", [1.0, 2.0]),
                     ("sin(t) + (z1 - z2)^0.5", [0.0, 1.0])):
        e = ex.parse(text, 2)
        with pytest.raises(ex.EvalDomainError) as want:
            reference_evaluate(e, 0.5, z0)
        with pytest.raises(ex.EvalDomainError) as got:
            ex.evaluate(e, 0.5, z0)
        assert got.value.node == want.value.node
        assert str(got.value) == str(want.value)


def test_tape_domain_error_matches_evaluate():
    """A failing instruction raises what a tree walk raises on its tree."""
    t = np.zeros(3)
    z = np.array([[1.0, 1.0], [0.0, 2.0], [-1.0, 3.0]])
    e = ex.parse("z2 + log(z1)*sqrt(z2)", 2)
    with pytest.raises(ex.EvalDomainError) as want:
        reference_evaluate(e, t, z)
    with pytest.raises(ex.EvalDomainError) as got:
        ex.compile([ex.parse("z2^2", 2), e]).run(t, z)
    assert got.value.node == want.value.node == ex.parse("log(z1)", 2)
    assert str(got.value) == str(want.value)


def test_tape_reports_the_first_failure_in_root_order():
    """With two failing roots, the one a tree walk reaches first is named."""
    root_sqrt, root_log = ex.parse("sqrt(z2)", 2), ex.parse("log(z1)", 2)
    tape = ex.compile([root_sqrt, root_log])
    t, z = np.zeros(1), np.array([[-1.0, -1.0]])
    with pytest.raises(ex.EvalDomainError) as first:
        tape.run(t, z)
    assert first.value.node == root_sqrt
    with pytest.raises(ex.EvalDomainError) as swapped:
        tape.select([1, 0]).run(t, z)
    assert swapped.value.node == root_log
    # a selection computes only what its roots reach
    (value,) = tape.select([1]).run(t, np.array([[1.0, -1.0]]))
    assert value.tolist() == [0.0]


def test_tape_keeps_signed_zeros_apart():
    """Const(0.0) == Const(-0.0), but the two must not share a slot."""
    pos = ex.Binary("*", ex.Const(0.0), ex.Var(1))
    neg = ex.Binary("*", ex.Const(-0.0), ex.Var(1))
    assert pos == neg
    tape = ex.compile([pos, neg])
    assert len(tape) == 5  # z1, 0.0, -0.0 and both products
    z = np.array([[1.0], [2.0]])
    got_pos, got_neg = tape.run(np.zeros(2), z)
    assert not np.any(np.signbit(got_pos))
    assert np.all(np.signbit(got_neg))
    assert np.array_equal(np.signbit(got_neg),
                          np.signbit(reference_evaluate(neg, np.zeros(2), z)))


def test_tape_shares_commuted_sums_and_products():
    """a*b and b*a, and a+b and b+a, share one slot and give the tree
    walk's bits; a-b and b-a do not.  A shared checked node keeps the
    node interned first, the one a walk of the roots in order reaches
    first, so the error names it."""
    texts = ("z1*z2", "z2*z1", "z1 + z2", "z2 + z1", "z1 - z2", "z2 - z1")
    roots = [ex.parse(text, 2) for text in texts]
    tape = ex.compile(roots)
    assert len(tape) == 6  # z1, z2, one product, one sum, two differences
    rng = np.random.default_rng(13)
    t, z = rng.normal(size=20), rng.normal(size=(20, 2))
    for e, got in zip(roots, tape.run(t, z)):
        assert np.array_equal(got, reference_evaluate(e, t, z)), \
            ex.to_text(e)
    first, second = ex.parse("log(z1*z2)", 2), ex.parse("log(z2*z1)", 2)
    z = np.array([[1.0, -1.0]])
    for roots in ([first, second], [second, first]):
        tape = ex.compile(roots)
        assert len(tape) == 4
        with pytest.raises(ex.EvalDomainError) as err:
            tape.run(np.zeros(1), z)
        assert err.value.node == roots[0]
        assert str(err.value).endswith(f"'{ex.to_text(roots[0])}'")


# ---------------------------------------------------------------------------
# checked kernels


def _check_first_kernels():
    """The checked kernels as they were before they checked only on a
    non-finite result: every check runs before the value is computed.
    The references the result-first kernels must equal; the power kernel
    tests integrality with float(c).is_integer(), as round(c) fails for an
    infinite exponent."""

    def exp_(e, a):
        with np.errstate(over="ignore"):
            v = np.exp(a)
        if not np.isfinite(v).all():
            raise ex.EvalDomainError("exp overflow", e)
        return v

    def log_(e, a):
        if (np.asarray(a) <= 0.0).any():
            raise ex.EvalDomainError("log of nonpositive value", e)
        return np.log(a)

    def sqrt_(e, a):
        if (np.asarray(a) < 0.0).any():
            raise ex.EvalDomainError("sqrt of negative value", e)
        return np.sqrt(a)

    def divide_(e, a, b):
        if (np.asarray(b) == 0.0).any():
            raise ex.EvalDomainError("division by zero", e)
        return a / b

    def power_(e, a):
        a = np.asarray(a)
        c = e.exponent
        if not float(c).is_integer() and (a < 0.0).any():
            raise ex.EvalDomainError(
                "negative base under fractional power", e)
        if c < 0 and (a == 0.0).any():
            raise ex.EvalDomainError("zero base under negative power", e)
        with np.errstate(over="ignore", divide="ignore"):
            v = a ** c
        if not np.isfinite(v).all():
            raise ex.EvalDomainError("power overflow", e)
        return v

    return {ex._exp: exp_, ex._log: log_, ex._sqrt: sqrt_,
            ex._divide: divide_, ex._power: power_}


def _outcome(kernel, e, *args):
    """("value", bits and shape) or ("error", type, message, node) of one
    kernel call under the tape's errstate."""
    try:
        with np.errstate(all="ignore"):
            v = kernel(e, *args)
    except ex.EvalDomainError as err:
        return "error", type(err), str(err), err.node
    v = np.asarray(v, dtype=float)
    return "value", v.shape, v.tobytes()


def test_checked_kernels_equal_check_first_kernels():
    """On signed zeros, negatives, nan, inf, huge values and Python-float
    operands, every checked kernel returns the bits the check-first kernel
    returns, or raises the same error with the same message and node."""
    special = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 1e200, -1e200,
               700.0, 710.0, math.nan, math.inf, -math.inf]
    arrays = [np.array([v, 1.5]) for v in special] + [np.array(special)]
    # Python floats as well as arrays, as constant leaves give
    operands = special + arrays
    x = ex.var(1)
    checked = 0
    for kernel, reference in _check_first_kernels().items():
        if kernel is ex._divide:
            e = ex.Binary("/", x, ex.var(2))
            calls = [(a, b) for a in operands for b in operands
                     if np.ndim(a) == 0 or np.ndim(b) == 0
                     or np.shape(a) == np.shape(b)]
            calls = [(e, a, b) for a, b in calls]
        elif kernel is ex._power:
            calls = [(ex.Power(x, c), a) for a in operands
                     for c in (2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1.5, -0.75,
                               400.0, 0.0, math.inf, -math.inf, math.nan)]
        else:
            op = {ex._exp: "exp", ex._log: "log", ex._sqrt: "sqrt"}[kernel]
            calls = [(ex.Unary(op, x), a) for a in operands]
        for args in calls:
            assert _outcome(kernel, *args) == _outcome(reference, *args), \
                (kernel.__name__, args)
            checked += 1
    assert checked > 1000


def test_non_finite_number_literal_is_a_parse_error():
    """1e999 reads as inf: the parser refuses it, and a Power node with an
    infinite exponent is a domain error, not an OverflowError."""
    for text in ("z1^1e999", "1e999*z1", "z1 - 2e400"):
        with pytest.raises(ex.ParseError, match="out of range"):
            ex.parse(text, 1)
    e = ex.Power(ex.var(1), math.inf)
    assert ex.evaluate(e, 0.0, [0.5]) == 0.0
    with pytest.raises(ex.EvalDomainError, match="fractional power"):
        ex.evaluate(e, 0.0, [-0.5])
