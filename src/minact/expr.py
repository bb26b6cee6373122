"""Scalar expression trees in the time variable t and coordinates z1..zD.

Model data (metric entries, gyroscopic components, potential, constraint
functions) is stored as small expression trees.  The same trees are evaluated
pointwise on arrays of quadrature nodes and differentiated symbolically, so
the derivative of any model quantity is again a tree that evaluates exactly.
Second derivatives are obtained by differentiating twice.

The grammar (documented in docs/expr-grammar.md) supports +, -, *, /, ^ with
a constant exponent, the functions sin, cos, exp, log, sqrt, unary minus,
parentheses, the constant pi, and the variables t, z1..zD.  There is no abs,
sign, min or max: all admissible model data must be twice continuously
differentiable, and those functions are not.

Evaluation refuses to return non-finite numbers silently: division by zero,
log or sqrt of a nonpositive argument, and overflow raise EvalDomainError
carrying the offending subtree.

compile hash-conses many trees into one Tape that computes every distinct
subtree once per node array; evaluate is the Tape of a single tree.
minact.kernel turns a tape into one generated straight-line NumPy
function for callers that run the same tape many times.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np

__all__ = [
    "Record", "Expr", "Const", "Var", "Unary", "Binary", "Power",
    "ExprError", "ParseError", "EvalDomainError",
    "Tape", "parse", "evaluate", "compile", "differentiate", "to_text",
    "const", "var", "t_var", "add", "sub", "mul", "div", "neg", "power",
    "sin", "cos", "exp", "log", "sqrt",
    "max_var_index", "references_time",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Raised on malformed expression text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExprError):
    """Raised when evaluation leaves the real domain (1/0, log(-1), ...)."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in subexpression '{to_text(node)}'")
        self.node = node


class Record:
    """Immutable value with the semantics of a frozen dataclass, without
    the code generation of @dataclass, which costs about half a
    millisecond per class on every import.

    A subclass names its fields in order in _fields and the defaults of
    trailing ones in _defaults.  The generic __init__ takes the fields
    positionally or by keyword, then calls __post_init__, which may check
    and normalize them (with object.__setattr__).  Instances compare equal
    and hash by their field tuple when their classes match, print as a
    dataclass prints, refuse assignment and deletion, and pickle and copy
    by calling the class on their field values.  A class built in inner
    loops declares __slots__ and its own __init__.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__qualname__}() got an unexpected or "
                                f"repeated argument {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                value = values[name]
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument "
                                f"{name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def _asdict(self) -> dict:
        """{field: value}, the values themselves, not copies."""
        return dict(zip(self._fields, self._values()))


class Expr(Record):
    """Base node.  Concrete nodes are Const, Var, Unary, Binary, Power:
    slotted Records with their own constructors, as the smart
    constructors and differentiate build them in bulk."""

    __slots__ = ()


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Var(Expr):
    # index 0 is the time variable t, index d >= 1 is the coordinate z^d
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Unary(Expr):
    __slots__ = _fields = ("op", "arg")

    def __init__(self, op: str, arg: Expr):
        object.__setattr__(self, "op", op)  # one of: neg sin cos exp log sqrt
        object.__setattr__(self, "arg", arg)


class Binary(Expr):
    __slots__ = _fields = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        object.__setattr__(self, "op", op)  # one of: + - * /
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Power(Expr):
    # exponent is a literal real constant, which keeps d/dz u^c = c*u^(c-1)*u'
    # closed-form for the singular-potential terms |z - s|^(-n)
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: float):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


# ---------------------------------------------------------------------------
# smart constructors (constant folding and 0/1 identities; best effort only)
# ---------------------------------------------------------------------------


def const(value: float) -> Const:
    return Const(float(value))


def var(d: int) -> Var:
    if d < 1:
        raise ValueError("coordinate index must be >= 1")
    return Var(d)


def t_var() -> Var:
    return Var(0)


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    return Binary("/", a, b)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def power(base: Expr, exponent: float) -> Expr:
    exponent = float(exponent)
    if exponent == 0.0:
        return ONE
    if exponent == 1.0:
        return base
    if _is_const(base):
        folded = _pow_value(base.value, exponent)
        if folded is not None:
            return Const(folded)
    return Power(base, exponent)


def _pow_value(base: float, exponent: float) -> float | None:
    # fold only when the result is a finite real; otherwise keep the node so
    # evaluation reports a proper domain error
    try:
        v = base ** exponent
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    if isinstance(v, complex) or not math.isfinite(v):
        return None
    return v


def _unary(op: str, a: Expr) -> Expr:
    if _is_const(a):
        try:
            v = getattr(math, op)(a.value)
            if math.isfinite(v):
                return Const(v)
        except (ValueError, OverflowError):
            pass
    return Unary(op, a)


def sin(a: Expr) -> Expr:
    return _unary("sin", a)


def cos(a: Expr) -> Expr:
    return _unary("cos", a)


def exp(a: Expr) -> Expr:
    return _unary("exp", a)


def log(a: Expr) -> Expr:
    return _unary("log", a)


def sqrt(a: Expr) -> Expr:
    return _unary("sqrt", a)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_NUM_CHARS = set("0123456789.")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str | float, int]] = []
        self._scan()
        self.cursor = 0

    def _scan(self) -> None:
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^(),":
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c in _NUM_CHARS:
                j = i
                while j < n and text[j] in _NUM_CHARS:
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                try:
                    value = float(text[i:j])
                except ValueError:
                    raise ParseError(f"bad number '{text[i:j]}'", i)
                if not math.isfinite(value):
                    raise ParseError(
                        f"number '{text[i:j]}' is out of range", i)
                self.tokens.append(("num", value, i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character '{c}'", i)
        self.tokens.append(("end", "", n))

    def peek(self) -> tuple[str, str | float, int]:
        return self.tokens[self.cursor]

    def next(self) -> tuple[str, str | float, int]:
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok


_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}


class _Parser:
    """Recursive descent with precedence ^  >  unary -  >  * /  >  + -."""

    def __init__(self, text: str, dim: int):
        self.toks = _Tokenizer(text)
        self.dim = dim

    def parse(self) -> Expr:
        e = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token '{kind}'", pos)
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.next()
                e = add(e, self._term())
            elif kind == "-":
                self.toks.next()
                e = sub(e, self._term())
            else:
                return e

    def _term(self) -> Expr:
        e = self._unary()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "*":
                self.toks.next()
                e = mul(e, self._unary())
            elif kind == "/":
                self.toks.next()
                e = div(e, self._unary())
            else:
                return e

    def _unary(self) -> Expr:
        kind, _, _ = self.toks.peek()
        if kind == "-":
            self.toks.next()
            return neg(self._unary())
        if kind == "+":
            self.toks.next()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        kind, _, pos = self.toks.peek()
        if kind != "^":
            return base
        self.toks.next()
        exponent = self._unary()  # allows z1^-2 and z1^(1/2)
        if not isinstance(exponent, Const):
            raise ParseError("exponent must reduce to a numeric constant", pos)
        return power(base, exponent.value)

    def _atom(self) -> Expr:
        kind, value, pos = self.toks.next()
        if kind == "num":
            return Const(float(value))
        if kind == "(":
            e = self._expr()
            k, _, p = self.toks.next()
            if k != ")":
                raise ParseError("expected ')'", p)
            return e
        if kind == "ident":
            name = str(value)
            nk, _, _ = self.toks.peek()
            if nk == "(":
                fn = _FUNCTIONS.get(name)
                if fn is None:
                    raise ParseError(f"unknown function '{name}'", pos)
                self.toks.next()
                arg = self._expr()
                k, _, p = self.toks.next()
                if k != ")":
                    raise ParseError("expected ')'", p)
                return fn(arg)
            if name == "t":
                return Var(0)
            if name == "pi":
                return Const(math.pi)
            if name.startswith("z") and name[1:].isdigit():
                d = int(name[1:])
                if not 1 <= d <= self.dim:
                    raise ParseError(
                        f"variable {name} out of range (dim = {self.dim})", pos)
                return Var(d)
            raise ParseError(f"unknown identifier '{name}'", pos)
        raise ParseError(f"unexpected token '{kind}'", pos)


def parse(text: str, dim: int) -> Expr:
    """Parse expression text over variables t, z1..z{dim} into a tree.

    Parameters
    ----------
    text : str
        Expression source, e.g. ``"1/((z1-1)^2 + z2^2)"``.
    dim : int
        Number of coordinates; variables z1..z{dim} are in scope.

    Returns
    -------
    Expr
        Root of the parsed tree, lightly simplified (constants folded).

    Raises
    ------
    ParseError
        On syntax errors, unknown identifiers, out-of-range coordinate
        indices, or a non-constant exponent after ``^``.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, dim).parse()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, t, z):
    """Evaluate a tree at time(s) t and coordinate value(s) z.

    t is a float or an (M,) array, z dim floats or an (M, dim) array; the
    result is a float for scalar input and an (M,) array for node arrays.
    This is the tape of one root, compile([e]).run(t, z).  Raises
    EvalDomainError, naming the subtree, if any node divides by zero,
    takes log or sqrt outside the domain, raises 0 to a negative power or
    a negative base to a fractional power, or overflows.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    if t.ndim == 0 and z.ndim == 2:
        t = np.full(z.shape[0], float(t))
    (out,) = compile([e]).run(t, z)
    return float(out) if t.ndim == 0 else out


# Evaluation kernels: the value of node e from the values of its children.
# Every tape instruction calls _kernel(e), so every node is computed with
# the same operations and the same domain checks wherever it appears.
# Tape._values runs them under np.errstate(all="ignore").  A checked kernel
# computes first and runs its checks only when the result is not finite:
# each check's condition forces an inf or nan result, so the checks raise
# exactly where checking first would, and one dot product settles the
# common case.


def _finite(v) -> bool:
    """True when every entry of v is finite (a sum of squares that
    overflows reads as not finite, which only sends v to the checks)."""
    return math.isfinite(np.vdot(v, v))


def _exp(e, a):
    v = np.exp(a)
    if not _finite(v) and not np.isfinite(v).all():
        raise EvalDomainError("exp overflow", e)
    return v


def _log(e, a):
    v = np.log(a)
    if not _finite(v) and (np.asarray(a) <= 0.0).any():
        raise EvalDomainError("log of nonpositive value", e)
    return v


def _sqrt(e, a):
    v = np.sqrt(a)
    if not _finite(v) and (np.asarray(a) < 0.0).any():
        raise EvalDomainError("sqrt of negative value", e)
    return v


def _divide(e, a, b):
    # through numpy, so that Python-float operands give inf, not an error
    v = np.divide(a, b)
    if not _finite(v) and (np.asarray(b) == 0.0).any():
        raise EvalDomainError("division by zero", e)
    return v


def _power(e, a):
    a = np.asarray(a)
    c = e.exponent
    v = a ** c
    # a . v, not v . v: a base of -inf under a negative fractional power
    # gives 0, and only the product with the base shows it; an infinite
    # exponent can give 0 from a negative base, so it is always checked
    if math.isfinite(c) and math.isfinite(np.vdot(a, v)):
        return v
    if not float(c).is_integer() and (a < 0.0).any():
        raise EvalDomainError("negative base under fractional power", e)
    if c < 0 and (a == 0.0).any():
        raise EvalDomainError("zero base under negative power", e)
    if not np.isfinite(v).all():
        raise EvalDomainError("power overflow", e)
    return v


def _unknown_op(e, *args):
    kind = "unary" if isinstance(e, Unary) else "binary"
    raise EvalDomainError(f"unknown {kind} op {e.op}", e)


_UNARY = {
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
}

_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _divide,
}


def _kernel(e: Expr):
    """The function computing node e from the values of its children: an
    unchecked operation is the ufunc itself, a checked one is bound to e,
    which names the EvalDomainError it raises."""
    if isinstance(e, Power):
        kernel = _power
    else:
        table = _UNARY if isinstance(e, Unary) else _BINARY
        kernel = table.get(e.op, _unknown_op)
    if isinstance(kernel, np.ufunc):
        return kernel
    return functools.partial(kernel, e)


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------


def _bits(value: float) -> bytes:
    # Const(0.0) == Const(-0.0), but the two give different results
    # (1/-0.0 < 0), so nodes are keyed by the bits of their numbers
    return struct.pack("<d", value)


class Tape:
    """Trees hash-consed into one DAG, run as a topologically ordered list.

    Build with compile(roots).  Every distinct subtree is one slot; run
    computes each slot once per node array, children before parents, so
    every root comes out bit-identical to evaluate(root, t, z), its tape
    of its own, and a domain error names the same subtree with the same
    message.  The instructions run in the order in which a tree-by-tree
    evaluation of the roots first reaches each subtree, so where several
    subtrees leave their domain, the one evaluating the roots one by one
    would report first is the one raised.
    """

    def __init__(self, nodes, args, roots):
        self._nodes = nodes    # slot -> node
        self._args = args      # slot -> child slots
        self.roots = tuple(roots)  # slots of the roots, in order
        self._program = []
        seen = set()
        for slot in self.roots:
            self._schedule(slot, seen)
        self._size = len(seen)
        # leaves reached: constants are filled in once, variables per run
        self._leaves = [None] * len(nodes)
        self._vars = []
        for slot in sorted(seen):
            e = nodes[slot]
            if isinstance(e, Const):
                self._leaves[slot] = e.value
            elif isinstance(e, Var):
                self._vars.append((slot, e.index))

    def _schedule(self, slot, seen) -> None:
        # post-order over the DAG: the first-visit order of a tree walk
        if slot in seen:
            return
        seen.add(slot)
        args = self._args[slot]
        for a in args:
            self._schedule(a, seen)
        if args:  # an operation; leaves are filled in per run
            self._program.append((slot, _kernel(self._nodes[slot]), args[0],
                                  args[1] if len(args) > 1 else -1))

    def __len__(self) -> int:
        """Number of distinct subtrees, leaves included, the roots reach."""
        return self._size

    def select(self, roots) -> "Tape":
        """Tape over a subsequence of the roots (indices into self.roots).

        Only the subtrees those roots reach are computed, in the order a
        tree walk of them in the given order first reaches each.
        """
        return Tape(self._nodes, self._args,
                    [self.roots[k] for k in roots])

    def run(self, t, z) -> list:
        """Values of the roots at node arrays t (M,) and z (M, dim).

        Returns one array of shape (M,) per root, equal bit for bit to
        evaluate(root, t, z); raises EvalDomainError as evaluate would.
        """
        t = np.asarray(t, dtype=float)
        return [np.full(t.shape, float(v)) if np.ndim(v) == 0
                else np.asarray(v, dtype=float) for v in self._values(t, z)]

    def _values(self, t, z) -> list:
        """As run, but a root that depends on neither t nor z is left a
        scalar, for callers that broadcast it themselves."""
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        vals = self._leaves.copy()
        for slot, index in self._vars:
            vals[slot] = t if index == 0 else z[..., index - 1]
        with np.errstate(all="ignore"):  # the kernels check their results
            for slot, kernel, a, b in self._program:
                if b < 0:
                    vals[slot] = kernel(vals[a])
                else:
                    vals[slot] = kernel(vals[a], vals[b])
        return [vals[slot] for slot in self.roots]


def compile(roots) -> Tape:
    """Hash-cons the trees in roots into one Tape.

    Structurally equal subtrees -- same node type, operator and bitwise
    equal numbers over equal children -- share one slot, within a tree and
    across trees; so do a+b and b+a, and a*b and b*a, whose values are
    bit-identical.  A slot keeps the node interned first, which a tree
    walk of the roots in the order given reaches first.
    """
    table = ([], [], {}, {})
    return Tape(table[0], table[1], [_intern(e, table) for e in roots])


def _intern(e: Expr, table) -> int:
    """Slot of e in table, adding e and its subtrees where they are new.

    table is (nodes, child slots, structural key -> slot, id(node) ->
    slot); the roots keep every node alive, so ids stay unique.
    """
    nodes, args, slots, seen = table
    slot = seen.get(id(e))
    if slot is not None:
        return slot
    if isinstance(e, Const):
        children, key = (), ("c", _bits(e.value))
    elif isinstance(e, Var):
        children, key = (), ("v", e.index)
    elif isinstance(e, Unary):
        children = (_intern(e.arg, table),)
        key = ("u", e.op, children)
    elif isinstance(e, Binary):
        children = (_intern(e.lhs, table), _intern(e.rhs, table))
        # IEEE + and * commute exactly: a*b and b*a share one slot
        key = ("b", e.op,
               tuple(sorted(children)) if e.op in ("+", "*") else children)
    elif isinstance(e, Power):
        children = (_intern(e.base, table),)
        key = ("p", _bits(e.exponent), children)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    slot = slots.get(key)
    if slot is None:
        slot = slots[key] = len(nodes)
        nodes.append(e)
        args.append(children)
    seen[id(e)] = slot
    return slot


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr, v: int) -> Expr:
    """Exact symbolic derivative of e with respect to variable index v.

    Index 0 differentiates in t, index d >= 1 in the coordinate z^d.  The
    result is a tree; differentiating it again yields second derivatives.
    Constant folding and 0/1 identities keep the trees small, but no deeper
    simplification is attempted.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == v else ZERO
    if isinstance(e, Unary):
        da = differentiate(e.arg, v)
        if e.op == "neg":
            return neg(da)
        if e.op == "sin":
            return mul(cos(e.arg), da)
        if e.op == "cos":
            return neg(mul(sin(e.arg), da))
        if e.op == "exp":
            return mul(exp(e.arg), da)
        if e.op == "log":
            return div(da, e.arg)
        if e.op == "sqrt":
            return div(da, mul(Const(2.0), sqrt(e.arg)))
        raise ValueError(f"unknown unary op {e.op}")
    if isinstance(e, Binary):
        da = differentiate(e.lhs, v)
        db = differentiate(e.rhs, v)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.rhs), mul(e.lhs, db))
        if e.op == "/":
            num = sub(mul(da, e.rhs), mul(e.lhs, db))
            return div(num, power(e.rhs, 2.0))
        raise ValueError(f"unknown binary op {e.op}")
    if isinstance(e, Power):
        du = differentiate(e.base, v)
        return mul(mul(Const(e.exponent), power(e.base, e.exponent - 1.0)), du)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, Const):
        return _LEVEL_ATOM if e.value >= 0 else _LEVEL_NEG
    if isinstance(e, Var):
        return _LEVEL_ATOM
    if isinstance(e, Unary):
        return _LEVEL_NEG if e.op == "neg" else _LEVEL_ATOM
    if isinstance(e, Binary):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    return _LEVEL_POW


def _fmt_number(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):  # inf and nan fail the first test
        return str(int(v))
    return repr(v)


def _wrap(e: Expr, min_level: int) -> str:
    s = to_text(e)
    return f"({s})" if _level(e) < min_level else s


def to_text(e: Expr) -> str:
    """Render a tree back to grammar text; parse(to_text(e)) equals e."""
    if isinstance(e, Const):
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return "t" if e.index == 0 else f"z{e.index}"
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.arg, _LEVEL_POW)
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, Binary):
        if e.op == "+":
            return f"{_wrap(e.lhs, _LEVEL_ADD)} + {_wrap(e.rhs, _LEVEL_MUL)}"
        if e.op == "-":
            return f"{_wrap(e.lhs, _LEVEL_ADD)} - {_wrap(e.rhs, _LEVEL_MUL)}"
        if e.op == "*":
            return f"{_wrap(e.lhs, _LEVEL_MUL)}*{_wrap(e.rhs, _LEVEL_NEG)}"
        return f"{_wrap(e.lhs, _LEVEL_MUL)}/{_wrap(e.rhs, _LEVEL_NEG)}"
    if isinstance(e, Power):
        base = _wrap(e.base, _LEVEL_ATOM)
        exponent = _fmt_number(e.exponent)
        if e.exponent < 0:
            exponent = f"({exponent})"
        return f"{base}^{exponent}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# tree queries
# ---------------------------------------------------------------------------


def max_var_index(e: Expr) -> int:
    """Largest coordinate index referenced (0 if none)."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Unary):
        return max_var_index(e.arg)
    if isinstance(e, Binary):
        return max(max_var_index(e.lhs), max_var_index(e.rhs))
    if isinstance(e, Power):
        return max_var_index(e.base)
    return 0


def references_time(e: Expr) -> bool:
    """True if the tree mentions the time variable t anywhere."""
    if isinstance(e, Var):
        return e.index == 0
    if isinstance(e, Unary):
        return references_time(e.arg)
    if isinstance(e, Binary):
        return references_time(e.lhs) or references_time(e.rhs)
    if isinstance(e, Power):
        return references_time(e.base)
    return False
