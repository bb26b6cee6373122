"""Generated straight-line kernels for expression tapes.

Tape._values interprets a tape: one Python loop step per instruction.  A
caller that runs the same tape many times, as the optimizer runs the
Lagrangian program on every line-search candidate, can instead turn it
into one generated NumPy function, Kernel(tape, targets), whose source is
the tape's instructions written out in order.  It computes the same
values with the same ufuncs, into a workspace allocated once per node
count, and raises the same EvalDomainError (docs/expr-grammar.md,
"Compiled evaluation").
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex

__all__ = ["Kernel"]

# The ufunc of each op in a generated kernel; the checked ops test their
# value as their kernels do, and call the kernel only when it is not finite
_UFUNCS = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
}
_CHECKED = {"exp", "log", "sqrt", "/"}
# the ufunc a ** c calls for these exponents; np.power for the others
_POWER_UFUNCS = {2.0: np.square, -1.0: np.reciprocal, 0.5: np.sqrt}
# ops that may write straight into a strided output array: IEEE rounds
# them exactly, whatever loop the layout selects
_EXACT = (np.add, np.subtract, np.multiply, np.negative)


class Kernel:
    """A tape run as one generated straight-line NumPy function.

    targets holds, per root of the tape, the places (output index, index
    tuple of full slices and integers) its values are stored at.
    kernel(t, z, outs) runs the tape's
    instructions in the tape's order, with the ufuncs its kernels call
    (for a power, the one a ** c calls), and stores every root at its
    places in the arrays outs; the stored values are bit for bit those of
    Tape._values.  An instruction whose operands are all constant is the
    tape's own call.  A checked instruction tests its value as its kernel
    does and, only when the test fails, calls that kernel, which raises
    the same EvalDomainError.

    Values live in a workspace of rows allocated once per node count, a
    row reused once its value is read for the last time.  A root of +,
    -, * or neg that no instruction reads is computed straight into its
    place.  Constants and exponents are bound by name: the generated
    source holds no numbers of the model.  The kernel is not reentrant.
    """

    def __init__(self, tape: ex.Tape, targets):
        self.source, namespace, self._rows = _generate(tape, targets)
        exec(compile(self.source, "<kernel>", "exec"), namespace)
        self._run = namespace["run"]
        self._work: dict = {}  # node count -> workspace rows

    def __call__(self, t, z, outs) -> None:
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        work = self._work.get(len(t))
        if work is None:
            work = self._work[len(t)] = tuple(np.empty((self._rows, len(t))))
        with np.errstate(all="ignore"):  # the checks run inline
            self._run(t, z, outs, work)


def _ufunc(e: ex.Expr):
    """(ufunc, how its value is tested) of node e, or (None, None) for an
    op without one.  The test is "value" (v . v), "base" (a . v) or
    "always" (a power with an infinite or nan exponent), or None."""
    if isinstance(e, ex.Power):
        c = e.exponent
        return (_POWER_UFUNCS.get(c, np.power),
                "base" if math.isfinite(c) else "always")
    return (_UFUNCS.get(e.op),
            "value" if e.op in _CHECKED else None)


def _generate(tape: ex.Tape, targets):
    """(source, namespace, number of workspace rows) of tape's kernel."""
    places: dict = {}  # slot -> [(output index, index tuple)]
    for slot, where in zip(tape.roots, targets):
        places.setdefault(slot, []).extend(where)
    last = {}  # slot -> position of the last instruction reading it
    for pos, (_, _, a, b) in enumerate(tape._program):
        last[a] = pos
        if b >= 0:
            last[b] = pos
    namespace = {"isfinite": math.isfinite, "vdot": np.vdot}
    names: dict = {}   # slot -> the name of its value in the source
    arrays = set()     # slots whose value depends on t or z
    rows: dict = {}    # slot -> the workspace row holding its value
    free: list = []    # rows whose values have been read for the last time
    body = []

    def store(slot, skip=0):
        for out, index in places.get(slot, ())[skip:]:
            body.append(f"o{out}[{_index(index)}] = {names[slot]}")

    for slot, value in enumerate(tape._leaves):
        if value is not None:
            names[slot] = f"c{slot}"
            namespace[names[slot]] = value
            store(slot)
    for slot, index in tape._vars:
        names[slot] = f"v{slot}"
        arrays.add(slot)
        body.append(f"v{slot} = " + ("t" if index == 0
                                     else f"z[:, {index - 1}]"))
        store(slot)
    for pos, (slot, kernel, a, b) in enumerate(tape._program):
        operands = (a,) if b < 0 else (a, b)
        call = ", ".join(names[s] for s in operands)
        ufunc, test = _ufunc(tape._nodes[slot])
        if arrays.intersection(operands):
            arrays.add(slot)
        skip = 0
        if slot not in arrays or ufunc is None:
            # a constant, or an op without a ufunc: the tape's own call
            namespace[f"k{slot}"] = kernel
            names[slot] = f"v{slot}"
            body.append(f"v{slot} = k{slot}({call})")
        else:
            where = places.get(slot)
            if where and ufunc in _EXACT and slot not in last:
                out, index = where[0]
                names[slot] = f"r{slot}"
                body.append(f"r{slot} = o{out}[{_index(index)}]")
                skip = 1
            else:
                rows[slot] = free.pop() if free else len(rows) + len(free)
                names[slot] = f"w{rows[slot]}"
            value, args = names[slot], call
            namespace[ufunc.__name__] = ufunc
            if ufunc is np.power:
                namespace[f"e{slot}"] = tape._nodes[slot].exponent
                args += f", e{slot}"
            body.append(f"{ufunc.__name__}({args}, {value})")
            guard = {"value": f"if not isfinite(vdot({value}, {value})): ",
                     "base": f"if not isfinite(vdot({names[a]}, {value})): ",
                     "always": ""}.get(test)
            if guard is not None:
                namespace[f"k{slot}"] = kernel
                body.append(f"{guard}k{slot}({call})")
        store(slot, skip)
        done = [s for s in set(operands) if last[s] == pos]
        if slot not in last:
            done.append(slot)
        for s in done:
            if s in rows:
                free.append(rows.pop(s))
    count = len(rows) + len(free)
    outputs = sorted({out for where in targets for out, _ in where})
    head = [f"o{k} = outs[{k}]" for k in outputs]
    if count:
        head.append("".join(f"w{r}, " for r in range(count)) + "= work")
    source = "\n".join(["def run(t, z, outs, work):"]
                       + ["    " + line for line in head + body]
                       + ["    return None", ""])
    return source, namespace, count


def _index(index) -> str:
    """Source text of an index tuple of full slices and integers."""
    parts = []
    for i in index:
        if isinstance(i, slice):
            if i != slice(None):
                raise ValueError(f"kernel places take full slices: {i}")
            parts.append(":")
        else:
            parts.append(str(int(i)))
    return ", ".join(parts)
