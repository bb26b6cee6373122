"""Outside-in span tracer for the minact modules.

The tracer replaces public functions of minact with timing wrappers from
the outside, so the package itself carries no tracing code.  A function is
replaced under every name that binds it in a loaded ``minact*`` module:
``optimize``, ``action``, ``verify``, ``trajectory`` and ``cli`` import
``nearest_distances``, ``winding_signature``, ``sample`` and others by
name, and patching only the defining module would miss those calls.
``LagrangianTerms`` methods are wrapped on the class.  ``minact.action``
is the function re-exported by the package ``__init__``, so modules are
looked up in ``sys.modules`` by their dotted name.

Spans stay in memory until ``take_pass`` folds them into per-name totals;
nothing is written while a pass runs.  A recursive call into a function
that already has an open span (``expr.differentiate`` recurses through its
module global) runs untraced, so each span is one outermost call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute); the span name is "<layer>.<function>"
FUNCTIONS = {
    "expr.evaluate": ("minact.expr", "evaluate"),
    "expr.differentiate": ("minact.expr", "differentiate"),
    "model.nearest_distances": ("minact.model", "nearest_distances"),
    "model.nearest_singular": ("minact.model", "nearest_singular"),
    "trajectory.sample": ("minact.trajectory", "sample"),
    "trajectory.evaluate_path": ("minact.trajectory", "evaluate_path"),
    "trajectory.windings_of_closed_points":
        ("minact.trajectory", "windings_of_closed_points"),
    "trajectory.winding_signature":
        ("minact.trajectory", "winding_signature"),
    "trajectory.min_distance_to": ("minact.trajectory", "min_distance_to"),
    "trajectory.seed_curve": ("minact.trajectory", "seed_curve"),
    "action.action_report": ("minact.action", "action_report"),
    "optimize.minimize": ("minact.optimize", "minimize"),
    "verify.el_residual": ("minact.verify", "el_residual"),
    "verify.check_hypotheses": ("minact.verify", "check_hypotheses"),
    "verify.recover_multipliers": ("minact.verify", "recover_multipliers"),
    "cli.main": ("minact.cli", "main"),
}

# span name -> method of minact.action.LagrangianTerms
METHODS = {
    "action.LagrangianTerms": "__init__",
    "action.lagrangian_at": "lagrangian_at",
    "action.dL_fields": "dL_fields",
    "action.metric_at": "metric_at",
    "action.constraints_at": "constraints_at",
}

LAYERS = ("expr", "model", "trajectory", "action", "optimize", "verify",
          "cli")


class Tracer:
    """Install wrappers, collect spans, and fold them per pass.

    A span is [name, parent index, start, end]; parent -1 marks a span
    opened outside any other traced call.  Counters hold the counts that
    are not span counts: scalar ``evaluate`` calls, ``lagrangian_at``
    calls made inside ``minimize`` (objective evaluations), and the
    iteration count each ``minimize`` returns.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._open: set = set()
        self._restore: list = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "minact" or name.startswith("minact."))]
        for span, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = sys.modules["minact.action"].LagrangianTerms
        for span, attr in METHODS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, is_open = self.spans, self._stack, self._open
        counters = self.counters
        clock = time.perf_counter
        scalar = name == "expr.evaluate"
        objective = name == "action.lagrangian_at"
        minimize = name == "optimize.minimize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in is_open:
                return fn(*args, **kwargs)
            if scalar and _is_scalar_time(args, kwargs):
                counters["expr.evaluate.scalar_calls"] += 1
            if objective and "optimize.minimize" in is_open:
                counters["optimize.objective_evals"] += 1
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            is_open.add(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                is_open.discard(name)
            if minimize:
                counters["optimize.iterations"] += len(out.history)
            return out

        return wrapper

    # -- aggregation -----------------------------------------------------

    def take_pass(self) -> dict:
        """Fold and clear the spans and counters recorded since the last call.

        Returns {"calls": {name: n}, "total_s": {name: s},
        "self_s": {name: s}, "counters": {name: n}}.  A span's self time
        is its duration minus the durations of its direct child spans;
        children of one span never overlap because the program is single
        threaded.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: dict = {}
        own: dict = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[i])
        out = {"calls": dict(calls), "total_s": total, "self_s": own,
               "counters": dict(self.counters)}
        self.spans.clear()
        self.counters.clear()
        return out


def _is_scalar_time(args, kwargs) -> bool:
    t = args[1] if len(args) > 1 else kwargs.get("t")
    return getattr(t, "ndim", 0) == 0
