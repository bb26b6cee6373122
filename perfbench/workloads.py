"""The benchmark workloads and their correctness gates.

Each workload is built by ``setup(name, seed, scratch)`` from a freshly
imported ``minact``.  The seed draws the rotation angle theta of
``r0 = (cos theta, sin theta)`` for the planar two-center models and the
sampler ``--rng-seed`` for ``check``.  The two-center problems are
invariant under rotation (S to about 1e-15 relative, el_sup to three
digits, windings {r0: -c, -r0: +c}), so every seed checks against the same
reference values in ``reference.json``; only iteration counts move.

An operation is one solve followed by its certificate, or one CLI
command.  ``Op.run`` performs it and is what the benchmark times;
``Op.observe`` turns its raw result into (observation dict, bytes the
operation wrote) outside the timed region.  ``gate`` compares the
observation with the reference: exact for statuses, exit codes, verdicts
and windings, and a relative tolerance for the numbers named in
``REL_TOL``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import shutil
import sys
from typing import Callable, NamedTuple

# Why these three (each perf change needs a workload where its layer does
# most of the work and one where it does little):
# - winding_classes: two_centers, coils 1-3 at N=48/64.  18 to ~350
#   optimizer iterations per solve, each step checking node distances and
#   winding grids; expr is only about a quarter of solve time.
# - curved_metric: surface_slide coils 1-2 at N=48 and tube_ball nu=1/2.
#   A full state-dependent metric makes expr about 75% of solve time;
#   tube_ball has an empty singular set, so no guards run.
# - sweep_check: CLI check on every builtin and on a constrained model
#   (2000 scalar Gauss-Newton projections), a five-period sweep and a
#   constrained solve.  Many short solves, so fixed per-solve costs and
#   scalar evaluations dominate.
NAMES = ("winding_classes", "curved_metric", "sweep_check")

# relative tolerance per observed number; everything else must be equal
REL_TOL = {
    "S": 1e-10,
    "el_sup": 0.01,
    "S_closed_form": 1e-7,
}

SWEEP_OMEGAS = "6.2832,4.7124,3.1416,1.5708,0.7854"
BETA = 0.5  # constrained oscillator forcing; closed-form S = -pi*beta^2/2


class Op(NamedTuple):
    name: str
    run: Callable
    observe: Callable


def import_minact() -> dict:
    """Import minact afresh (dropping cached modules) and return its modules.

    Purging ``sys.modules`` makes every set-up repetition pay the import
    cost, so the median set-up time includes it.
    """
    for name in [n for n in sys.modules
                 if n == "minact" or n.startswith("minact.")]:
        del sys.modules[name]
    return {name: importlib.import_module("minact." + name)
            for name in ("expr", "model", "trajectory", "action",
                         "optimize", "verify", "cli")}


def draw(seed: int):
    """(theta, sampler rng seed) drawn from the benchmark seed."""
    rng = random.Random(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return theta, rng.randrange(1 << 31)


def setup(name: str, seed: int, scratch: str):
    """Import minact, build the workload's models and inputs.

    Returns the list of the workload's operations.
    """
    mods = import_minact()
    theta, rng_seed = draw(seed)
    r0 = (math.cos(theta), math.sin(theta))
    if name == "winding_classes":
        return _winding_classes(mods, r0)
    if name == "curved_metric":
        return _curved_metric(mods, r0)
    if name == "sweep_check":
        return _sweep_check(mods, r0, rng_seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


def _solve_op(mods, name, model, homotopy_class, opts, r0):
    opt, ver = mods["optimize"], mods["verify"]

    def run():
        res = opt.solve_in_class(model, homotopy_class, opts)
        return res, ver.el_residual(model, res.trajectory, 8 * opts.N)

    def observe(raw):
        res, rep = raw
        obs = {"status": res.status, "S": res.report.S, "el_sup": rep.el_sup}
        if r0 is not None:
            obs["windings"] = _relative_windings(res.signature, r0)
        return obs, 0

    return Op(name, run, observe)


def _relative_windings(signature, r0):
    # windings keyed by (r0, -r0) become the list [w(r0), w(-r0)]; any
    # other key set (or a missing signature) is kept as-is to fail the gate
    if signature is None:
        return None
    neg = tuple(-v + 0.0 for v in r0)
    ws = signature.windings
    if set(ws) != {tuple(r0), neg}:
        return {repr(k): v for k, v in ws.items()}
    return [ws[tuple(r0)], ws[neg]]


def _winding_classes(mods, r0):
    model = mods["model"].builtin("two_centers", r0=r0)
    SolveOptions = mods["optimize"].SolveOptions
    return [_solve_op(mods, f"two_centers c={c} N={N}", model, c,
                      SolveOptions(N=N), r0)
            for c in (1, 2, 3) for N in (48, 64)]


def _curved_metric(mods, r0):
    builtin = mods["model"].builtin
    SolveOptions = mods["optimize"].SolveOptions
    slide = builtin("surface_slide", r0=r0)
    ops = [_solve_op(mods, f"surface_slide c={c} N=48", slide, c,
                     SolveOptions(N=48), r0)
           for c in (1, 2)]
    for nu, N in ((1, 32), (2, 64)):
        # drift-only seed: tube_ball's singular set is empty
        ops.append(_solve_op(mods, f"tube_ball nu={nu} N={N}",
                             builtin("tube_ball", nu=(nu,)), None,
                             SolveOptions(N=N, grad_tol=1e-10), None))
    return ops


def constrained_oscillator(mods):
    """The constrained model of demos/constrained_oscillator.py.

    L = (1/2)|z'|^2 - (1/4)(z1^2 + z2^2) + beta z1 sin t on the line
    z2 = z1; its odd minimizer has S = -pi beta^2 / 2.
    """
    ex, md = mods["expr"], mods["model"]
    return md.ModelSpec(
        m=2, n=0, omega=2.0 * math.pi, nu=(),
        metric=[[ex.parse("1", 2), ex.parse("0", 2)],
                [ex.parse("0", 2), ex.parse("1", 2)]],
        gyro=[ex.parse("0", 2), ex.parse("0", 2)],
        potential=ex.parse(f"0.25*(z1^2+z2^2) - {BETA}*z1*sin(t)", 2),
        constants=md.GrowthConstants(C=0, M=0, A=0.5, K=0.5, P=0,
                                     C1=BETA ** 2),
        constraints=(md.Constraint(ex.parse("z2 - z1", 2), "odd"),))


def _sweep_check(mods, r0, rng_seed, scratch):
    model_file = os.path.join(scratch, "constrained_oscillator.json")
    mods["model"].save_model(constrained_oscillator(mods), model_file)
    rotate = ["--param", f"r0={r0[0]!r},{r0[1]!r}"]
    seed_args = ["--rng-seed", str(rng_seed)]
    commands = []
    for b in mods["model"].BUILTIN_NAMES:
        planar = b in ("two_centers", "surface_slide")
        commands.append((f"check {b}", ["check", "--builtin", b]
                         + (rotate if planar else []) + seed_args))
    commands.append(("check constrained samples=2000",
                     ["check", "--model", model_file, "--samples", "2000"]
                     + seed_args))
    commands.append(("sweep two_centers",
                     ["sweep", "--builtin", "two_centers"] + rotate
                     + ["--coils", "1", "--modes", "24",
                        "--omegas", SWEEP_OMEGAS]))
    commands.append(("solve constrained",
                     ["solve", "--model", model_file, "--modes", "24"]))
    return [_cli_op(mods, name, argv, os.path.join(scratch, f"out{i}"))
            for i, (name, argv) in enumerate(commands)]


def _cli_op(mods, name, argv, out):
    cli = mods["cli"]

    def run():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--out", out])
        return code, stdout.getvalue()

    def observe(raw):
        code, printed = raw
        obs = {"exit": code}
        written = len(printed.encode())
        written += sum(entry.stat().st_size for entry in os.scandir(out))
        if argv[0] == "check":
            report = _read_json(os.path.join(out, "report.json"))
            obs.update(overall=report["overall"],
                       violated=report["violated"])
        elif argv[0] == "sweep":
            obs["rows"] = _summary_rows(os.path.join(out, "summary.csv"))
        else:
            result = _read_json(os.path.join(out, "result.json"))
            obs.update(status=result["status"],
                       S_closed_form=result["report"]["S"])
        shutil.rmtree(out)
        return obs, written

    return Op(name, run, observe)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _summary_rows(path):
    rows = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            omega, status, S = line.rstrip("\n").split(",")[:3]
            rows[omega] = {"status": status, "S": float(S)}
    return rows


def gate(observed, reference, key: str = "") -> list:
    """Mismatches between an observation and its reference, as messages."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or set(observed) != set(reference):
            return [f"{key or 'observation'}: {observed!r} != {reference!r}"]
        out = []
        for k in reference:
            out += gate(observed[k], reference[k], k)
        return out
    if key in REL_TOL:
        ok = (isinstance(observed, float) and math.isfinite(observed)
              and abs(observed - reference)
              <= REL_TOL[key] * abs(reference))
        return [] if ok else [f"{key}: {observed!r} vs reference "
                              f"{reference!r} (rel tol {REL_TOL[key]})"]
    return [] if observed == reference else [
        f"{key}: {observed!r} != reference {reference!r}"]
