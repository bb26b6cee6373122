"""Command-line surface: check models, solve, sweep periods, emit plot data.

Subcommands
    check     hypothesis falsification -> report.json
    solve     action minimization -> trajectory.csv, coeffs.json, result.json
    sweep     one solve per period value -> summary.csv
    plotdata  trajectory.csv -> plot.csv (projection, clearance, angles)

Exit codes: 0 success; 1 usage or IO error; 2 hypothesis failure (check);
3 diverged (solve) or no converged row (sweep); 4 guard or winding-class
stop; 5 iteration budget exhausted; 6 converged but the residual exceeds
--residual-tol.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .action import LagrangianTerms, coercivity_margin
from .expr import ExprError
from .model import ModelError, ModelSpec, load_model, nearest_distances, \
    builtin, singular_set, with_nu, with_omega, write_json, BUILTIN_NAMES
from .optimize import OptimizeError, SolveOptions, solve_in_class
from .trajectory import TrajectoryError, load_coeffs, sample, save_coeffs, \
    write_trajectory_csv
from .verify import SamplerOptions, VerifyError, check_hypotheses, \
    el_residual

__all__ = ["main", "build_parser"]

TWO_PI = 2.0 * math.pi

_STATUS_EXIT = {"Diverged": 3, "GuardTriggered": 4, "SignatureChanged": 4,
                "MaxIter": 5}


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 1 in this tool, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_param(text: str):
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"--param expects key=value, got {text!r}")
    if "," in raw:
        return key, tuple(float(v) for v in raw.split(","))
    try:
        return key, int(raw)
    except ValueError:
        pass
    try:
        return key, float(raw)
    except ValueError:
        return key, raw


def _model_from_args(args) -> ModelSpec:
    if bool(args.builtin) == bool(args.model):
        raise ValueError("exactly one of --builtin or --model is required")
    if args.builtin:
        params = dict(_parse_param(p) for p in (args.param or []))
        if args.omega is not None:
            params["omega"] = args.omega
        if args.nu is not None:
            params["nu"] = _parse_nu(args.nu)
        model = builtin(args.builtin, **params)
    else:
        model = load_model(args.model)
        if args.omega is not None:
            model = with_omega(model, args.omega)
        if args.nu is not None:
            model = with_nu(model, _parse_nu(args.nu))
    return model


def _parse_nu(text: str) -> tuple:
    return tuple(int(v) for v in str(text).split(","))


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", choices=BUILTIN_NAMES,
                   help="built-in model name")
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="builtin parameter (repeatable; commas make "
                        "vectors, e.g. r0=1,0)")
    p.add_argument("--omega", type=float, default=None, help="period")
    p.add_argument("--nu", default=None,
                   help="angle winding integers, comma separated")
    p.add_argument("--out", default=".", help="output directory")


def _add_solve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coils", type=int, default=None,
                   help="planar coil count for the seed curve")
    p.add_argument("--seed-file", default=None,
                   help="coefficient JSON for the starting trajectory")
    p.add_argument("--modes", type=int, default=32,
                   help="sine modes N (default 32)")
    p.add_argument("--nodes", type=int, default=0,
                   help="quadrature nodes M (default 8N)")
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--guard-delta", type=float, default=1e-3)
    p.add_argument("--residual-tol", type=float, default=1e-5,
                   help="largest acceptable el_sup for exit 0")
    p.add_argument("--history-file", default=None,
                   help="also stream the iteration log as JSON lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minact",
                     description="periodic-orbit action minimizer and "
                                 "hypothesis checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[], help="falsify hypotheses")
    _add_model_args(p_check)
    p_check.add_argument("--samples", type=int, default=200)
    p_check.add_argument("--box-radius", type=float, default=5.0)
    p_check.add_argument("--rng-seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="minimize the action")
    _add_model_args(p_solve)
    _add_solve_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve across period values")
    _add_model_args(p_sweep)
    _add_solve_args(p_sweep)
    p_sweep.add_argument("--omegas", required=True,
                         help="comma-separated period values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plotdata", help="derive plotting columns")
    _add_model_args(p_plot)
    p_plot.add_argument("--traj", required=True,
                        help="trajectory.csv produced by solve")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def cmd_check(args) -> int:
    model = _model_from_args(args)
    sampler = SamplerOptions(count=args.samples,
                             box_radius=args.box_radius,
                             rng_seed=args.rng_seed)
    report = check_hypotheses(model, sampler)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report.to_dict())
    verdict = "PASS" if report.overall else "FAIL"
    print(f"hypotheses: {verdict} (margin = {report.margin!r})")
    for v in report.violated:
        print(f"  violated: {v}")
    for w in report.warnings:
        print(f"  warning: {w}")
    return 0 if report.overall else 2


def _class_spec(args):
    if args.seed_file is not None and args.coils is not None:
        raise ValueError("--coils and --seed-file are mutually exclusive")
    if args.seed_file is not None:
        return load_coeffs(args.seed_file)
    if args.coils is not None:
        return args.coils
    return None


def _solve_options(args) -> SolveOptions:
    return SolveOptions(N=args.modes, M=args.nodes,
                        max_iters=args.max_iters, grad_tol=args.grad_tol,
                        guard_delta=args.guard_delta)


def _run_one(model: ModelSpec, args):
    opts = _solve_options(args)
    result = solve_in_class(model, _class_spec(args), opts)
    try:
        residual = el_residual(model, result.trajectory, opts.M)
    except VerifyError:
        residual = None
    return opts, result, residual


def cmd_solve(args) -> int:
    model = _model_from_args(args)
    opts, result, residual = _run_one(model, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv",
                         sample(result.trajectory, opts.M))
    save_coeffs(result.trajectory, out / "coeffs.json")
    payload = result.to_dict()
    payload["residual"] = None if residual is None else residual.to_dict()
    write_json(out / "result.json", payload)
    if args.history_file:
        with open(args.history_file, "w", encoding="utf-8",
                  newline="\n") as fh:
            for rec in result.history:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    el_sup = math.inf if residual is None else residual.el_sup
    print(f"status: {result.status}  S = {result.report.S!r}  "
          f"el_sup = {el_sup!r}")
    if result.status == "Converged":
        return 0 if el_sup <= args.residual_tol else 6
    return _STATUS_EXIT.get(result.status, 1)


def cmd_sweep(args) -> int:
    model = _model_from_args(args)
    LagrangianTerms.of(model)  # built once; the with_omega copies share it
    omegas = [float(v) for v in str(args.omegas).split(",") if v.strip()]
    if not omegas:
        raise ValueError("--omegas must list at least one period")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    any_converged = False
    for om in omegas:
        m_om = with_omega(model, om)
        if coercivity_margin(m_om.constants, om) <= 0.0:
            rows.append([om, "skipped-noncoercive", "", "", "", ""])
            continue
        try:
            opts, result, residual = _run_one(m_om, args)
        except (OptimizeError, TrajectoryError, VerifyError) as err:
            rows.append([om, f"error: {err}", "", "", "", ""])
            continue
        el_sup = "" if residual is None else residual.el_sup
        min_d = ("" if residual is None else residual.min_distance)
        rows.append([om, result.status, result.report.S, result.report.h1,
                     el_sup, min_d])
        any_converged |= result.status == "Converged"
    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega,status,S,h1,el_sup,min_distance\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")
    for row in rows:
        print(" ".join(_csv_cell(v) for v in row))
    return 0 if any_converged else 3


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_plotdata(args) -> int:
    model = _model_from_args(args)
    s = singular_set(model)
    t_vals, z_vals = _read_trajectory_csv(args.traj, model.dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["t", "px", "py", "dist_sigma"]
    for j in range(model.n):
        header += [f"phi{j + 1}_mod", f"phi{j + 1}_wrap"]
    with open(out / "plot.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if len(t_vals) == 0:
            return 0
        dists = (np.full(len(t_vals), math.inf) if s.is_empty()
                 else nearest_distances(s, z_vals))
        for i, t in enumerate(t_vals):
            z = z_vals[i]
            px = z[0]
            py = z[1] if model.dim > 1 else 0.0
            cells = [repr(float(t)), repr(float(px)), repr(float(py)),
                     repr(float(dists[i]))]
            for j in range(model.n):
                phi = float(z[model.m + j])
                wraps = math.floor(phi / TWO_PI)
                cells += [repr(phi - TWO_PI * wraps), str(int(wraps))]
            fh.write(",".join(cells) + "\n")
    return 0


def _read_trajectory_csv(path, dim: int):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header")
        expected = (["t"] + [f"z{d + 1}" for d in range(dim)]
                    + [f"dz{d + 1}" for d in range(dim)])
        if header != expected:
            raise ValueError(
                f"{path}: header {header!r} does not match the model "
                f"(expected {expected!r})")
        t_vals, z_vals = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 1 + 2 * dim:
                raise ValueError(f"{path}: row has {len(row)} cells, "
                                 f"expected {1 + 2 * dim}")
            t_vals.append(float(row[0]))
            z_vals.append([float(v) for v in row[1:1 + dim]])
    return np.asarray(t_vals), np.asarray(z_vals).reshape(len(t_vals), dim)


_parser = functools.cache(build_parser)  # parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ModelError, ExprError, OptimizeError, TrajectoryError,
            VerifyError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
