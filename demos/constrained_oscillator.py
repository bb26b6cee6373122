"""A holonomic constraint enforced by the method of multipliers, with a
closed form.

Two coupled coordinates are forced onto the diagonal line z2 = z1 by an
ideal constraint.  On that line the system reduces to a driven oscillator
whose minimizer is known exactly, so every part of the pipeline can be
checked against pencil-and-paper numbers:

    L = (1/2)|z'|^2 - (1/4)(z1^2 + z2^2) + (beta) z1 sin t,  f = z2 - z1 = 0

restricted to the diagonal and minimized over odd loops gives
z1 = z2 = -beta sin t, action S = -pi beta^2 / 2, and reaction force
alpha(t) = (beta/2) sin t.  Run the script to see the solver agree with all
three: the solve's own multipliers (the augmented Lagrangian's lam at the
quadrature nodes) match the reaction force that recover_multipliers finds
in the Euler-Lagrange residual afterwards.
"""

import math

import numpy as np

from minact import expr as ex
from minact.model import Constraint, GrowthConstants, ModelSpec
from minact.optimize import SolveOptions, minimize
from minact.trajectory import FourierTrajectory
from minact.verify import el_residual

TWO_PI = 2.0 * math.pi
beta = 0.5

model = ModelSpec(
    m=2, n=0, omega=TWO_PI, nu=(),
    metric=[[ex.parse("1", 2), ex.parse("0", 2)],
            [ex.parse("0", 2), ex.parse("1", 2)]],
    gyro=[ex.parse("0", 2), ex.parse("0", 2)],
    potential=ex.parse(f"0.25*(z1^2+z2^2) - {beta}*z1*sin(t)", 2),
    constants=GrowthConstants(C=0, M=0, A=0.5, K=0.5, P=0, C1=beta ** 2),
    constraints=(Constraint(ex.parse("z2 - z1", 2), "odd"),))

seed = FourierTrajectory(TWO_PI, (), 0.1 * np.ones((6, 2)))
opts = SolveOptions(N=6)
res = minimize(model, seed, opts)

S_exact = -math.pi * beta ** 2 / 2.0
print(f"status = {res.status} after {res.history[-1]['iter']} steps with "
      f"one penalty weight mu = {res.history[-1]['mu']:g}")
print(f"action     S = {res.report.S:+.15f}")
print(f"closed form  = {S_exact:+.15f}   "
      f"(|error| = {abs(res.report.S - S_exact):.2e})")

b1 = res.trajectory.coeffs[0]
print(f"first mode   = ({b1[0]:+.12f}, {b1[1]:+.12f}) vs (-beta, -beta) "
      f"= ({-beta}, {-beta})")

rep = el_residual(model, res.trajectory, opts.M)
t = TWO_PI * np.arange(opts.M) / opts.M
lam = res.multipliers[:, 0]
alpha = rep.multipliers[:, 0]
print(f"max|f| at the nodes               = {rep.constraint_sup:.2e}")
print(f"solve's lam vs recover_multipliers = "
      f"{np.max(np.abs(lam - alpha)) / np.max(np.abs(alpha)):.2e} (relative)")
print(f"lam vs (beta/2) sin t             = "
      f"{np.max(np.abs(lam - 0.5 * beta * np.sin(t))):.2e}")
print(f"residual orthogonal to f-grad     = {rep.el_sup:.2e}")
print("\nthe multipliers ARE the reaction force the constraint exerts: the "
      "solve\nupdates them from its own f, and the residual recovers them "
      "by a\nleast-squares solve per node.")
