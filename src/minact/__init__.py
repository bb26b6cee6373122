"""Periodic-orbit solver for Lagrangian systems with singular potentials.

Finds odd, periodic trajectories with prescribed winding data by direct
minimization of the action over a sine-series trajectory space, and
certifies both the model hypotheses and the computed orbits.

Modules: expr (symbolic expressions), kernel (generated evaluation of
compiled expressions), model (system descriptions),
trajectory (the odd Fourier space and winding tools), action (the
discrete functional and coercivity bounds), optimize (the minimizer),
verify (hypothesis and residual checks), cli (the command line).
"""

from .expr import (Const, Var, Unary, Binary, Power, ExprError, ParseError,
                   EvalDomainError, parse, evaluate, differentiate,
                   to_text)
from .model import (GrowthConstants, Constraint, ModelSpec, SingularSet,
                    ModelError, builtin, BUILTIN_NAMES, singular_set,
                    nearest_singular, nearest_distances, enumerate_planar,
                    model_to_dict, model_from_dict, load_model, save_model,
                    is_autonomous, with_omega, with_nu)
from .trajectory import (FourierTrajectory, SampledPath, HomotopySignature,
                         TrajectoryError, SeedError,
                         WindingRefinementError, sample, evaluate_path,
                         h1_seminorm, winding_signature,
                         windings_of_closed_points, min_distance_to,
                         seed_curve, poincare_check, PoincareBounds,
                         write_trajectory_csv, coeffs_to_dict,
                         trajectory_from_dict, save_coeffs, load_coeffs)
from .action import (LagrangianTerms, SingularityHit, NonCoercive, action,
                     action_gradient, coercivity_margin,
                     action_lower_bound, apriori_radius, ActionReport,
                     action_report)
from .optimize import (SolveOptions, SolveResult, OptimizeError, minimize,
                       solve_in_class)
from .verify import (SamplerOptions, HypothesisReport, ResidualReport,
                     VerifyError, check_hypotheses, el_residual,
                     recover_multipliers, energy_drift,
                     homotopy_equiv_sufficient)

__version__ = "0.1.0"
