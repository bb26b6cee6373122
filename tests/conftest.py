"""Shared builders for the test suite: small models and random trajectories."""

import math

import numpy as np
import pytest

from minact import expr as ex
from minact.model import GrowthConstants, ModelSpec, Constraint
from minact.trajectory import FourierTrajectory

TWO_PI = 2.0 * math.pi


def free_drift_model(omega=TWO_PI):
    """L = (1/2) phi_dot^2 on one angle coordinate, nu = 1."""
    return ModelSpec(
        m=0, n=1, omega=omega, nu=(1,),
        metric=[[ex.const(1.0)]], gyro=[ex.const(0.0)],
        potential=ex.const(0.0),
        constants=GrowthConstants(0.0, 0.0, 0.0, 0.5, 0.0, 0.0))


def coercive_oscillator_model(omega=0.1, a_coef=0.5):
    """L = (1/2) x_dot^2 - (a/1) x^2 ... V = a*x^2 scaled to match A."""
    return ModelSpec(
        m=1, n=0, omega=omega, nu=(),
        metric=[[ex.const(1.0)]], gyro=[ex.const(0.0)],
        potential=ex.parse(f"{a_coef}*z1^2", 1),
        constants=GrowthConstants(0.0, 0.0, a_coef, 0.5, 0.0, 0.0))


def harmonic_model(omega=TWO_PI):
    """L = (1/2) x_dot^2 - (1/2) x^2; x = sin t solves it exactly."""
    return ModelSpec(
        m=1, n=0, omega=omega, nu=(),
        metric=[[ex.const(1.0)]], gyro=[ex.const(0.0)],
        potential=ex.parse("0.5*z1^2", 1),
        constants=GrowthConstants(0.0, 0.0, 0.5, 0.5, 0.0, 0.0))


def constrained_planar_model(beta=0.5):
    """Constraint z2 = z1 with an even time-periodic forcing, omega = 2*pi.

    V = -beta*z1*sin(t) + (z1^2 + z2^2)/4 is even under (t,z) -> (-t,-z).
    On the manifold z1 = z2 = s the action is pi*sum_k (k^2 - 1/2)*b_k^2
    + beta*pi*b_1, minimized at b_1 = -beta: the constrained minimizer is
    s = -beta*sin(t) with S = -pi*beta^2/2.
    """
    return ModelSpec(
        m=2, n=0, omega=TWO_PI, nu=(),
        metric=[[ex.const(1.0), ex.const(0.0)],
                [ex.const(0.0), ex.const(1.0)]],
        gyro=[ex.const(0.0), ex.const(0.0)],
        potential=ex.parse(f"0.25*(z1^2+z2^2) - {beta}*z1*sin(t)", 2),
        constraints=(Constraint(ex.parse("z2 - z1", 2), "odd"),),
        constants=GrowthConstants(0.0, 0.0, 0.5, 0.5, 0.0, beta ** 2))


def random_trajectory(rng, dim, N=6, omega=TWO_PI, nu=(), scale=1.0):
    """Random smooth trajectory with geometrically decaying mode sizes."""
    decay = 0.5 ** np.arange(N)
    coeffs = rng.normal(size=(N, dim)) * decay[:, None] * scale
    return FourierTrajectory(omega, tuple(nu), coeffs)


def count_builds(monkeypatch):
    """Record (kind, trajectory, M) for every distance profile ("profile")
    and winding signature ("signature") actually computed, not memoized."""
    import minact.trajectory as trajectory_module
    built = []
    for kind, name in (("profile", "_compute_profile"),
                       ("signature", "_compute_signature")):
        original = getattr(trajectory_module, name)

        def counted(traj, s, M, kind=kind, original=original):
            built.append((kind, traj, M))
            return original(traj, s, M)

        monkeypatch.setattr(trajectory_module, name, counted)
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(0)
