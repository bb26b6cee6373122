"""The half-period reflection of planar models with an antipodal pair.

A planar model whose singular set is one pair {r0, -r0} may be invariant
under G: (t, z) -> (t + omega/2, R z), R = I - 2 r r^T, r = r0/|r0|.  G
maps sin(w_k t) b_k to (-1)^k sin(w_k t) R b_k, so its fixed space is
b_k = c_k e_k, e_k = r for odd k and r_perp for even k; the other unit
vector f_k of each mode is a symmetry-breaking direction.  There
L(t + omega/2) = L(t), and the Hessian of the action splits into a fixed
and a breaking block.  A critical point on the fixed space is one of the
full action (symmetric criticality: Palais, Comm. Math. Phys. 69, 1979),
and a saddle where the breaking block has a negative eigenvalue.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex

__all__ = ["reflection_axis", "mode_directions", "breaking_block",
           "breaking_coeffs", "least_eigenpair"]

# the invariance test's relative tolerance; the most inverse iterations
SYMMETRY_RTOL = 1e-10
EIG_STEPS = 200


def reflection_axis(model, terms, centers):
    """The unit axis r of the reflection swapping centers [r0, -r0] if it
    leaves the model invariant, else None: on sixteen fixed points off
    sigma and their images (t + omega/2, R z), V' = V, R a' = a and
    R G' R = G to SYMMETRY_RTOL relative, as check tests parity.  A
    domain error there rules the symmetry out."""
    r0 = np.array(centers[0])
    size = math.hypot(*r0)
    axis = r0 / size
    R = np.eye(2) - 2.0 * np.outer(axis, axis)
    k = np.arange(16)
    angle = 0.7 + 2.3 * k
    z = (size * (0.3 + 0.15 * k))[:, None] * np.column_stack(
        (np.cos(angle), np.sin(angle)))
    off = np.minimum(np.hypot(*(z - r0).T), np.hypot(*(z + r0).T)) \
        > 0.1 * size
    t, z = (model.omega * (0.05 + k / 16.0))[off], z[off]
    try:
        f = terms.fields(np.concatenate((t, t + 0.5 * model.omega)),
                         np.concatenate((z, z @ R)), "data")
    except ex.EvalDomainError:
        return None
    n = len(t)
    for x, y in ((f.V[:n], f.V[n:]), (f.a[:n], f.a[n:] @ R),
                 (f.G[:n], R @ f.G[n:] @ R)):
        scale = 1.0 + np.maximum(np.abs(x), np.abs(y))
        if np.any(np.abs(x - y) > SYMMETRY_RTOL * scale):
            return None
    return axis


def mode_directions(axis, N: int):
    """(E, F), each (N, 2): e_k and f_k of mode k in row k - 1."""
    across = np.array([-axis[1], axis[0]])
    E, F = np.empty((N, 2)), np.empty((N, 2))
    E[0::2] = F[1::2] = axis
    E[1::2] = F[0::2] = across
    return E, F


def breaking_block(terms, grid, weight: float, axis, B, z) -> np.ndarray:
    """The Hessian of the discrete action in the breaking coordinates
    beta (b_k = beta_k f_k, odd modes first) at the fixed point B (N, 2),
    whose nodes on grid, the first M/2 of the full one, are z; weight is
    2 omega/M, as G makes both halves of the period add the same.

    A breaking step moves the nodes by (S_o beta_o) r_perp +
    (S_e beta_e) r, S_o and S_e the odd and even columns, and the
    velocities likewise with Cw.  With d2L in the frame of these four
    features, each block is a few (M/2, N/2) matmuls.
    """
    path = grid.path(B, z)
    D = terms.fields(path.t, np.concatenate((path.z, path.dz), axis=1),
                     "hessian").d2L
    # the (z, dz) moves of the features z_perp, dz_perp, z_par, dz_par;
    # D is symmetric, so T^T D T is (D T)^T T
    T = np.zeros((4, 4))
    T[:2, 0] = T[2:, 1] = -axis[1], axis[0]
    T[:2, 2] = T[2:, 3] = axis
    D = (D.reshape(-1, 4) @ T).reshape(D.shape).transpose(0, 2, 1)
    D = (D.reshape(-1, 4) @ T).reshape(D.shape)
    cols = [(grid.S[:, k::2], grid.Cw[:, k::2]) for k in (0, 1)]
    n = grid.S.shape[1]
    spans = (slice(0, (n + 1) // 2), slice((n + 1) // 2, n))
    H = np.zeros((n, n))
    for p, q in ((0, 0), (0, 1), (1, 1)):
        for a in (0, 1):
            for b in (0, 1):
                d = D[:, 2 * p + a, 2 * q + b, None]
                if d.any():  # a zero second derivative adds nothing
                    H[spans[p], spans[q]] += cols[p][a].T @ (d * cols[q][b])
    H[spans[1], spans[0]] = H[spans[0], spans[1]].T
    return (0.5 * weight) * (H + H.T)  # symmetric to rounding


def breaking_coeffs(F: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The coefficients (N, 2) of breaking coordinates beta."""
    n_odd = len(F[0::2])
    B = np.empty(F.shape)
    B[0::2] = beta[:n_odd, None] * F[0::2]
    B[1::2] = beta[n_odd:, None] * F[1::2]
    return B


def least_eigenpair(H: np.ndarray):
    """The least eigenvalue of a symmetric matrix H and a unit
    eigenvector, by inverse iteration on H - sigma I from a fixed start,
    until the Rayleigh quotient moves by at most 1e-12 relative.

    sigma is 0 where Cholesky shows H positive definite, else the first
    of -s, -2s, -4s, ... (s = 1e-4 max diag H) where it shows H - sigma I
    so, bisected eight times towards the last that failed.  The Cholesky
    factor L = D + N (N strictly lower) is inverted by Newton-Schulz
    steps X <- X (2I - L X) from D^-1: I - L X is nilpotent and squares
    at each step.  Cholesky is the only LAPACK call, as a dense
    eigensolver pages in several times its code.
    """
    n = len(H)
    eye = np.eye(n)

    def factor(sigma):
        try:
            return np.linalg.cholesky(H - sigma * eye)
        except np.linalg.LinAlgError:
            return None

    sigma = above = 0.0
    L = factor(sigma)
    if L is None:
        sigma = -1e-4 * max(float(np.max(np.diag(H))), 1e-300)
        while (L := factor(sigma)) is None:
            sigma, above = 2.0 * sigma, sigma
        for _ in range(8):
            mid = 0.5 * (sigma + above)
            if (closer := factor(mid)) is None:
                above = mid
            else:
                sigma, L = mid, closer
    X = eye / np.diag(L)
    for _ in range(max(1, n - 1).bit_length()):
        X = X @ (2.0 * eye - L @ X)
    x = 1.0 + (0.618 * np.arange(n)) % 1.0
    least = math.inf
    for _ in range(EIG_STEPS):
        x = X.T @ (X @ x)  # (H - sigma I)^-1 x
        x /= math.sqrt(np.dot(x, x))
        q, least = least, float(x @ H @ x)
        if abs(q - least) <= 1e-12 * abs(least):
            break
    return least, x
