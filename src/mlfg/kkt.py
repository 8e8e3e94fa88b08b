"""Joint first-order system of the smoothed game and its piecewise Jacobian.

Everything here works on the flat iterate ``z = (x, lambda)`` of length
``n + m_bar``, the only point representation of the library: the solvers
and the continuation take it as their start (through :func:`flat_point`,
which checks its length and that it is finite) and iterate on it. The
residual stacks every leader's stationarity rows (length ``n``) over the
complementarity rows ``min(lambda, -g)``; its roots are exactly the
equilibria of the smoothed game at the given smoothing level. The merit is
half the squared residual norm. The Jacobian is a selected element of the
Clarke generalized derivative, returned as one ``(n + m_bar)``-square
matrix: the min rows are differentiated branchwise, with ties resolved to
the multiplier branch (keeps the lower-right block closer to the identity
and thus the selection closer to nonsingular). Its upper-left block is
:func:`curvature_block`, the Hessian stack plus the smoothing curvature;
the continuation's predictor solves with the same matrix. The residual and
the merit also take a stack of points, one per row, and give each row's
value bit for bit as for that point alone; the subgradient step search
evaluates the unit step and its whole halving ladder in one such call.
"""
from __future__ import annotations

import numpy as np

from .model import GameSpec, matvec
from .smoothing import phi_tilde_d2, smoothed_gradient_stack

__all__ = [
    "kkt_residual",
    "merit",
    "residual_merit",
    "generalized_jacobian",
    "curvature_block",
    "flat_point",
]


def flat_point(game: GameSpec, z: np.ndarray | None) -> np.ndarray:
    """A fresh flat iterate ``(x, lambda)`` from a start vector; zeros for None.

    Raises ValueError unless the start has length ``n + m_bar`` and finite
    entries.
    """
    size = game.n + game.m_bar
    if z is None:
        return np.zeros(size)
    z = np.array(z, dtype=float)
    if z.shape != (size,):
        raise ValueError(f"start point has shape {z.shape}, expected ({size},) = (n + m_bar,)")
    if not np.all(np.isfinite(z)):
        raise ValueError("start point has non-finite entries")
    return z


def kkt_residual(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Stationarity rows (length n) stacked over complementarity rows (m_bar);
    a stack of points ``z``, shape (k, n + m_bar), gives one residual per row."""
    x, lam = z[..., : game.n], z[..., game.n :]
    F1 = smoothed_gradient_stack(game, x, eps, p) + matvec(game.constraint_gradient_block, lam)
    F2 = np.minimum(lam, -game.constraint_values(x))
    return np.concatenate([F1, F2], axis=-1)


def residual_merit(F: np.ndarray, n: int) -> float | np.ndarray:
    """Half the squared norm of a residual, summed block by block; one merit
    per row of a stack of residuals."""
    F1, F2 = F[..., :n], F[..., n:]
    psi = 0.5 * ((F1[..., None, :] @ F1[..., None]) + (F2[..., None, :] @ F2[..., None]))[..., 0, 0]
    return psi if F.ndim > 1 else float(psi)


def merit(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> float:
    return residual_merit(kkt_residual(game, z, eps, p), game.n)


def generalized_jacobian(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Selected Jacobian of :func:`kkt_residual`, shape (n + m_bar, n + m_bar).

    Rows ``:n`` are ``[curvature_block, constraint gradients]``. Each min
    row carries one branch: the constraint branch ``-grad g`` in the ``x``
    columns when ``lam > -g``, else the multiplier branch, a unit entry on
    the diagonal (ties go to the multiplier branch).
    """
    n = game.n
    x, lam = z[:n], z[n:]
    G = game.constraint_gradient_block
    H = np.zeros((n + game.m_bar, n + game.m_bar))
    H[:n, :n] = curvature_block(game, x, eps, p)
    H[:n, n:] = G
    constraint_branch = lam > -game.constraint_values(x)
    H[n + np.flatnonzero(constraint_branch), :n] = -G[:, constraint_branch].T
    multiplier_rows = n + np.flatnonzero(~constraint_branch)
    H[multiplier_rows, multiplier_rows] = 1.0
    return H


def curvature_block(game: GameSpec, x: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Jacobian of the stacked smoothed gradients in ``x``, shape (n, n).

    ``Q_block + 0.5 * A_diff' diag(a * phi_tilde''(A_diff x)) A_diff``: the
    Hessian stack plus a nonnegative sum of rank-one terms, hence SPD.
    """
    A = game.A_diff
    curv = game.follower.a * phi_tilde_d2(A @ np.asarray(x, dtype=float), eps, p)
    return game.Q_block + 0.5 * (A.T * curv) @ A
