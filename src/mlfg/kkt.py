"""Joint first-order system of the smoothed game and its piecewise Jacobian.

Everything here works on the flat iterate ``z = (x, lambda)`` of length
``n + m_bar``, the only point representation of the library: the solvers
and the continuation take it as their start (through :func:`flat_point`,
which checks its length and that it is finite) and iterate on it. The
residual stacks every leader's stationarity rows (length ``n``) over the
complementarity rows ``min(lambda, -g)``; its roots are exactly the
equilibria of the smoothed game at the given smoothing level. Its linear
part is one product with the game's cached ``kkt_map``, which gives the
kernel arguments ``A_diff x``, ``Q_block x + G lambda`` and the constraint
values at once; one kernel slope call and one more product finish it. The
merit is half the squared residual norm. The Jacobian is a selected element
of the Clarke generalized derivative, returned as one ``(n + m_bar)``-square
matrix: the min rows are differentiated branchwise, with ties resolved to
the multiplier branch (keeps the lower-right block closer to the identity
and thus the selection closer to nonsingular). Its upper-left block is
:func:`curvature_block`, the Hessian stack plus the smoothing curvature;
the Newton step and the continuation's predictor solve with it.
:func:`merit_subgradient` gives the merit subgradient ``H' F`` of the same
selection through ``kkt_map`` without assembling ``H``. The residual and
the merit also take a stack of points, one per row, and give each row's
value bit for bit as for that point alone; the subgradient step search
evaluates the unit step and its whole halving ladder in one such call.
"""
from __future__ import annotations

import numpy as np

from .model import GameSpec, matvec
from .smoothing import phi_tilde_d1, phi_tilde_d2
# not called here; the benchmark's layer tracer binds it by this module's name
from .smoothing import smoothed_gradient_stack  # noqa: F401

__all__ = [
    "kkt_residual",
    "merit",
    "residual_merit",
    "generalized_jacobian",
    "merit_subgradient",
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
    m, n = game.m, game.n
    u = matvec(game.kkt_map, z)
    slopes = phi_tilde_d1(u[..., :m], eps, p)
    F1 = u[..., m : m + n] + game.stationarity_constant + matvec(game.half_A_diffT_a, slopes)
    F2 = np.minimum(z[..., n:], -(u[..., m + n :] + game.b_stack))
    return np.concatenate([F1, F2], axis=-1)


def residual_merit(F: np.ndarray, n: int) -> float | np.ndarray:
    """Half the squared norm of a residual, summed block by block; one merit
    per row of a stack of residuals."""
    F1, F2 = F[..., :n], F[..., n:]
    psi = 0.5 * ((F1[..., None, :] @ F1[..., None]) + (F2[..., None, :] @ F2[..., None]))[..., 0, 0]
    return psi if F.ndim > 1 else float(psi)


def merit(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> float:
    return residual_merit(kkt_residual(game, z, eps, p), game.n)


def _kernel_args_and_branch(game: GameSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel arguments ``A_diff x`` at ``z``, from one ``kkt_map``
    product, and which min rows are on the constraint branch, ``lam > -g``
    (ties go to the multiplier branch)."""
    m, n = game.m, game.n
    u = matvec(game.kkt_map, z)
    return u[:m], z[n:] > -(u[m + n :] + game.b_stack)


def generalized_jacobian(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Selected Jacobian of :func:`kkt_residual`, shape (n + m_bar, n + m_bar).

    Rows ``:n`` are ``[curvature_block, constraint gradients]``. Each min
    row carries one branch: the constraint branch ``-grad g`` in the ``x``
    columns when ``lam > -g``, else the multiplier branch, a unit entry on
    the diagonal (ties go to the multiplier branch).
    """
    n = game.n
    G = game.constraint_gradient_block
    H = np.zeros((n + game.m_bar, n + game.m_bar))
    H[:n, :n] = curvature_block(game, z[:n], eps, p)
    H[:n, n:] = G
    _, constraint_branch = _kernel_args_and_branch(game, z)
    H[n + np.flatnonzero(constraint_branch), :n] = -G[:, constraint_branch].T
    multiplier_rows = n + np.flatnonzero(~constraint_branch)
    H[multiplier_rows, multiplier_rows] = 1.0
    return H


def merit_subgradient(
    game: GameSpec, z: np.ndarray, F: np.ndarray, eps: float, p: int = 2
) -> np.ndarray:
    """The merit subgradient ``H' F``, with ``H`` the :func:`generalized_jacobian`
    at ``z`` and ``F`` the residual there, without assembling ``H``.

    ``H' F = kkt_map' y`` plus ``F2`` on the multiplier-branch rows, where
    ``y`` stacks ``0.5 a phi_tilde''(A_diff x) A_diff F1``, ``F1`` and
    ``-F2`` on the constraint-branch rows (zero on the others).
    """
    n = game.n
    F1, F2 = F[:n], F[n:]
    t, constraint_branch = _kernel_args_and_branch(game, z)
    curv = 0.5 * game.follower.a * phi_tilde_d2(t, eps, p)
    y = np.concatenate([curv * (game.A_diff @ F1), F1, np.where(constraint_branch, -F2, 0.0)])
    v = game.kkt_map.T @ y
    v[n:] += np.where(constraint_branch, 0.0, F2)
    return v


def curvature_block(game: GameSpec, x: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Jacobian of the stacked smoothed gradients in ``x``, shape (n, n).

    ``Q_block + 0.5 * A_diff' diag(a * phi_tilde''(A_diff x)) A_diff``: the
    Hessian stack plus a nonnegative sum of rank-one terms, hence SPD.
    """
    A = game.A_diff
    curv = game.follower.a * phi_tilde_d2(A @ np.asarray(x, dtype=float), eps, p)
    return game.Q_block + 0.5 * (A.T * curv) @ A
