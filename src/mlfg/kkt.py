"""Joint first-order system of the smoothed game and its piecewise Jacobian.

The residual stacks every leader's stationarity block with the
complementarity block ``min(lambda, -g)``; its roots are exactly the
equilibria of the smoothed game at the given smoothing level. The merit is
half the squared residual norm. The Jacobian is a selected element of the
Clarke generalized derivative: the min rows are differentiated branchwise,
with ties resolved to the multiplier branch (keeps the lower-right block
closer to the identity and thus the selection closer to nonsingular). Its
stationarity block is :func:`curvature_block`, the Hessian stack plus the
smoothing curvature; the continuation's predictor solves with the same
matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameSpec, PrimalDualPoint
from .smoothing import phi_tilde_d2, smoothed_gradient_stack

__all__ = [
    "KktResidual",
    "GeneralizedJacobian",
    "kkt_residual",
    "merit",
    "generalized_jacobian",
    "merit_subgradient",
    "curvature_block",
]


@dataclass
class KktResidual:
    """Stationarity block F1 (length n) and complementarity block F2 (m_bar)."""

    F1: np.ndarray
    F2: np.ndarray

    def stack(self) -> np.ndarray:
        return np.concatenate([self.F1, self.F2])

    @property
    def merit(self) -> float:
        return 0.5 * (float(self.F1 @ self.F1) + float(self.F2 @ self.F2))


@dataclass
class GeneralizedJacobian:
    """Jacobian blocks by variable pair: (x, lambda) against (F1, F2).

    ``xx`` is symmetric positive definite (Hessian stack plus smoothing
    curvature), ``xl`` the block-diagonal constraint gradients, and each
    (lx, ll) row carries exactly one active branch of the min rows.
    """

    xx: np.ndarray
    xl: np.ndarray
    lx: np.ndarray
    ll: np.ndarray

    def matrix(self) -> np.ndarray:
        top = np.hstack([self.xx, self.xl])
        bottom = np.hstack([self.lx, self.ll])
        return np.vstack([top, bottom])


def kkt_residual(game: GameSpec, z: PrimalDualPoint, eps: float, p: int = 2) -> KktResidual:
    F1 = smoothed_gradient_stack(game, z.x, eps, p) + game.constraint_gradient_block @ z.lam
    F2 = np.minimum(z.lam, -game.constraint_values(z.x))
    return KktResidual(F1=F1, F2=F2)


def merit(game: GameSpec, z: PrimalDualPoint, eps: float, p: int = 2) -> float:
    return kkt_residual(game, z, eps, p).merit


def generalized_jacobian(
    game: GameSpec, z: PrimalDualPoint, eps: float, p: int = 2
) -> GeneralizedJacobian:
    n, m_bar = game.n, game.m_bar
    xx = curvature_block(game, z.x, eps, p)
    xl = np.array(game.constraint_gradient_block)

    # Branch selection per min row: the strict multiplier branch when
    # lam < -g, the strict constraint branch when lam > -g, and the
    # multiplier branch on ties.
    g = game.constraint_values(z.x)
    lx = np.zeros((m_bar, n))
    ll = np.zeros((m_bar, m_bar))
    constraint_branch = z.lam > -g
    for i in np.flatnonzero(constraint_branch):
        lx[i, :] = -game.constraint_gradient_block[:, i]
    ll[~constraint_branch, ~constraint_branch] = 1.0
    return GeneralizedJacobian(xx=xx, xl=xl, lx=lx, ll=ll)


def merit_subgradient(game: GameSpec, z: PrimalDualPoint, eps: float, p: int = 2) -> np.ndarray:
    """Element H^T F of the merit subdifferential for the selected branch."""
    H = generalized_jacobian(game, z, eps, p).matrix()
    return H.T @ kkt_residual(game, z, eps, p).stack()


def curvature_block(game: GameSpec, x: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Jacobian of the stacked smoothed gradients in ``x``, shape (n, n).

    ``Q_block + 0.5 * A_diff' diag(a * phi_tilde''(A_diff x)) A_diff``: the
    Hessian stack plus a nonnegative sum of rank-one terms, hence SPD.
    """
    A = game.A_diff
    curv = game.follower.a * phi_tilde_d2(A @ np.asarray(x, dtype=float), eps, p)
    return game.Q_block + 0.5 * (A.T * curv) @ A
