"""Joint first-order system of the smoothed game and its piecewise Jacobian.

Everything here works on the flat iterate ``z = (x, lambda)`` of length
``n + m_bar``, the only point representation of the library: the solvers
and the continuation take it as their start (through :func:`flat_point`,
which checks its length and that it is finite) and iterate on it. The
residual stacks every leader's stationarity rows (length ``n``) over the
complementarity rows ``min(lambda, -g)``; its roots are exactly the
equilibria of the smoothed game at the given smoothing level. The merit is
half the squared residual norm.

:func:`evaluate` is the one place both are computed: one product with the
game's cached ``kkt_map`` gives the kernel arguments ``t = A_diff x``,
``Q_block x + G lambda`` and the constraint values at once, and one kernel
pass, :func:`~mlfg.smoothing.phi_tilde_slopes`, gives both slopes there.
Its :class:`Evaluation` also keeps what the Jacobian and the merit
subgradient need at the point: the multipliers and ``-g`` of the min rows,
whose comparison gives each min row's branch (``lam > -g``; ties go to the
multiplier branch, which keeps the lower-right Jacobian block closer to the
identity and thus the selection closer to nonsingular), and the kernel's
second slope, which :func:`_curvature_weights` turns into the smoothing
curvature. Both are formed only when read, so a stack of points, one per
row, forms them only for the rows that are read; each row is bit for bit
as for that point alone. The subgradient step search evaluates a window of
its halving ladder in one such call. :func:`kkt_residual` and
:func:`merit` return its fields.

The Jacobian is a selected element of the Clarke generalized derivative.
:func:`generalized_jacobian` builds it from an :class:`Evaluation` as one
``(n + m_bar)``-square matrix, without evaluating the point again: the min
rows are differentiated on the evaluation's branch, and its upper-left
block is :func:`curvature_block`, the Hessian stack plus the smoothing
curvature, which the continuation's predictor also solves with; both take
the kernel's second slope and weight it with :func:`_curvature_weights`.
:func:`merit_subgradient` gives the merit subgradient ``H' F`` of the same
selection from an evaluation, through ``kkt_map`` and without assembling
``H`` or evaluating the kernel again.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import GameSpec, finite_vector, matvec
from .smoothing import phi_tilde_slopes
# not called here; the benchmark's layer tracer binds it by this module's name
from .smoothing import smoothed_gradient_stack  # noqa: F401

__all__ = [
    "Evaluation",
    "evaluate",
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
    return np.zeros(size) if z is None else finite_vector(z, "start point (x, lambda)", size)


class Evaluation(NamedTuple):
    """What :func:`evaluate` computes at one point: the residual ``F``, the
    merit ``psi``, the multipliers ``lam`` and the negated constraint values
    ``neg_g`` of the min rows, and the kernel's second slope
    ``second = phi_tilde''(t)`` at the kernel arguments ``t = A_diff x``.
    ``lam`` is a view of the evaluated point. For a stack of points every
    field has a leading row axis, one row per point."""

    F: np.ndarray
    psi: float | np.ndarray
    lam: np.ndarray
    neg_g: np.ndarray
    second: np.ndarray

    @property
    def constraint_branch(self) -> np.ndarray:
        """Which min rows are on the constraint branch (``lam > -g``); ties
        go to the multiplier branch."""
        return self.lam > self.neg_g

    def row(self, i: int) -> Evaluation:
        """Row ``i`` of a stacked evaluation, equal to that point's own."""
        return Evaluation(self.F[i], float(self.psi[i]), self.lam[i], self.neg_g[i], self.second[i])


def evaluate(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> Evaluation:
    """The :class:`Evaluation` at ``z``, from one ``kkt_map`` product and one
    kernel pass; a stack of points ``z``, shape (k, n + m_bar), gives each
    field one row per point."""
    m, n = game.m, game.n
    u = matvec(game.kkt_map, z)
    t = u[..., :m]
    slopes, second = phi_tilde_slopes(t, eps, p)
    F1 = u[..., m : m + n] + game.stationarity_constant + matvec(game.half_A_diffT_a, slopes)
    lam, neg_g = z[..., n:], -(u[..., m + n :] + game.b_stack)
    F = np.concatenate([F1, np.minimum(lam, neg_g)], axis=-1)
    return Evaluation(F, residual_merit(F, n), lam, neg_g, second)


def kkt_residual(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Stationarity rows (length n) stacked over complementarity rows (m_bar);
    a stack of points ``z``, shape (k, n + m_bar), gives one residual per row."""
    return evaluate(game, z, eps, p).F


def residual_merit(F: np.ndarray, n: int) -> float | np.ndarray:
    """Half the squared norm of a residual, summed block by block; one merit
    per row of a stack of residuals."""
    F1, F2 = F[..., :n], F[..., n:]
    psi = 0.5 * ((F1[..., None, :] @ F1[..., None]) + (F2[..., None, :] @ F2[..., None]))[..., 0, 0]
    return psi if F.ndim > 1 else float(psi)


def merit(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> float:
    return evaluate(game, z, eps, p).psi


def generalized_jacobian(game: GameSpec, ev: Evaluation) -> np.ndarray:
    """Selected Jacobian of :func:`kkt_residual` at an evaluated point,
    shape (n + m_bar, n + m_bar), built from the evaluation alone.

    Rows ``:n`` are ``[curvature_block, constraint gradients]``. Each min
    row carries the evaluation's branch: the constraint branch ``-grad g``
    in the ``x`` columns when ``lam > -g``, else the multiplier branch, a
    unit entry on the diagonal (ties go to the multiplier branch).
    """
    n = game.n
    G = game.constraint_gradient_block
    constraint_branch = ev.constraint_branch
    H = np.zeros((n + game.m_bar, n + game.m_bar))
    H[:n, :n] = curvature_block(game, ev.second)
    H[:n, n:] = G
    H[n + np.flatnonzero(constraint_branch), :n] = -G[:, constraint_branch].T
    multiplier_rows = n + np.flatnonzero(~constraint_branch)
    H[multiplier_rows, multiplier_rows] = 1.0
    return H


def merit_subgradient(game: GameSpec, ev: Evaluation) -> np.ndarray:
    """The merit subgradient ``H' F`` at an evaluated point, with ``H`` the
    :func:`generalized_jacobian` there and ``F`` the residual, without
    assembling ``H`` and without a second ``kkt_map`` product or kernel pass.

    ``H' F = kkt_map' y`` plus ``F2`` on the multiplier-branch rows, where
    ``y`` stacks ``0.5 a phi_tilde''(A_diff x) A_diff F1``, ``F1`` and
    ``-F2`` on the constraint-branch rows (zero on the others).
    """
    n = game.n
    F1, F2 = ev.F[:n], ev.F[n:]
    constraint_branch = ev.constraint_branch
    curv = _curvature_weights(game, ev.second)
    y = np.concatenate([curv * (game.A_diff @ F1), F1, np.where(constraint_branch, -F2, 0.0)])
    v = game.kkt_map.T @ y
    v[n:] += np.where(constraint_branch, 0.0, F2)
    return v


def curvature_block(game: GameSpec, second: np.ndarray) -> np.ndarray:
    """Jacobian of the stacked smoothed gradients in ``x``, shape (n, n), for
    the kernel's second slope ``second = phi_tilde''(A_diff x)``.

    ``Q_block + A_diff' diag(curv) A_diff`` with the :func:`_curvature_weights`
    ``curv``: the Hessian stack plus a nonnegative sum of rank-one terms,
    hence SPD.
    """
    A = game.A_diff
    return game.Q_block + (A.T * _curvature_weights(game, second)) @ A


def _curvature_weights(game: GameSpec, second: np.ndarray) -> np.ndarray:
    """The smoothing curvature ``0.5 a phi_tilde''(t)`` of each follower
    component, from the kernel's second slope ``second = phi_tilde''(t)``."""
    return 0.5 * game.follower.a * second
