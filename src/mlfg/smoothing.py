"""Smoothed absolute value family, follower best responses, and leader gradients.

The kernel is ``phi_tilde(t) = (t**p + (2*eps)**p)**(1/p)`` for an even
exponent ``p``, a convex upper approximation of ``|t|`` that tightens as
``eps -> 0``. Substituting it for the absolute value in the follower's
closed-form best response makes every leader objective smooth while keeping
it convex, which is what the equilibrium solvers rely on.

All evaluators broadcast over ``t`` and reject, with ValueError, an odd or
small ``p`` and any ``eps`` whose ``2*eps`` is not positive and finite.
:func:`phi_tilde_slopes` gives the first and second ``t``-derivatives from
one pass, and :func:`phi_tilde_d1` and :func:`phi_tilde_d2` return its
fields, so every caller shares one kernel. At ``p = 2`` that pass is the
closed form ``t/h`` and ``(2*eps/h)**2/h`` with ``h = hypot(t, 2*eps)``,
which cannot overflow and takes no fractional power. Every other evaluator,
and the slopes at ``p >= 4``, factor out ``max(|t|, 2*eps)`` so that large
arguments neither overflow nor lose the even-power sign structure. The
responses and objectives read the follower maps ``drive``, ``S`` and
``A_diff`` that :class:`~mlfg.model.GameSpec` derives once per game and
caches read-only.
"""
from __future__ import annotations

import numpy as np

from .model import GameSpec, matvec

__all__ = [
    "phi_tilde",
    "phi_tilde_d1",
    "phi_tilde_d2",
    "phi_tilde_slopes",
    "phi_tilde_deps",
    "phi_tilde_dt_deps",
    "best_response_exact",
    "best_response_smoothed",
    "smoothed_gradient_stack",
]


def _two_eps(eps: float, p: int) -> float:
    """Validate ``eps`` and ``p``; return ``2*eps``, positive and finite."""
    two_eps = 2.0 * eps
    # written so that NaN fails too
    if not 0.0 < two_eps < np.inf:
        raise ValueError(f"smoothing parameter must be positive with 2*eps finite, got {eps}")
    if p < 2 or p % 2 != 0:
        raise ValueError(f"exponent must be an even integer >= 2, got {p}")
    return two_eps


def _scaled(t, eps: float, p: int):
    """Validate ``eps`` and ``p``; return (t/M, 2*eps/M, M) with M = max(|t|, 2*eps) > 0."""
    two_eps = _two_eps(eps, p)
    t = np.asarray(t, dtype=float)
    M = np.maximum(np.abs(t), two_eps)
    return t / M, two_eps / M, M


def phi_tilde(t, eps: float, p: int = 2):
    """Smoothed absolute value, >= |t|, even in t, -> |t| as eps -> 0."""
    u, v, M = _scaled(t, eps, p)
    return M * (u**p + v**p) ** (1.0 / p)


def phi_tilde_slopes(t, eps: float, p: int = 2):
    """First and second t-derivatives ``(phi_tilde', phi_tilde'')`` from one pass."""
    if p == 2:
        two_eps = _two_eps(eps, p)
        t = np.asarray(t, dtype=float)
        h = np.hypot(t, two_eps)
        r = two_eps / h
        return t / h, r * r / h
    u, v, M = _scaled(t, eps, p)
    w = u**p + v**p
    d1 = u ** (p - 1) * w ** (1.0 / p - 1.0)
    return d1, (p - 1) * u ** (p - 2) * v**p * w ** (1.0 / p - 2.0) / M


def phi_tilde_d1(t, eps: float, p: int = 2):
    """First t-derivative; odd, strictly increasing, range (-1, 1)."""
    return phi_tilde_slopes(t, eps, p)[0]


def phi_tilde_d2(t, eps: float, p: int = 2):
    """Second t-derivative; strictly positive (the kernel is convex)."""
    return phi_tilde_slopes(t, eps, p)[1]


def phi_tilde_deps(t, eps: float, p: int = 2):
    """Derivative in the smoothing parameter; positive."""
    u, v, M = _scaled(t, eps, p)
    return 2.0 * v ** (p - 1) * (u**p + v**p) ** (1.0 / p - 1.0)


def phi_tilde_dt_deps(t, eps: float, p: int = 2):
    """Mixed second derivative d2/(dt deps); odd in t, zero at t = 0."""
    u, v, M = _scaled(t, eps, p)
    return 2.0 * (1 - p) * v ** (p - 1) * u ** (p - 1) * (u**p + v**p) ** (1.0 / p - 2.0) / M


def best_response_exact(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Componentwise max of the scaled drive and the lower bound.

    Satisfies y >= L.T x, Qy y - B.T x >= 0, and exact componentwise
    complementarity of the two residuals.
    """
    x = np.asarray(x, dtype=float)
    return np.maximum(game.drive @ x, game.follower.L.T @ x)


def best_response_smoothed(game: GameSpec, x: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Smooth response 0.5*(S x + phi_tilde(A_diff x)); within eps of exact."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (game.S @ x + phi_tilde(game.A_diff @ x, eps, p))


def smoothed_gradient_stack(game: GameSpec, x: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Stack of every leader's own-block gradient of its smoothed objective.

    Block nu is the ``x_nu``-gradient of leader nu's objective with the
    smoothed response substituted; the stack is the map whose uniform
    monotonicity gives uniqueness of the smoothed equilibrium. A stack of
    points ``x``, shape (k, n), gives one row per point.
    """
    x = np.asarray(x, dtype=float)
    slopes = phi_tilde_d1(matvec(game.A_diff, x), eps, p)
    linear = matvec(game.Q_block, x) + game.stationarity_constant
    return linear + matvec(game.half_A_diffT_a, slopes)
