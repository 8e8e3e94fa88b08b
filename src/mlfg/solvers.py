"""Inner equilibrium solvers at a fixed smoothing level.

Two methods minimize the merit (half squared residual norm):

* a semismooth Newton iteration on the joint system, taking full steps on
  a selected generalized Jacobian and falling back to a single safeguarded
  subgradient step whenever the Jacobian is singular or the full step fails
  to decrease the merit;
* a two-level subgradient descent that drives a shrinking stationarity
  tolerance, with normalized directions and a doubling/halving step length
  search against a sufficient-decrease test.

Both are deterministic and keep the merit monotonically nonincreasing.
They iterate on the flat vector ``z = (x, lambda)`` of length
``n + m_bar``, with the residual and Jacobian of :mod:`mlfg.kkt`. The start
is such a vector (None for zeros), and the :class:`InnerResult` splits the
final iterate into ``x`` and ``lam``. The Newton step is one LAPACK solve,
:func:`lu_solve`, which returns None for a singular or numerically singular
Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kkt import flat_point, generalized_jacobian, kkt_residual, residual_merit
from .model import GameSpec

__all__ = [
    "NewtonConfig",
    "SubgradConfig",
    "InnerResult",
    "lu_solve",
    "newton_solve",
    "subgradient_solve",
    "armijo_search",
]


# Fixed step controls: the Newton fallback's Armijo search (halvings,
# shrink factor, slope), and the subgradient method's stationarity
# tolerance (first value, shrink factor), decrease slope and smallest step.
MAX_BACKTRACKS = 60
BACKTRACK_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
DELTA0 = 1.0
DELTA_FACTOR = 0.5
SUBGRAD_SLOPE = 0.05
SIGMA_MIN = 1e-12


def lu_solve(M: np.ndarray, rhs: np.ndarray, pivot_tol: float = 1e-12) -> np.ndarray | None:
    """Solve a small dense system through LAPACK (``numpy.linalg.solve``).

    Returns None (the singular flag) when LAPACK finds a zero pivot, when
    the solution is not finite (so also for a NaN or inf in ``M`` or
    ``rhs``), or when ``max|x| * pivot_tol * max|M| > max|rhs|``, an O(n) check after
    the solve that proves the condition number above ``1 / pivot_tol``. The
    Newton solver treats the flag as its fallback trigger, not as an error.
    """
    A = np.asarray(M, dtype=float)
    b = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"incompatible shapes {A.shape} and {b.shape}")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return None
    size = np.max(np.abs(x), initial=0.0) * pivot_tol * np.max(np.abs(A), initial=0.0)
    # written so that a NaN anywhere fails the test
    if not (np.all(np.isfinite(x)) and size <= np.max(np.abs(b), initial=0.0)):
        return None
    return x


@dataclass
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class SubgradConfig:
    max_outer: int = 50
    max_inner: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class InnerResult:
    """Outcome of one fixed-smoothing solve: the final iterate split into
    strategy ``x`` and multipliers ``lam``, and its merit trace."""

    x: np.ndarray
    lam: np.ndarray
    merit: float
    iterations: int
    converged: bool
    fallback_steps: int = 0
    merit_history: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)


def armijo_search(
    game: GameSpec, z: np.ndarray, s: np.ndarray, eps: float, p: int = 2
) -> tuple[float, bool]:
    """Largest backtracked step t with merit(z + t*s) <= merit(z) - t*ARMIJO_SLOPE*|s|^2.

    ``z`` and ``s`` are flat ``(x, lambda)`` vectors. Returns (0.0, False)
    when no trial step achieves the decrease, which callers read as a
    no-descent flag.
    """
    psi0 = residual_merit(kkt_residual(game, z, eps, p), game.n)
    slope = ARMIJO_SLOPE * float(s @ s)
    t = 1.0
    for _ in range(MAX_BACKTRACKS + 1):
        psi_trial = residual_merit(kkt_residual(game, z + t * s, eps, p), game.n)
        # strict decrease keeps steps below float resolution from passing
        if psi_trial <= psi0 - t * slope and psi_trial < psi0:
            return t, True
        t *= BACKTRACK_FACTOR
    return 0.0, False


def newton_solve(
    game: GameSpec,
    z0: np.ndarray | None = None,
    eps: float = 1.0,
    p: int = 2,
    cfg: NewtonConfig | None = None,
) -> InnerResult:
    """Globalized semismooth Newton iteration on the joint system.

    Full Newton steps are accepted whenever the selected Jacobian is
    nonsingular and the step decreases the merit; otherwise a single
    safeguarded subgradient step is taken before Newton is retried.
    """
    cfg = cfg or NewtonConfig()
    n = game.n
    z = flat_point(game, z0)
    fallback_steps = 0
    step_norms: list[float] = []

    F = kkt_residual(game, z, eps, p)
    psi = residual_merit(F, n)
    merit_history = [psi]
    iterations = 0
    converged = psi <= cfg.tol
    while not converged and iterations < cfg.max_iter:
        if not np.all(np.isfinite(F)):
            raise FloatingPointError("residual became non-finite during Newton solve")
        H = generalized_jacobian(game, z, eps, p)
        step = lu_solve(H, -F)
        F_trial = None if step is None else kkt_residual(game, z + step, eps, p)
        if F_trial is None or not residual_merit(F_trial, n) < psi:
            # singular Jacobian or no-descent full step: one subgradient step
            s = -(H.T @ F)
            t, ok = armijo_search(game, z, s, eps, p)
            if not ok:
                break
            fallback_steps += 1
            step = t * s
            F_trial = kkt_residual(game, z + step, eps, p)
        z, F = z + step, F_trial
        psi = residual_merit(F, n)
        iterations += 1
        merit_history.append(psi)
        step_norms.append(float(np.linalg.norm(step)))
        converged = psi <= cfg.tol
    return InnerResult(
        x=z[:n],
        lam=z[n:],
        merit=psi,
        iterations=iterations,
        converged=converged,
        fallback_steps=fallback_steps,
        merit_history=merit_history,
        step_norms=step_norms,
    )


def _step_search(game, z, d, eps, p, psi0: float, v_norm: float):
    """Doubling/halving search for the largest step passing sufficient decrease.

    The test is psi(z + sigma*d) - psi0 <= -SUBGRAD_SLOPE * sigma * v_norm
    along the normalized direction ``d``. Returns the accepted step with the
    residual at ``z + sigma*d``, or ``(0.0, None)`` when even ``SIGMA_MIN``
    fails.
    """

    def residual_if_passes(sigma: float):
        F = kkt_residual(game, z + sigma * d, eps, p)
        return F if residual_merit(F, game.n) - psi0 <= -SUBGRAD_SLOPE * sigma * v_norm else None

    sigma = 1.0
    F = residual_if_passes(sigma)
    if F is not None:
        while sigma < 2.0**30 and (larger := residual_if_passes(2.0 * sigma)) is not None:
            sigma, F = 2.0 * sigma, larger
        return sigma, F
    while sigma > SIGMA_MIN:
        sigma *= 0.5
        if (F := residual_if_passes(sigma)) is not None:
            return sigma, F
    return 0.0, None


def subgradient_solve(
    game: GameSpec,
    z0: np.ndarray | None = None,
    eps: float = 1.0,
    p: int = 2,
    cfg: SubgradConfig | None = None,
) -> InnerResult:
    """Two-level subgradient descent on the merit.

    The outer level shrinks a stationarity tolerance geometrically; the
    inner level takes normalized subgradient steps until the current
    subgradient norm falls below that tolerance. The step direction is the
    normalized merit subgradient (a quasisecant of zero probe length). The
    residual of each accepted trial point is kept from the step search.
    """
    cfg = cfg or SubgradConfig()
    n = game.n
    z = flat_point(game, z0)
    F = kkt_residual(game, z, eps, p)
    psi = residual_merit(F, n)
    merit_history = [psi]
    step_norms: list[float] = []
    iterations = 0
    delta = DELTA0
    for _ in range(cfg.max_outer):
        if psi <= cfg.tol:
            break
        for _ in range(cfg.max_inner):
            if psi <= cfg.tol:
                break
            v = generalized_jacobian(game, z, eps, p).T @ F
            v_norm = float(np.linalg.norm(v))
            if v_norm <= delta:
                break
            d = -v / v_norm
            sigma, F_trial = _step_search(game, z, d, eps, p, psi, v_norm)
            if sigma == 0.0:
                break
            z, F = z + sigma * d, F_trial
            psi = residual_merit(F, n)
            iterations += 1
            merit_history.append(psi)
            step_norms.append(sigma)
        delta *= DELTA_FACTOR
    return InnerResult(
        x=z[:n],
        lam=z[n:],
        merit=psi,
        iterations=iterations,
        converged=psi <= cfg.tol,
        merit_history=merit_history,
        step_norms=step_norms,
    )
