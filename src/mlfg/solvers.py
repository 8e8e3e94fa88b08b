"""Inner equilibrium solvers at a fixed smoothing level.

Two methods minimize the merit (half squared residual norm):

* a semismooth Newton iteration on the joint system, globalized by one
  backtracking Armijo search on the merit per iteration: along the Newton
  direction of the selected Jacobian :func:`~mlfg.kkt.generalized_jacobian`,
  or along the negative merit gradient when that Jacobian is singular or
  no Newton step passes;
* a subgradient descent along the normalized negative merit subgradient,
  which :func:`~mlfg.kkt.merit_subgradient` forms without a Jacobian, with
  a doubling/halving step length search against a sufficient-decrease
  test: the unit step and the halving ladder ``SIGMA_LADDER`` share one
  stacked evaluation, and the search doubles one point at a time only when
  the unit step passes; a zero subgradient or a search in which every step
  fails ends the solve.

Both are deterministic and keep the merit monotonically nonincreasing.
Every trial point gets one :func:`~mlfg.kkt.evaluate`, and each search
returns the :class:`~mlfg.kkt.Evaluation` of the point it accepts; the
solver builds its next Jacobian or subgradient from that evaluation, so
no point is evaluated twice. They iterate on the flat vector
``z = (x, lambda)`` of length ``n + m_bar``, with the evaluation, Jacobian
and subgradient of :mod:`mlfg.kkt`. The start is such a vector (None for
zeros), and the :class:`InnerResult` splits the final iterate into ``x``
and ``lam``. Each stops once the merit reaches the ``tol`` keyword, which
:func:`check_tol` requires to lie in ``(0, inf)``, or at its iteration cap
(``NEWTON_MAX_ITER`` or ``SUBGRAD_MAX_ITER``). The Newton step is one
LAPACK solve, :func:`lu_solve`, which returns None for a singular or
numerically singular Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kkt import Evaluation, evaluate, flat_point, generalized_jacobian, merit_subgradient
# not called here; the benchmark's layer tracer binds it by this module's name
from .kkt import kkt_residual  # noqa: F401
from .model import GameSpec

__all__ = [
    "InnerResult",
    "lu_solve",
    "newton_solve",
    "subgradient_solve",
]


# Fixed step controls: the iteration caps, the Newton method's Armijo search
# (halvings, shrink factor, slope), the subgradient method's decrease slope
# and smallest step, and the relative pivot size below which lu_solve
# reports a singular matrix.
NEWTON_MAX_ITER = 200
SUBGRAD_MAX_ITER = 25_000
MAX_BACKTRACKS = 60
BACKTRACK_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
SUBGRAD_SLOPE = 0.05
SIGMA_MIN = 1e-12
PIVOT_TOL = 1e-12

# every step that halving from 1 until sigma <= SIGMA_MIN visits, 1 included
# (down to 2**-40 for 1e-12); read-only, shared by every search
SIGMA_LADDER = 0.5 ** np.arange(np.ceil(-np.log2(SIGMA_MIN)) + 1)
SIGMA_LADDER.flags.writeable = False


def check_tol(tol: float) -> None:
    """Reject a merit tolerance outside ``(0, inf)`` (NaN included)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _start(game: GameSpec, z0, eps: float, p: int, tol: float) -> tuple[np.ndarray, Evaluation]:
    """Check ``tol`` and the start; return the start and its evaluation.
    Raises FloatingPointError when its merit is not finite."""
    check_tol(tol)
    z = flat_point(game, z0)
    ev = evaluate(game, z, eps, p)
    if not np.isfinite(ev.psi):
        raise FloatingPointError(f"merit is not finite at the start, got {ev.psi}")
    return z, ev


def lu_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve a small dense system through LAPACK (``numpy.linalg.solve``).

    Returns None (the singular flag) when LAPACK finds a zero pivot, when
    the solution is not finite (so also for a NaN or inf in ``M`` or
    ``rhs``), or when ``max|x| * PIVOT_TOL * max|M| > max|rhs|``, an O(n)
    check after the solve that proves the condition number above
    ``1 / PIVOT_TOL``. The Newton solver treats the flag as its fallback
    trigger, not as an error.
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
    size = np.max(np.abs(x), initial=0.0) * PIVOT_TOL * np.max(np.abs(A), initial=0.0)
    # written so that a NaN anywhere fails the test
    if not (np.all(np.isfinite(x)) and size <= np.max(np.abs(b), initial=0.0)):
        return None
    return x


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
    game: GameSpec, z: np.ndarray, d: np.ndarray, psi0: float, slope: float, eps: float, p: int = 2
) -> tuple[float, Evaluation | None]:
    """Backtracking Armijo search on the merit along ``d`` from ``z``.

    ``psi0`` is the merit at ``z`` and ``slope`` its directional derivative
    ``g @ d`` with ``g = H.T @ F``. Evaluates ``t = 1, 1/2, ...`` and
    accepts the first with ``merit(z + t*d) <= psi0 + t*ARMIJO_SLOPE*slope``
    and ``merit(z + t*d) < psi0``. Returns ``t`` with the evaluation at
    ``z + t*d``, or ``(0.0, None)`` when no trial step passes.
    """
    t = 1.0
    for _ in range(MAX_BACKTRACKS + 1):
        ev = evaluate(game, z + t * d, eps, p)
        # strict decrease keeps steps below float resolution from passing
        if ev.psi <= psi0 + t * (ARMIJO_SLOPE * slope) and ev.psi < psi0:
            return t, ev
        t *= BACKTRACK_FACTOR
    return 0.0, None


def newton_solve(
    game: GameSpec,
    z0: np.ndarray | None = None,
    eps: float = 1.0,
    p: int = 2,
    tol: float = 1e-10,
) -> InnerResult:
    """Globalized semismooth Newton iteration on the joint system.

    Each iteration builds the selected Jacobian ``H`` from the current
    point's evaluation and runs one :func:`armijo_search` on the merit:
    along the Newton direction of ``H``, or along the merit's negative
    gradient ``-H.T @ F`` (a fallback step) when ``H`` is singular or no
    backtracked Newton step passes; the accepted point's evaluation is
    carried into the next iteration. Raises FloatingPointError when the
    merit at the start is not finite.
    """
    n = game.n
    z, ev = _start(game, z0, eps, p, tol)
    fallback_steps = 0
    step_norms: list[float] = []
    merit_history = [ev.psi]
    iterations = 0
    while ev.psi > tol and iterations < NEWTON_MAX_ITER:
        H = generalized_jacobian(game, ev)
        g = H.T @ ev.F
        d = lu_solve(H, -ev.F)
        t, accepted = (0.0, None) if d is None else armijo_search(game, z, d, ev.psi, g @ d, eps, p)
        if accepted is None:
            d = -g
            t, accepted = armijo_search(game, z, d, ev.psi, g @ d, eps, p)
            if accepted is None:
                break
            fallback_steps += 1
        step = t * d
        z, ev = z + step, accepted
        iterations += 1
        merit_history.append(ev.psi)
        step_norms.append(float(np.linalg.norm(step)))
    return InnerResult(
        x=z[:n],
        lam=z[n:],
        merit=ev.psi,
        iterations=iterations,
        converged=ev.psi <= tol,
        fallback_steps=fallback_steps,
        merit_history=merit_history,
        step_norms=step_norms,
    )


def _step_search(game, z, d, eps, p, psi0: float, v_norm: float):
    """Doubling/halving search for the largest step passing sufficient decrease.

    The test is psi(z + sigma*d) - psi0 <= -SUBGRAD_SLOPE * sigma * v_norm
    along the normalized direction ``d``. One stacked
    :func:`~mlfg.kkt.evaluate` call evaluates every step of
    ``SIGMA_LADDER``: ``sigma = 1`` and the halving ladder ``1/2, 1/4, ...``
    down to the first power of two at or below ``SIGMA_MIN``. When
    ``sigma = 1`` passes, the step doubles, one point per call, while it
    keeps passing; otherwise the largest step of the ladder that passes is
    accepted. Returns the accepted step with the evaluation at
    ``z + sigma*d``, or ``(0.0, None)`` when every step fails.
    """

    def trial(sigma):
        """The evaluation at ``z + sigma*d``, one row per step, and which
        steps pass."""
        ev = evaluate(game, z + np.multiply.outer(sigma, d), eps, p)
        return ev, ev.psi - psi0 <= -SUBGRAD_SLOPE * sigma * v_norm

    ladder, ok = trial(SIGMA_LADDER)
    first = int(ok.argmax())  # the largest passing step, or 0 when none passes
    if not ok[first]:
        return 0.0, None
    if first > 0:
        return float(SIGMA_LADDER[first]), ladder.row(first)
    sigma, ev = 1.0, ladder.row(0)
    while sigma < 2.0**30 and (larger := trial(2.0 * sigma))[1]:
        sigma, ev = 2.0 * sigma, larger[0]
    return sigma, ev


def subgradient_solve(
    game: GameSpec,
    z0: np.ndarray | None = None,
    eps: float = 1.0,
    p: int = 2,
    tol: float = 1e-10,
) -> InnerResult:
    """Subgradient descent on the merit, at most ``SUBGRAD_MAX_ITER`` steps.

    Each step forms the merit subgradient ``v = H.T @ F`` with
    :func:`~mlfg.kkt.merit_subgradient` from the current point's evaluation
    (no Jacobian is assembled) and searches along ``-v / |v|`` (a
    quasisecant of zero probe length) with :func:`_step_search`; the
    accepted point's evaluation is carried into the next step. A zero
    subgradient, or a search in which every step fails, ends the solve.
    Raises FloatingPointError when the merit at the start is not finite.
    """
    n = game.n
    z, ev = _start(game, z0, eps, p, tol)
    merit_history = [ev.psi]
    step_norms: list[float] = []
    iterations = 0
    while ev.psi > tol and iterations < SUBGRAD_MAX_ITER:
        v = merit_subgradient(game, ev)
        v_norm = float(np.linalg.norm(v))
        if v_norm == 0.0:
            break
        d = -v / v_norm
        sigma, accepted = _step_search(game, z, d, eps, p, ev.psi, v_norm)
        if accepted is None:
            break
        z, ev = z + sigma * d, accepted
        iterations += 1
        merit_history.append(ev.psi)
        step_norms.append(sigma)
    return InnerResult(
        x=z[:n],
        lam=z[n:],
        merit=ev.psi,
        iterations=iterations,
        converged=ev.psi <= tol,
        merit_history=merit_history,
        step_norms=step_norms,
    )
