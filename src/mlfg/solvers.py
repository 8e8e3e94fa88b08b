"""Inner equilibrium solvers at a fixed smoothing level.

Both methods minimize the merit (half squared residual norm) in one
descent loop, :func:`_descend`, on the flat vector ``z = (x, lambda)`` of
length ``n + m_bar``. It checks ``tol`` with :func:`check_tol` and the
start (None for zeros), whose merit must be finite, then steps until the
merit reaches ``tol``, the method's cap (``NEWTON_MAX_ITER`` or
``SUBGRAD_MAX_ITER``) is hit or its step rule finds no step. Each step
rule evaluates every trial point once with :func:`~mlfg.kkt.evaluate` and
returns the :class:`~mlfg.kkt.Evaluation` of the point it accepts; the
loop carries it into the next step, so no point is evaluated twice, and
its :class:`InnerResult` splits the final iterate into ``x`` and ``lam``.
The step rules:

* semismooth Newton: one backtracking Armijo search on the merit, along
  the Newton direction of the selected Jacobian
  :func:`~mlfg.kkt.generalized_jacobian` (one LAPACK solve,
  :func:`lu_solve`, which returns None for a singular or numerically
  singular Jacobian), or along the negative merit gradient (a fallback
  step) when that Jacobian is singular or no Newton step passes;
* subgradient descent: along the normalized negative merit subgradient,
  which :func:`~mlfg.kkt.merit_subgradient` forms without a Jacobian, with
  a doubling/halving step length search against a sufficient-decrease
  test over the unit step and the halving ladder ``SIGMA_LADDER``: one
  stacked evaluation of a window of the ladder, which starts at the unit
  step and ends ``WINDOW_MARGIN`` rows below the step accepted last (the
  whole ladder on the first step of a solve), and a second one of the
  rest of the ladder only when no step of the window passes; the search
  doubles one point at a time only when the unit step passes. The window
  changes how many points are evaluated, never the step accepted. A zero
  subgradient or a search in which every step fails ends the solve.

Both are deterministic and keep the merit monotonically nonincreasing.

:func:`endgame_step` leaves the smoothing behind: one Newton step on the
unsmoothed (eps = 0) system, on a given :func:`piece` (follower branches
and active constraints). The system is linear on a piece, so the step
lands on the exact equilibrium whenever the piece holds it, and it
returns its result only when it lies on that piece.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kkt import Evaluation, evaluate, flat_point, generalized_jacobian, merit_subgradient
# not called here; the benchmark's layer tracer binds it by this module's name
from .kkt import kkt_residual  # noqa: F401
from .model import GameSpec, vector_norm

__all__ = [
    "InnerResult",
    "lu_solve",
    "newton_solve",
    "piece",
    "endgame_step",
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
LADDER_SIZE = len(SIGMA_LADDER)
# the right-hand side -SUBGRAD_SLOPE * sigma of the decrease test per ladder
# step, before its factor |v|
LADDER_SLOPES = -SUBGRAD_SLOPE * SIGMA_LADDER
LADDER_SLOPES.flags.writeable = False
# rows below the last accepted step that a subgradient step search's first
# call also evaluates
WINDOW_MARGIN = 3


def check_tol(tol: float) -> None:
    """Reject a merit tolerance outside ``(0, inf)`` (NaN included)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


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
    size = np.abs(x).max(initial=0.0) * PIVOT_TOL * np.abs(A).max(initial=0.0)
    # written so that a NaN anywhere fails the test
    if not (np.isfinite(x).all() and size <= np.abs(b).max(initial=0.0)):
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
    fallback_steps: int
    merit_history: list[float]
    step_norms: list[float]


def _descend(game: GameSpec, z0, eps, p, tol, max_iter: int, step) -> InnerResult:
    """The descent loop of both methods (see the module docstring).

    ``step(z, ev)`` gets the current point and its evaluation and returns
    ``(dz, ev_next, size, fallback)``: the step, the next point's
    evaluation, the size recorded in ``step_norms`` and whether it counts
    as a fallback step; or None, which ends the solve. Raises
    FloatingPointError when the merit at the start is not finite.
    """
    check_tol(tol)
    z = flat_point(game, z0)
    # a start that overflows raises the FloatingPointError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        ev = evaluate(game, z, eps, p)
    if not np.isfinite(ev.psi):
        raise FloatingPointError(f"merit is not finite at the start, got {ev.psi}")
    merit_history = [ev.psi]
    step_norms: list[float] = []
    fallback_steps = 0
    while ev.psi > tol and len(step_norms) < max_iter:
        taken = step(z, ev)
        if taken is None:
            break
        dz, ev, size, fallback = taken
        z = z + dz
        merit_history.append(ev.psi)
        step_norms.append(size)
        fallback_steps += fallback
    return InnerResult(
        x=z[: game.n],
        lam=z[game.n :],
        merit=ev.psi,
        iterations=len(step_norms),
        converged=ev.psi <= tol,
        fallback_steps=fallback_steps,
        merit_history=merit_history,
        step_norms=step_norms,
    )


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

    def step(z, ev):
        H = generalized_jacobian(game, ev)
        g = H.T @ ev.F
        for d, fallback in ((lu_solve(H, -ev.F), False), (-g, True)):
            if d is not None:
                t, accepted = armijo_search(game, z, d, ev.psi, g @ d, eps, p)
                if accepted is not None:
                    dz = t * d
                    return dz, accepted, vector_norm(dz), fallback
        return None

    return _descend(game, z0, eps, p, tol, NEWTON_MAX_ITER, step)


def _step_search(game, z, d, eps, p, psi0: float, v_norm: float, rows: int = LADDER_SIZE):
    """Doubling/halving search for the largest step passing sufficient decrease.

    The test is psi(z + sigma*d) - psi0 <= -SUBGRAD_SLOPE * sigma * v_norm
    along the normalized direction ``d``, over the steps of ``SIGMA_LADDER``:
    ``sigma = 1`` and the halving ladder ``1/2, 1/4, ...`` down to the first
    power of two at or below ``SIGMA_MIN``. One stacked
    :func:`~mlfg.kkt.evaluate` call evaluates the window of its first
    ``rows`` steps, and a second one the rest of the ladder, only when no
    step of the window passes. When ``sigma = 1`` passes, the step doubles,
    one point per call, while it keeps passing; otherwise the largest step
    of the ladder that passes is accepted, whatever the window. Returns the
    accepted step with the evaluation at ``z + sigma*d``, or ``(0.0, None)``
    when every step fails.
    """

    def trial(sigma, slopes):
        """The evaluation at ``z + sigma*d``, one row per step of a column
        ``sigma``, and which steps pass; ``slopes`` is ``-SUBGRAD_SLOPE * sigma``."""
        ev = evaluate(game, z + sigma * d, eps, p)
        return ev, ev.psi - psi0 <= slopes * v_norm

    for lo, hi in ((0, rows), (rows, LADDER_SIZE)):
        if lo < hi:
            ladder, ok = trial(SIGMA_LADDER[lo:hi, None], LADDER_SLOPES[lo:hi])
            first = int(ok.argmax())  # the largest passing step, or 0 when none passes
            if ok[first]:
                break
    else:
        return 0.0, None
    if lo + first > 0:
        return float(SIGMA_LADDER[lo + first]), ladder.row(first)
    sigma, ev = 1.0, ladder.row(0)
    while sigma < 2.0**30 and (larger := trial(2.0 * sigma, -SUBGRAD_SLOPE * (2.0 * sigma)))[1]:
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
    accepted point's evaluation is carried into the next step. The first
    search of a solve evaluates the whole ladder at once; each later one
    starts with the window that ends ``WINDOW_MARGIN`` rows below the step
    accepted last, since consecutive steps accept nearby rows. The window
    changes only how many points a call evaluates, never the step accepted.
    A zero subgradient, or a search in which every step fails, ends the
    solve. Raises FloatingPointError when the merit at the start is not
    finite.
    """
    rows = LADDER_SIZE

    def step(z, ev):
        nonlocal rows
        v = merit_subgradient(game, ev)
        v_norm = vector_norm(v)
        if v_norm == 0.0:
            return None
        d = v / -v_norm
        sigma, accepted = _step_search(game, z, d, eps, p, ev.psi, v_norm, rows)
        if accepted is None:
            return None
        # sigma is a power of two, so this is exactly its ladder index (0 for sigma >= 1)
        rows = min(max(0, -int(math.log2(sigma))) + WINDOW_MARGIN, LADDER_SIZE)
        return sigma * d, accepted, sigma, False

    return _descend(game, z0, eps, p, tol, SUBGRAD_MAX_ITER, step)


def piece(game: GameSpec, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The piece of the unsmoothed system at ``z = (x, lambda)``: the follower
    branches ``xi = sign(A_diff x)``, zero at a kink, and the constraint
    branch ``lambda > -g`` of every min row (ties go to the multiplier
    branch, as in :func:`~mlfg.kkt.evaluate`)."""
    x, lam = z[: game.n], z[game.n :]
    return np.sign(game.A_diff @ x), lam > -game.constraint_values(x)


def endgame_step(game: GameSpec, xi: np.ndarray, active: np.ndarray) -> np.ndarray | None:
    """One semismooth Newton step on the unsmoothed (eps = 0) system, on the
    piece of follower branches ``xi`` and active constraints ``active`` (a
    :func:`piece`); the exact equilibrium if that piece holds it.

    With the branches ``xi`` and the active constraints ``A`` fixed, the
    equilibrium conditions are the linear system
    ``[Q_block G_A; G_A' 0] (x, lambda_A) = -(c + 0.5 S' a + 0.5 A_diff' diag(a) xi, b_A)``,
    solved with :func:`lu_solve`. A zero row of ``A_diff`` is free: both of
    its branches are the same map, so its entry of ``xi`` is not read.
    Returns the flat ``(x, lambda)`` of the solution, zero off ``A``, only
    when it lies on the piece: ``sign(A_diff x) == xi`` on the other rows,
    ``lambda_A >= 0`` and ``g(x) <= 0`` off ``A``. Returns None otherwise:
    for a singular system, or a zero in ``xi`` on a nonzero row.
    """
    n = game.n
    # rows whose two branches differ; a zero row is the same map on both
    branching = game.A_diff.any(axis=1)
    if not xi[branching].all():
        return None
    G_A = game.constraint_gradient_block[:, active]
    M = np.zeros((n + G_A.shape[1],) * 2)
    M[:n, :n] = game.Q_block
    M[:n, n:] = G_A
    M[n:, :n] = G_A.T
    rhs = -np.concatenate([game.stationarity_constant + game.half_A_diffT_a @ xi, game.b_stack[active]])
    sol = lu_solve(M, rhs)
    if sol is None:
        return None
    x_hat, lam_hat = sol[:n], np.zeros(game.m_bar)
    lam_hat[active] = sol[n:]
    on_piece = (
        np.array_equal(np.sign(game.A_diff @ x_hat)[branching], xi[branching])
        and (sol[n:] >= 0.0).all()
        and (game.constraint_values(x_hat)[~active] <= 0.0).all()
    )
    return np.concatenate([x_hat, lam_hat]) if on_piece else None
