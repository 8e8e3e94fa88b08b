"""Outer continuation: drive the smoothing parameter to zero geometrically.

Each stage solves the smoothed equilibrium system at the current level and
warm-starts the next one. A first-order predictor improves the primal warm
start: differentiating the stacked stationarity conditions along the
smoothing parameter yields a small SPD linear system for dx/deps whose
coefficient matrix is the Hessian stack plus the smoothing curvature term.

``HomotopyConfig.method`` names the inner solver, ``"newton"`` (the
default, :func:`~mlfg.solvers.newton_solve`) or ``"subgradient"``
(:func:`~mlfg.solvers.subgradient_solve`), and ``HomotopyConfig.tol`` is
the merit target of the last stage. The frozen config holds the one
schedule, ``HomotopyConfig.levels``. The start and every warm start are
flat iterates ``(x, lambda)``; each stage records its merit target and the
inner solver's :class:`~mlfg.solvers.InnerResult` as it is.

:func:`homotopy_solve` runs the paper's full continuation, every stage
solved to ``tol``. :func:`solve`, what ``mlfg solve`` calls, runs the same
schedule with inexact intermediate stages: each stage before the last
stops at ``max(tol, STAGE_TARGET * eps**2)``, since it only has to hand
its successor a warm start or, for the Newton method, land on the piece
of the exact endgame (:func:`~mlfg.solvers.endgame_step`). For Newton it
ends at the first certified endgame, and it certifies the point it
returns.
"""
from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kkt import curvature_block
# not called here; the benchmark's layer tracer binds it by this module's name
from .kkt import merit  # noqa: F401
from .model import GameSpec, vector_norm
from .smoothing import _two_eps, phi_tilde_d2, phi_tilde_dt_deps
from .solvers import InnerResult, check_tol, endgame_step, newton_solve, piece, subgradient_solve
from .verify import Certificate, certify

__all__ = [
    "HomotopyConfig",
    "StageRecord",
    "HomotopyTrace",
    "taylor_direction",
    "homotopy_solve",
    "Solution",
    "solve",
]


METHODS = ("newton", "subgradient")
# the most levels a schedule may hold; every level is built before the first stage
MAX_LEVELS = 10_000
# solve's merit target for a stage before the last, relative to its eps**2
STAGE_TARGET = 1e-4


@dataclass(frozen=True)
class HomotopyConfig:
    eps0: float = 1.6
    gamma: float = 0.5
    eps_min: float = 1e-6
    taylor: bool = True
    method: str = "newton"
    tol: float = 1e-10
    p: int = 2

    def __post_init__(self):
        if not 1.0 < self.eps0 < 2.0:
            raise ValueError("eps0 must lie in (1, 2)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.eps_min < self.eps0:
            raise ValueError("eps_min must lie in (0, eps0)")
        self.levels  # built here, so that a schedule too long is refused with the config
        _two_eps(self.eps_min, self.p)  # the kernel's own check of p
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        check_tol(self.tol)

    @cached_property
    def levels(self) -> tuple[float, ...]:
        """The schedule: ``eps0 * gamma**i`` for i = 0, 1, ... up to and
        including the first level at or below ``eps_min``; ValueError once it
        would pass ``MAX_LEVELS``."""
        levels = [self.eps0]
        while levels[-1] > self.eps_min:
            if len(levels) == MAX_LEVELS:
                raise ValueError(f"the schedule would hold more than {MAX_LEVELS} levels")
            levels.append(self.eps0 * self.gamma ** len(levels))
        return tuple(levels)

    @property
    def final_eps(self) -> float:
        """The schedule's last level: the ``final_eps`` of every run that reaches it."""
        return self.levels[-1]


@dataclass
class StageRecord:
    """One continuation stage: the merit target its inner solve stopped at,
    the solve, the merit of the warm start it began from (the first entry of
    the solve's merit trace), and the norm of the predictor it computed for
    the next."""

    index: int
    eps: float
    merit_target: float
    result: InnerResult
    predictor_norm: float
    wall_ms: float

    @property
    def warm_start_merit(self) -> float:
        return self.result.merit_history[0]


@dataclass
class HomotopyTrace:
    """Full continuation record; the last stage holds the candidate equilibrium."""

    stages: list[StageRecord]

    @property
    def converged(self) -> bool:
        """Whether every stage converged; the run stops at the first that does not."""
        return self.final.converged

    @property
    def final(self) -> InnerResult:
        return self.stages[-1].result

    @property
    def final_eps(self) -> float:
        """The last stage's level; ``cfg.final_eps`` unless the run ended early."""
        return self.stages[-1].eps

    def eps_values(self) -> np.ndarray:
        return np.array([s.eps for s in self.stages])

    def errors_to_final(self) -> np.ndarray:
        x_ref = self.final.x
        return np.array([vector_norm(s.result.x - x_ref) for s in self.stages])


def taylor_direction(game: GameSpec, x: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Sensitivity dx/deps of the stacked stationarity conditions.

    Implicit differentiation in ``eps``: the coefficient matrix is
    :func:`~mlfg.kkt.curvature_block`, SPD for valid game data, so one
    LAPACK solve (``numpy.linalg.solve``) always succeeds; the right-hand
    side carries the kernel's mixed second derivative.
    """
    A, a = game.A_diff, game.follower.a
    t = A @ np.asarray(x, dtype=float)
    h = -0.5 * A.T @ (a * phi_tilde_dt_deps(t, eps, p))
    return np.linalg.solve(curvature_block(game, phi_tilde_d2(t, eps, p)), h)


def _stages(
    game: GameSpec, z0: np.ndarray | None, cfg: HomotopyConfig, targets: list[float]
) -> Iterator[StageRecord]:
    """The continuation's stages, stage ``i`` solved to the merit target
    ``targets[i]``, each yielded after its predictor and before the next
    warm start is formed; the last is the schedule's last level or the
    first stage that fails to converge."""
    solve_inner = newton_solve if cfg.method == "newton" else subgradient_solve
    z_warm = z0
    for i, (eps, target) in enumerate(zip(cfg.levels, targets)):
        start = time.perf_counter()
        res = solve_inner(game, z_warm, eps, cfg.p, tol=target)
        wall_ms = (time.perf_counter() - start) * 1e3

        last = i + 1 == len(cfg.levels)
        d = np.zeros(game.n)
        if res.converged and cfg.taylor and not last:
            d = taylor_direction(game, res.x, cfg.levels[i + 1], cfg.p)

        yield StageRecord(i, eps, target, res, vector_norm(d), wall_ms)
        if not res.converged or last:
            return
        z_warm = np.concatenate([res.x - (eps - cfg.levels[i + 1]) * d, res.lam])


def homotopy_solve(
    game: GameSpec, z0: np.ndarray | None = None, cfg: HomotopyConfig | None = None
) -> HomotopyTrace:
    """Run the full continuation down to the target smoothing level.

    ``z0`` is the flat start ``(x, lambda)`` of length ``n + m_bar``, None
    for zeros. Stage ``i`` runs at ``cfg.levels[i]``; the run stops after
    the last level, or immediately when a stage fails to converge (the
    trace marks the failing stage). Every stage is solved to ``cfg.tol``.
    """
    cfg = cfg or HomotopyConfig()
    return HomotopyTrace(stages=list(_stages(game, z0, cfg, [cfg.tol] * len(cfg.levels))))


@dataclass
class Solution:
    """What :func:`solve` returns: the point ``(x, lam)``, its
    ``certificate`` (None when a stage failed to converge), the stages that
    ran as ``trace``, and ``endgame``, the index of the stage after which
    the exact endgame found the point (None for the last stage's point)."""

    x: np.ndarray
    lam: np.ndarray
    certificate: Certificate | None
    trace: HomotopyTrace
    endgame: int | None


def solve(
    game: GameSpec, z0: np.ndarray | None = None, cfg: HomotopyConfig | None = None
) -> Solution:
    """Solve ``game`` and certify the result, as ``mlfg solve`` does.

    Runs the schedule of :func:`homotopy_solve`, but stops each stage
    before the last at the merit target
    ``max(cfg.tol, STAGE_TARGET * eps**2)``, and only the last at
    ``cfg.tol``. For the Newton method, after each converged stage it takes
    :func:`~mlfg.solvers.endgame_step` on that stage's piece, and ends at
    the first result that ``certify`` passes at ``cfg.final_eps``, the
    gates the full run's point would face.
    Each piece (follower branches and active constraints) is tried once:
    the step from a piece already tried gives the same point. Otherwise
    the point is the last stage's, certified only when every stage
    converged. The subgradient method returns the paper's smoothed
    equilibrium at ``eps_min``, with no endgame.
    """
    cfg = cfg or HomotopyConfig()
    trace = HomotopyTrace(stages=[])
    tried: set[bytes] = set()
    targets = [max(cfg.tol, STAGE_TARGET * eps**2) for eps in cfg.levels[:-1]] + [cfg.tol]
    for stage in _stages(game, z0, cfg, targets):
        trace.stages.append(stage)
        res = stage.result
        if cfg.method != "newton" or not res.converged:
            continue
        xi, active = piece(game, np.concatenate([res.x, res.lam]))
        key = xi.tobytes() + active.tobytes()
        z = None if key in tried else endgame_step(game, xi, active)
        tried.add(key)
        if z is None:
            continue
        cert = certify(game, z[: game.n], z[game.n :], cfg.final_eps, p=cfg.p)
        if cert.certified:
            return Solution(z[: game.n], z[game.n :], cert, trace, stage.index)
    final = trace.final
    cert = certify(game, final.x, final.lam, cfg.final_eps, p=cfg.p) if trace.converged else None
    return Solution(final.x, final.lam, cert, trace, None)
