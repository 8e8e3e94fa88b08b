"""Outer continuation: drive the smoothing parameter to zero geometrically.

Each stage solves the smoothed equilibrium system at the current level and
warm-starts the next one. A first-order predictor improves the primal warm
start: differentiating the stacked stationarity conditions along the
smoothing parameter yields a small SPD linear system for dx/deps whose
coefficient matrix is the Hessian stack plus the smoothing curvature term.

The inner solver is chosen by the type of ``HomotopyConfig.inner``: a
:class:`~mlfg.solvers.NewtonConfig` (the default) runs the semismooth
Newton method, a :class:`~mlfg.solvers.SubgradConfig` the subgradient
method, each with that configuration. Between stages the warm start is
carried as the flat iterate ``(x, lambda)``; each stage's solution is
recorded as a :class:`~mlfg.model.PrimalDualPoint`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .kkt import curvature_block, flat_point, merit
from .model import GameSpec, PrimalDualPoint
from .smoothing import phi_tilde_dt_deps
from .solvers import NewtonConfig, SubgradConfig, newton_solve, subgradient_solve

__all__ = [
    "HomotopyConfig",
    "StageRecord",
    "HomotopyTrace",
    "taylor_direction",
    "homotopy_solve",
]


@dataclass
class HomotopyConfig:
    eps0: float = 1.6
    gamma: float = 0.5
    eps_min: float = 1e-6
    taylor: bool = True
    inner: NewtonConfig | SubgradConfig = field(default_factory=NewtonConfig)
    p: int = 2

    def __post_init__(self):
        if not 1.0 < self.eps0 < 2.0:
            raise ValueError("eps0 must lie in (1, 2)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.eps_min < self.eps0:
            raise ValueError("eps_min must lie in (0, eps0)")
        if self.p < 2 or self.p % 2 != 0:
            raise ValueError("p must be an even integer >= 2")
        if not isinstance(self.inner, (NewtonConfig, SubgradConfig)):
            raise ValueError("inner must be a NewtonConfig or a SubgradConfig")


@dataclass
class StageRecord:
    """Diagnostics of one continuation stage."""

    index: int
    eps: float
    z_star: PrimalDualPoint
    inner_iterations: int
    merit_final: float
    warm_start_merit: float
    predictor_norm: float
    converged: bool
    wall_ms: float
    fallback_steps: int = 0
    merit_history: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)


@dataclass
class HomotopyTrace:
    """Full continuation record; the last stage holds the candidate equilibrium."""

    stages: list[StageRecord]
    converged: bool

    @property
    def final(self) -> PrimalDualPoint:
        return self.stages[-1].z_star

    @property
    def final_eps(self) -> float:
        return self.stages[-1].eps

    def eps_values(self) -> np.ndarray:
        return np.array([s.eps for s in self.stages])

    def errors_to_final(self) -> np.ndarray:
        x_ref = self.final.x
        return np.array([float(np.linalg.norm(s.z_star.x - x_ref)) for s in self.stages])


def taylor_direction(game: GameSpec, x: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """Sensitivity dx/deps of the stacked stationarity conditions.

    Implicit differentiation in ``eps``: the coefficient matrix is
    :func:`~mlfg.kkt.curvature_block`, SPD for valid game data, so one
    LAPACK solve (``numpy.linalg.solve``) always succeeds; the right-hand
    side carries the kernel's mixed second derivative.
    """
    A = game.A_diff
    t = A @ np.asarray(x, dtype=float)
    h = -0.5 * A.T @ (game.follower.a * phi_tilde_dt_deps(t, eps, p))
    return np.linalg.solve(curvature_block(game, x, eps, p), h)


def homotopy_solve(
    game: GameSpec,
    z0: PrimalDualPoint | None = None,
    cfg: HomotopyConfig | None = None,
) -> HomotopyTrace:
    """Run the full continuation down to the target smoothing level.

    Stage levels follow eps0 * gamma**i exactly; the run stops after the
    first stage at or below ``eps_min``, or immediately when a stage fails
    to converge (the trace marks the failing stage).
    """
    cfg = cfg or HomotopyConfig()
    solve_inner = newton_solve if isinstance(cfg.inner, NewtonConfig) else subgradient_solve
    z_warm = flat_point(game, z0)
    stages: list[StageRecord] = []
    i = 0
    while True:
        eps = cfg.eps0 * cfg.gamma**i
        warm_merit = merit(game, z_warm, eps, cfg.p)
        start = time.perf_counter()
        res = solve_inner(game, z_warm, eps, cfg.p, cfg.inner)
        wall_ms = (time.perf_counter() - start) * 1e3

        eps_next = cfg.eps0 * cfg.gamma ** (i + 1)
        d = np.zeros(game.n)
        if res.converged and cfg.taylor and eps > cfg.eps_min:
            d = taylor_direction(game, res.z.x, eps_next, cfg.p)

        stages.append(
            StageRecord(
                index=i,
                eps=eps,
                z_star=res.z,
                inner_iterations=res.iterations,
                merit_final=res.merit,
                warm_start_merit=warm_merit,
                predictor_norm=float(np.linalg.norm(d)),
                converged=res.converged,
                wall_ms=wall_ms,
                fallback_steps=res.fallback_steps,
                merit_history=res.merit_history,
                step_norms=res.step_norms,
            )
        )
        if not res.converged or eps <= cfg.eps_min:
            break
        z_warm = res.z.stack()
        z_warm[: game.n] -= (eps - eps_next) * d
        i += 1
    return HomotopyTrace(stages=stages, converged=all(s.converged for s in stages))
