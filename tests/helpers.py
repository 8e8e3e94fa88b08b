"""Reference evaluators and probes used only by the tests.

They re-derive quantities the library computes in stacked form (a single
leader's nonsmooth or smoothed objective and gradient, one leader's rows
of a coupling matrix, the subgradient step search one trial point at a
time), build the selected Jacobian at a point from that point's own
evaluation, evaluate the game's exact potential and the smallest curvature
of its Hessian stack, sample structural properties of a game (monotonicity
of the stacked gradient map, the exact-potential identity), rebuild the
stages that ``mlfg.solve`` runs from the inner solvers, or compare two
runs' stages. :func:`verify_nash` gives the exact Nash gaps of a joint
strategy from the library's enumerating oracle, the reference that the
certificate's bounds must dominate; :func:`nash_gap_bounds` runs the
library's own bound on given multipliers. The endgame system assembled
with ``np.block`` and the Nash-gap bounds with one :func:`leader_objective`
call per leader are the references that the library's slice-assembled
endgame and shared-response bounds must match bit for bit.
"""
import numpy as np

from mlfg import (
    GameSpec,
    HomotopyConfig,
    StageRecord,
    best_response_exact,
    best_response_smoothed,
    newton_solve,
    subgradient_solve,
)
from mlfg.homotopy import STAGE_TARGET, taylor_direction
from mlfg.kkt import evaluate, generalized_jacobian, kkt_residual, residual_merit
from mlfg.smoothing import smoothed_gradient_stack
from mlfg.solvers import SIGMA_MIN, SUBGRAD_SLOPE, lu_solve
from mlfg.verify import _gap_bounds, best_response_qp_oracle


def slice_rows(game: GameSpec, M: np.ndarray, nu: int) -> np.ndarray:
    """Row block of an (n, m) coupling matrix belonging to leader ``nu``."""
    M = np.asarray(M)
    if M.shape[0] != game.n:
        raise ValueError(f"matrix has {M.shape[0]} rows, expected {game.n}")
    return M[game.x_slice(nu), :]


def jacobian_at(game: GameSpec, z: np.ndarray, eps: float, p: int = 2) -> np.ndarray:
    """The selected Jacobian at ``z``, built from the evaluation there."""
    return generalized_jacobian(game, evaluate(game, z, eps, p))


def min_curvature(game: GameSpec) -> float:
    """Smallest eigenvalue of the block-diagonal Hessian stack."""
    return min(float(np.linalg.eigvalsh(ld.Q)[0]) for ld in game.leaders)


def phi_value(game: GameSpec, x: np.ndarray) -> float:
    """Weighted follower response sum, the nonsmooth part of the potential."""
    return float(game.follower.a @ best_response_exact(game, x))


def potential_value(game: GameSpec, x: np.ndarray) -> float:
    """Exact potential: unilateral objective differences equal its differences."""
    x = np.asarray(x, dtype=float)
    quad = 0.0
    for nu, ld in enumerate(game.leaders, start=1):
        x_nu = x[game.x_slice(nu)]
        quad += 0.5 * x_nu @ ld.Q @ x_nu + ld.c @ x_nu
    return float(quad + phi_value(game, x))


def leader_objective(game: GameSpec, nu: int, x: np.ndarray) -> float:
    """Nonsmooth objective of leader ``nu`` at the joint strategy ``x``."""
    ld = game.leaders[nu - 1]
    x_nu = np.asarray(x, dtype=float)[game.x_slice(nu)]
    quad = 0.5 * x_nu @ ld.Q @ x_nu + ld.c @ x_nu
    return float(quad + game.follower.a @ best_response_exact(game, x))


def verify_nash(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Exact per-leader Nash gaps: each leader's objective minus the optimum
    of its epigraph QP against the rivals' blocks of ``x``, found by
    ``mlfg.verify.best_response_qp_oracle``'s enumeration of active sets."""
    x = np.asarray(x, dtype=float)
    gaps = np.empty(game.num_leaders)
    for nu in range(1, game.num_leaders + 1):
        _, opt = best_response_qp_oracle(game, nu, x)
        gaps[nu - 1] = leader_objective(game, nu, x) - opt
    return gaps


def nash_gap_bounds(game: GameSpec, x, lam, Gamma1) -> np.ndarray:
    """The certificate's weak-duality gap bounds at ``x`` for the multipliers
    ``lam`` and ``Gamma1``, clipped to dual feasibility by the library."""
    x = np.asarray(x, dtype=float)
    return _gap_bounds(game, x, lam, Gamma1, game.follower.a @ best_response_exact(game, x))


def leader_objective_smoothed(
    game: GameSpec, nu: int, x: np.ndarray, eps: float, p: int = 2
) -> float:
    ld = game.leaders[nu - 1]
    x_nu = np.asarray(x, dtype=float)[game.x_slice(nu)]
    quad = 0.5 * x_nu @ ld.Q @ x_nu + ld.c @ x_nu
    return float(quad + game.follower.a @ best_response_smoothed(game, x, eps, p))


def leader_gradient_smoothed(
    game: GameSpec, nu: int, x: np.ndarray, eps: float, p: int = 2
) -> np.ndarray:
    return smoothed_gradient_stack(game, x, eps, p)[game.x_slice(nu)]


def monotonicity_probe(
    game: GameSpec, eps: float, p: int = 2, trials: int = 100, seed: int = 0, scale: float = 3.0
) -> float:
    """Smallest observed monotonicity ratio of the stacked gradient map.

    The ratio (x - x')'(grad(x) - grad(x')) / |x - x'|^2 is bounded below
    by the smallest eigenvalue of the Hessian stack; this samples random
    distinct pairs and returns the minimum.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        x = scale * rng.standard_normal(game.n)
        x_hat = scale * rng.standard_normal(game.n)
        diff = x - x_hat
        nrm2 = float(diff @ diff)
        if nrm2 == 0.0:
            continue
        gap = smoothed_gradient_stack(game, x, eps, p) - smoothed_gradient_stack(
            game, x_hat, eps, p
        )
        worst = min(worst, float(diff @ gap) / nrm2)
    return worst


def potential_identity_probe(
    game: GameSpec, trials: int = 100, seed: int = 0, scale: float = 3.0
) -> float:
    """Largest observed mismatch between unilateral objective and potential
    differences over random strategy pairs; zero up to rounding."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        nu = int(rng.integers(1, game.num_leaders + 1))
        x = scale * rng.standard_normal(game.n)
        x_alt = x.copy()
        x_alt[game.x_slice(nu)] = scale * rng.standard_normal(game.leaders[nu - 1].n_vars)
        d_obj = leader_objective(game, nu, x_alt) - leader_objective(game, nu, x)
        d_pot = potential_value(game, x_alt) - potential_value(game, x)
        worst = max(worst, abs(d_obj - d_pot))
    return worst


def endgame_step_block(game: GameSpec, xi: np.ndarray, active: np.ndarray) -> np.ndarray | None:
    """``mlfg.solvers.endgame_step`` with its system assembled by ``np.block``."""
    n = game.n
    branching = game.A_diff.any(axis=1)
    if not np.all(xi[branching]):
        return None
    G_A = game.constraint_gradient_block[:, active]
    M = np.block([[game.Q_block, G_A], [G_A.T, np.zeros((G_A.shape[1],) * 2)]])
    rhs = -np.concatenate([game.stationarity_constant + game.half_A_diffT_a @ xi, game.b_stack[active]])
    sol = lu_solve(M, rhs)
    if sol is None:
        return None
    x_hat, lam_hat = sol[:n], np.zeros(game.m_bar)
    lam_hat[active] = sol[n:]
    on_piece = (
        np.array_equal(np.sign(game.A_diff @ x_hat)[branching], xi[branching])
        and np.all(sol[n:] >= 0.0)
        and np.all(game.constraint_values(x_hat)[~active] <= 0.0)
    )
    return np.concatenate([x_hat, lam_hat]) if on_piece else None


def nash_gap_bounds_per_leader(
    game: GameSpec, x: np.ndarray, lam: np.ndarray, Gamma1: np.ndarray
) -> np.ndarray:
    """:func:`nash_gap_bounds` with each candidate objective from its own
    :func:`leader_objective` call, which computes the exact response again."""
    x = np.asarray(x, dtype=float)
    lam = np.maximum(np.asarray(lam, dtype=float), 0.0)
    fol = game.follower
    Gamma1 = np.clip(np.asarray(Gamma1, dtype=float), 0.0, fol.a)
    Gamma2 = fol.a - Gamma1
    w = game.drive.T @ Gamma1 + fol.L @ Gamma2
    coupling = float(w @ x)
    bounds = np.empty(game.num_leaders)
    for nu, ld in enumerate(game.leaders, start=1):
        s = game.x_slice(nu)
        lam_nu = lam[game.lambda_slice(nu)]
        r = ld.c + w[s] + ld.A @ lam_nu
        u = -np.linalg.solve(ld.Q, r)
        dual = 0.5 * float(r @ u) + coupling - float(w[s] @ x[s]) + float(lam_nu @ ld.b)
        bounds[nu - 1] = leader_objective(game, nu, x) - dual
    return bounds


def step_search_sequential(game, z, d, eps, p, psi0: float, v_norm: float):
    """The subgradient step search with one residual call per trial step.

    Same test and accepted step as ``mlfg.solvers._step_search``, whatever
    its window: sigma = 1, then doubling while it passes, or else halving
    until the first pass or until sigma <= SIGMA_MIN, one point at a time
    where the library evaluates a window of the halving ladder in one
    stacked call and the rest of it in a second. Returns
    (sigma, residual, merit) or (0.0, None, None).
    """

    def trial(sigma: float):
        F = kkt_residual(game, z + sigma * d, eps, p)
        psi = residual_merit(F, game.n)
        return (F, psi) if psi - psi0 <= -SUBGRAD_SLOPE * sigma * v_norm else None

    sigma = 1.0
    passed = trial(sigma)
    if passed is not None:
        while sigma < 2.0**30 and (larger := trial(2.0 * sigma)) is not None:
            sigma, passed = 2.0 * sigma, larger
        return (sigma, *passed)
    while sigma > SIGMA_MIN:
        sigma *= 0.5
        if (passed := trial(sigma)) is not None:
            return (sigma, *passed)
    return 0.0, None, None


def inexact_stages(game: GameSpec, cfg: HomotopyConfig) -> list[StageRecord]:
    """The stages of ``mlfg.solve``'s continuation from the zero start,
    chained from the inner solvers: stage ``i`` solves level
    ``cfg.levels[i]`` to the merit target ``max(cfg.tol, STAGE_TARGET *
    eps**2)``, the last level to ``cfg.tol``, and warm-starts the next from
    its point moved along ``taylor_direction`` (when ``cfg.taylor``). Takes
    no endgame: ends after the last level or at the first stage that fails
    to converge. ``wall_ms`` is 0."""
    solve_inner = newton_solve if cfg.method == "newton" else subgradient_solve
    levels, stages, z = cfg.levels, [], None
    for i, eps in enumerate(levels):
        last = i == len(levels) - 1
        target = cfg.tol if last else max(cfg.tol, STAGE_TARGET * eps**2)
        res = solve_inner(game, z, eps, cfg.p, tol=target)
        d = np.zeros(game.n)
        if res.converged and cfg.taylor and not last:
            d = taylor_direction(game, res.x, levels[i + 1], cfg.p)
        stages.append(StageRecord(i, eps, target, res, float(np.linalg.norm(d)), 0.0))
        if last or not res.converged:
            break
        z = np.concatenate([res.x - (eps - levels[i + 1]) * d, res.lam])
    return stages


def assert_same_stages(ran, reference) -> None:
    """Each stage of ``ran`` equals the stage of ``reference`` at its
    position, bit for bit: level, merit target, predictor, inner merit and
    step traces, iterate."""
    assert len(ran) <= len(reference)
    for s, ref in zip(ran, reference):
        assert (s.index, s.eps, s.merit_target) == (ref.index, ref.eps, ref.merit_target)
        assert s.predictor_norm == ref.predictor_norm
        assert s.result.merit_history == ref.result.merit_history
        assert s.result.step_norms == ref.result.step_norms
        assert s.result.fallback_steps == ref.result.fallback_steps
        assert np.array_equal(s.result.x, ref.result.x)
        assert np.array_equal(s.result.lam, ref.result.lam)


def assert_stops_early_on_the_same_path(first, full_first) -> None:
    """Stage ``first``, run from the same start as ``full_first`` but to a
    looser merit target, took the first steps of ``full_first``'s solve."""
    h = first.result.merit_history
    assert h == full_first.result.merit_history[: len(h)]
    assert first.result.step_norms == full_first.result.step_norms[: len(h) - 1]
