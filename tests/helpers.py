"""Reference evaluators and probes used only by the tests.

They re-derive quantities the library computes in stacked form (a single
leader's smoothed objective and gradient, one leader's rows of a coupling
matrix, the subgradient step search one trial point at a time), build the
selected Jacobian at a point from that point's own evaluation, evaluate
the game's exact potential and the smallest curvature of its Hessian stack,
or sample structural properties of a game (monotonicity of the stacked
gradient map, the exact-potential identity).
"""
import numpy as np

from mlfg import (
    GameSpec,
    best_response_exact,
    best_response_smoothed,
    leader_objective,
    smoothed_gradient_stack,
)
from mlfg.kkt import evaluate, generalized_jacobian, kkt_residual, residual_merit
from mlfg.solvers import SIGMA_MIN, SUBGRAD_SLOPE


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


def step_search_sequential(game, z, d, eps, p, psi0: float, v_norm: float):
    """The subgradient step search with one residual call per trial step.

    Same test and step sequence as ``mlfg.solvers._step_search``: sigma = 1,
    then doubling while it passes, or else halving until the first pass or
    until sigma <= SIGMA_MIN. Returns (sigma, residual, merit) or
    (0.0, None, None).
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
