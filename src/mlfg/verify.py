"""Independent certification of candidate equilibria.

Each leader's nonsmooth problem against frozen rivals is an exact convex QP
in epigraph form (exact because the response weights are nonnegative).
:func:`s_stationarity_certificate` builds a candidate's whole
:class:`Certificate` in one pass: strong stationarity residuals of the
complementarity-constrained form with explicitly constructed multipliers,
and upper bounds on every leader's Nash gap by Lagrangian weak duality at
those same multipliers, one small dense solve per leader. The bound holds
for any ``lam >= 0`` and any branch split of the response weights, so its
soundness does not depend on the solver path that produced the candidate
or on which of its two splits (the smoothed kernel's, or the exact branch
signs) the certificate keeps; a loose multiplier can only make it refuse,
never pass. :func:`certify` alone decides the verdict, gates scaled by the
smoothing level's payoff drift; ``lam=None`` fits the constraint
multipliers.

:func:`verify_nash` returns the exact gaps of a joint strategy: for each
leader, :func:`best_response_qp_oracle` enumerates every active set of
the epigraph QP against the rivals' blocks of that same strategy,
exponential in the follower dimension. It is the reference for the bound
on tiny instances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameSpec, finite_vector
from .smoothing import best_response_exact, leader_objective, phi_tilde_d1
from .solvers import check_tol, lu_solve

__all__ = [
    "OracleError",
    "Certificate",
    "best_response_qp_oracle",
    "verify_nash",
    "nash_gap_bounds",
    "certify",
    "smoothing_drift",
]

FEAS_TOL = 1e-9
MULT_TOL = 1e-9
# the Nash-gap and stationarity gates of :func:`certify` before drift scaling
NASH_TOL = 1e-5
STAT_TOL = 1e-6


class OracleError(RuntimeError):
    """The epigraph program has no feasible stationary candidate."""


@dataclass(frozen=True)
class Certificate:
    """A candidate's complete certificate, frozen: Nash-gap upper bounds,
    the branch indicators ``xi_bar`` and the branch multipliers they give,
    and the strong stationarity residuals, each with its gate. ``split``
    names where ``xi_bar`` came from: ``"smoothed"`` for the kernel
    derivative at the final smoothing level, ``"sign"`` for the sign of
    its argument."""

    nash_gaps: np.ndarray
    nash_tol: float
    xi_bar: np.ndarray
    Gamma1: np.ndarray
    Gamma2: np.ndarray
    s_stat_residuals: dict[str, float]
    s_tol: float
    split: str

    @property
    def worst(self) -> float:
        """The largest Nash gap or stationarity residual over its gate."""
        gaps = float(self.nash_gaps.max()) / self.nash_tol
        return max(gaps, max(self.s_stat_residuals.values()) / self.s_tol)

    @property
    def nash_certified(self) -> bool:
        return float(self.nash_gaps.max()) <= self.nash_tol

    @property
    def s_certified(self) -> bool:
        return max(self.s_stat_residuals.values()) <= self.s_tol

    @property
    def certified(self) -> bool:
        return self.nash_certified and self.s_certified

    def to_dict(self) -> dict:
        return {
            "nash_gaps": self.nash_gaps.tolist(),
            "nash_tol": self.nash_tol,
            "nash_certified": self.nash_certified,
            "nash_method": "weak_duality",
            "xi_bar": self.xi_bar.tolist(),
            "Gamma1": self.Gamma1.tolist(),
            "Gamma2": self.Gamma2.tolist(),
            "s_stat_residuals": self.s_stat_residuals,
            "s_tol": self.s_tol,
            "s_certified": self.s_certified,
            "split": self.split,
            "certified": self.certified,
        }


def best_response_qp_oracle(game: GameSpec, nu: int, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Global optimum of leader ``nu``'s problem against the rivals' blocks
    of the joint strategy ``x``; the own block of ``x`` is ignored.

    The problem is lifted to an exact QP in ``w``, the own block stacked
    with one epigraph variable per follower component; because the response
    weights are nonnegative the lift is tight at the optimum. Its constraint
    rows are ``G w + d <= 0``: both response branches lower-bound the
    epigraph variables, then the leader's own polyhedron. Every active set
    is enumerated: each subset yields an equality-constrained stationary
    system; candidates that are primal feasible with nonnegative
    multipliers are exact KKT points of the convex program, so the best of
    them is the global minimizer. Sizes here are tiny (at most a few
    hundred subsets).
    """
    ld, fol = game.leaders[nu - 1], game.follower
    n_nu, m = ld.n_vars, game.m
    s = game.x_slice(nu)
    rivals = finite_vector(x, "strategy x", game.n)
    rivals[s] = 0.0
    n_w = n_nu + m
    H = np.zeros((n_w, n_w))
    H[:n_nu, :n_nu] = ld.Q
    q = np.concatenate([ld.c, fol.a])
    G = np.block(
        [
            [game.drive[:, s], -np.eye(m)],
            [fol.L.T[:, s], -np.eye(m)],
            [ld.A.T, np.zeros((ld.n_constraints, m))],
        ]
    )
    d = np.concatenate([game.drive @ rivals, fol.L.T @ rivals, ld.b])
    n_cons = G.shape[0]
    best: tuple[float, np.ndarray] | None = None
    for mask in range(2**n_cons):
        active = [i for i in range(n_cons) if mask >> i & 1]
        k = len(active)
        KKT = np.zeros((n_w + k, n_w + k))
        KKT[:n_w, :n_w] = H
        if k:
            Ga = G[active, :]
            KKT[:n_w, n_w:] = Ga.T
            KKT[n_w:, :n_w] = Ga
        rhs = np.concatenate([-q, -d[active]])
        sol = lu_solve(KKT, rhs)
        if sol is None:
            continue
        w, mu = sol[:n_w], sol[n_w:]
        if np.any(mu < -MULT_TOL):
            continue
        if np.any(G @ w + d > FEAS_TOL):
            continue
        value = float(0.5 * w @ H @ w + q @ w)
        if best is None or value < best[0]:
            best = (value, w)
    if best is None:
        raise OracleError(f"leader {nu}: no feasible stationary active set found")
    value, w = best
    return w[:n_nu].copy(), float(value)


def verify_nash(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Exact per-leader Nash gaps against the epigraph oracle.

    A gap is the candidate objective minus the oracle optimum with rivals
    frozen; the reference that :func:`nash_gap_bounds` bounds from above.
    """
    x = np.asarray(x, dtype=float)
    gaps = np.empty(game.num_leaders)
    for nu in range(1, game.num_leaders + 1):
        _, opt = best_response_qp_oracle(game, nu, x)
        gaps[nu - 1] = leader_objective(game, nu, x) - opt
    return gaps


def nash_gap_bounds(
    game: GameSpec, x: np.ndarray, lam: np.ndarray, Gamma1: np.ndarray
) -> np.ndarray:
    """Upper bounds on every leader's Nash gap by Lagrangian weak duality.

    With rivals frozen, leader ``nu``'s epigraph QP (the one that
    :func:`best_response_qp_oracle` enumerates) has a dual function that is
    finite exactly when the branch multipliers satisfy
    ``Gamma1 + Gamma2 = a``; it is then the minimum over the own
    block ``u`` of a strictly convex quadratic Lagrangian, attained at
    ``u = -Q^{-1} (c + drive' Gamma1 + bound' Gamma2 + A lam_nu)``. At any
    dual-feasible point that value is at most the leader's optimum, so the
    candidate objective minus that value bounds the gap from above. Dual
    feasibility is enforced here rather than trusted: ``lam`` is clipped at
    zero, ``Gamma1`` to ``[0, a]``, and ``Gamma2 = a - Gamma1``.
    """
    x = np.asarray(x, dtype=float)
    return _gap_bounds(game, x, lam, Gamma1, game.follower.a @ best_response_exact(game, x))


def _gap_bounds(
    game: GameSpec, x: np.ndarray, lam: np.ndarray, Gamma1: np.ndarray, shared: float
) -> np.ndarray:
    """:func:`nash_gap_bounds` for a float array ``x``, given the term ``a'y(x)``
    of the exact response that every leader's objective shares. Each
    candidate objective is :func:`~mlfg.smoothing.leader_objective`'s, bit
    for bit."""
    lam = np.maximum(np.asarray(lam, dtype=float), 0.0)
    fol = game.follower
    Gamma1 = np.clip(np.asarray(Gamma1, dtype=float), 0.0, fol.a)
    Gamma2 = fol.a - Gamma1
    # the branch terms of the Lagrangian are linear in the joint strategy
    w = game.drive.T @ Gamma1 + fol.L @ Gamma2
    coupling = float(w @ x)
    bounds = np.empty(game.num_leaders)
    for nu, ld in enumerate(game.leaders, start=1):
        s = game.x_slice(nu)
        x_nu, lam_nu = x[s], lam[game.lambda_slice(nu)]
        r = ld.c + w[s] + ld.A @ lam_nu
        u = -np.linalg.solve(ld.Q, r)
        # at the minimizer 0.5 u'Qu + r'u = 0.5 r'u
        dual = 0.5 * float(r @ u) + coupling - float(w[s] @ x_nu) + float(lam_nu @ ld.b)
        # leader_objective's order of operations
        objective = float(0.5 * x_nu @ ld.Q @ x_nu + ld.c @ x_nu + shared)
        bounds[nu - 1] = objective - dual
    return bounds


def s_stationarity_certificate(
    game: GameSpec,
    x: np.ndarray,
    lam: np.ndarray | None,
    eps_final: float,
    p: int,
    tol: float,
    nash_tol: float,
) -> Certificate:
    """The complete :class:`Certificate` of a candidate, from one pass over
    its response and constraints that both branch splits share; a step of
    :func:`certify`, which checks the inputs and sets the gates ``tol`` and
    ``nash_tol``.

    The kernel's derivative values ``xi`` at the final smoothing level,
    unrounded, split the response weights between the two branches into the
    complementarity multipliers ``Gamma1 = a (1 - xi) / 2``. If that
    certificate is refused, it is built again with ``xi = sign(t)`` where
    the kernel's argument ``t`` is nonzero: the exact response's branch,
    which a component near the kink needs at an exact equilibrium. The
    split that passes is kept, or else the one whose worst gap or residual
    is smaller against its gate. ``lam=None`` fits the constraint
    multipliers for each split: least squares on the stationarity rows over
    the constraints with ``g >= -tol``, clipped at zero. Those multipliers
    bound the Nash gaps by weak duality (:func:`nash_gap_bounds`), which
    holds for either split.
    """
    x = np.asarray(x, dtype=float)
    fol = game.follower
    a = fol.a

    t = game.A_diff @ x
    xi_bar = np.asarray(phi_tilde_d1(t, eps_final, p), dtype=float)
    y = best_response_exact(game, x)
    shared = a @ y  # every leader objective's response term, in both splits
    G1 = y - game.drive @ x
    G2 = y - fol.L.T @ x
    g = game.constraint_values(x)
    base = game.Q_block @ x + game.c_stack
    if lam is None:
        active = g >= -tol
        G = game.constraint_gradient_block[:, active]

    def split_certificate(split: str, xi: np.ndarray) -> Certificate:
        Gamma1 = 0.5 * a * (1.0 - xi)
        Gamma2 = a - Gamma1
        drive_term, bound_term = game.drive.T @ Gamma1, fol.L @ Gamma2
        if lam is None:
            mult = np.zeros(game.m_bar)
            r = base + (drive_term + bound_term)
            mult[active] = np.maximum(np.linalg.lstsq(G, -r, rcond=None)[0], 0.0)
        else:
            mult = np.asarray(lam, dtype=float)
        stat_x = base + game.constraint_gradient_block @ mult + drive_term + bound_term
        # initial=0.0 keeps each reduction over the follower or the
        # constraints defined when that set is empty
        residuals = {
            "stationarity_x": float(np.abs(stat_x).max()),
            "stationarity_y": float(np.abs(a - Gamma1 - Gamma2).max(initial=0.0)),
            "primal_feasibility": float(max(0.0, g.max(initial=0.0))),
            "multiplier_sign": float(max(0.0, -mult.min(initial=0.0))),
            "constraint_complementarity": float(np.abs(g * mult).max(initial=0.0)),
            "response_complementarity": float(np.abs(np.minimum(G1, G2)).max(initial=0.0)),
            "branch1_complementarity": float(np.abs(G1 * Gamma1).max(initial=0.0)),
            "branch2_complementarity": float(np.abs(G2 * Gamma2).max(initial=0.0)),
            "gamma_sign": float(
                max(0.0, -min(Gamma1.min(initial=0.0), Gamma2.min(initial=0.0)))
            ),
        }
        gaps = _gap_bounds(game, x, mult, Gamma1, shared)
        return Certificate(gaps, nash_tol, xi, Gamma1, Gamma2, residuals, tol, split)

    cert = split_certificate("smoothed", xi_bar)
    if cert.certified:
        return cert
    limit = split_certificate("sign", np.where(t != 0.0, np.sign(t), xi_bar))
    return limit if limit.certified or limit.worst < cert.worst else cert


def certify(
    game: GameSpec,
    x: np.ndarray,
    lam: np.ndarray | None,
    eps_final: float,
    p: int = 2,
    nash_tol: float = NASH_TOL,
) -> Certificate:
    """Combined Nash-gap and strong-stationarity certificate; the one place
    a candidate's verdict is decided.

    A candidate from a run stopped at ``eps_final`` is certifiable only up
    to that level's payoff drift (:func:`smoothing_drift`), so the gates are
    ``max(nash_tol, drift)`` and ``max(STAT_TOL, drift)``; the gaps and
    residuals are reported raw. The gaps of the certificate that
    :func:`s_stationarity_certificate` builds at those gates bound the true
    gaps from above for every ``lam >= 0`` (``None`` fits it), so a
    certified verdict implies true gaps within the Nash gate.

    Raises ValueError for an ``x`` or ``lam`` of the wrong length or not finite, a
    ``nash_tol`` outside ``(0, inf)``, or (in the kernel) a bad ``eps_final`` or ``p``.
    """
    check_tol(nash_tol)
    x = finite_vector(x, "candidate x", game.n)
    if lam is not None:
        lam = finite_vector(lam, "candidate lambda", game.m_bar)
    drift = smoothing_drift(game, eps_final)
    return s_stationarity_certificate(
        game, x, lam, eps_final, p, max(STAT_TOL, drift), max(nash_tol, drift)
    )


def smoothing_drift(game: GameSpec, eps_final: float) -> float:
    """Worst-case payoff drift of the smoothed game at a smoothing level.

    The smoothed response exceeds the exact one by at most ``eps_final``
    componentwise, so every smoothed objective is within
    ``eps_final * sum(a)`` of the exact one. Candidates taken from a run
    stopped at that level can only be certified up to this drift.
    """
    return float(eps_final * game.follower.a.sum())
