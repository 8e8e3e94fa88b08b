"""Acceptance suite: one test per release criterion, with a printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import time

import numpy as np
import pytest

from mlfg import (
    best_response_exact,
    best_response_smoothed,
    best_response_qp_oracle,
    newton_solve,
    s_stationarity_certificate,
    subgradient_solve,
    taylor_direction,
    verify_nash,
)

from helpers import (
    jacobian_at,
    leader_gradient_smoothed,
    leader_objective_smoothed,
    min_curvature,
    monotonicity_probe,
    potential_identity_probe,
)
from test_kkt import fd_jacobian, random_smooth_point
from test_verify import grid_minimum, tiny_instance


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def timed_traces(ds1, ds2):
    from mlfg import homotopy_solve

    out = {}
    for name, game in (("ds1", ds1), ("ds2", ds2)):
        start = time.perf_counter()
        trace = homotopy_solve(game)
        out[name] = (trace, time.perf_counter() - start)
    return out


def random_starts(game):
    """Criterion 3's twenty starts: uniform in [-1, 1], multipliers clipped
    at zero, from a fixed generator."""
    rng = np.random.default_rng(2024)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, game.n + game.m_bar)
        z[game.n :] = np.maximum(z[game.n :], 0.0)
        yield z


def smallest_kink_distance(game, x):
    """Smallest ``|A_diff x|``: below ``2*eps`` means some follower component
    sits inside the smoothing band."""
    return float(np.min(np.abs(game.A_diff @ x)))


def test_criterion_1_dataset_reproduction(timed_traces):
    """Both bundled games converge at every stage down to the target level."""
    ok = True
    details = []
    for name in ("ds1", "ds2"):
        trace, wall = timed_traces[name]
        stage_ok = all(s.result.converged and s.result.merit <= 1e-10 for s in trace.stages)
        depth_ok = trace.final_eps <= 1e-6
        time_ok = wall < 5.0
        ok = ok and stage_ok and depth_ok and time_ok
        details.append(f"{name}: stages={len(trace.stages)} wall={wall:.2f}s")
    report("criterion 1 (dataset reproduction)", ok, "; ".join(details))


def test_criterion_2_quadratic_error_decay(timed_traces):
    """Log-log error slope against the smoothing level sits near two."""
    trace, _ = timed_traces["ds1"]
    eps = trace.eps_values()
    errs = trace.errors_to_final()
    window = slice(-7, -1)  # last six stages before the reference stage
    slope = np.polyfit(np.log(eps[window]), np.log(errs[window]), 1)[0]
    report(
        "criterion 2 (quadratic error decay)",
        1.7 <= slope <= 2.3,
        f"slope={slope:.3f}",
    )


def test_criterion_3_uniqueness_at_fixed_smoothing(ds1, ds2):
    """Twenty random starts agree on the equilibrium at a fixed level."""
    ok = True
    details = []
    for name, game in (("ds1", ds1), ("ds2", ds2)):
        finals = []
        for z in random_starts(game):
            res = newton_solve(game, z, eps=0.5, tol=1e-12)
            ok = ok and res.converged
            finals.append(res.x)
        spread = max(
            np.linalg.norm(a - b) for i, a in enumerate(finals) for b in finals[i + 1 :]
        )
        ok = ok and spread <= 1e-6
        details.append(f"{name}: spread={spread:.2e}")
    report("criterion 3 (uniqueness at fixed smoothing)", ok, "; ".join(details))


def test_criterion_4_method_difficulty_ordering(ds1, kink_game):
    """Iteration counts at smoothing levels 1.6 and 0.1, merit tolerance 1e-10.

    On dataset 1 from a cold start, the subgradient method is at least five
    times costlier than Newton at both levels and harder at the smaller one.
    Newton is harder at the smaller level while the equilibrium stays inside
    the smoothing band ``|t| < 2*eps``: measured as the median over criterion
    3's starts on a game whose equilibrium lies on the kinks at every level.
    Dataset 1 does not qualify: its equilibrium leaves the band at 0.1, where
    the system is almost piecewise affine and Newton needs no more steps.
    """
    levels = (1.6, 0.1)
    counts = {}
    ds1_dist = {}
    for eps in levels:
        res = newton_solve(ds1, eps=eps, tol=1e-10)
        counts[("newton", eps)] = res.iterations
        ds1_dist[eps] = smallest_kink_distance(ds1, res.x)
        counts[("subgradient", eps)] = subgradient_solve(
            ds1, eps=eps, tol=1e-10
        ).iterations
    factor_ok = all(
        counts[("subgradient", eps)] >= 5 * counts[("newton", eps)] for eps in levels
    )
    sub_order_ok = counts[("subgradient", 0.1)] > counts[("subgradient", 1.6)]

    median = {}
    kink_dist = {}
    converged = True
    for eps in levels:
        runs = [newton_solve(kink_game, z, eps=eps, tol=1e-10) for z in random_starts(kink_game)]
        converged = converged and all(r.converged for r in runs)
        median[eps] = float(np.median([r.iterations for r in runs]))
        kink_dist[eps] = max(smallest_kink_distance(kink_game, r.x) for r in runs)
    in_band = all(kink_dist[eps] < 2 * eps for eps in levels)
    newton_order_ok = converged and median[0.1] > median[1.6]

    def band(dist):
        return ", ".join(f"{dist[eps]:.2e}/{2 * eps:g}" for eps in levels)

    detail = (
        f"ds1 newton 1.6/0.1: {counts[('newton', 1.6)]}/{counts[('newton', 0.1)]}; "
        f"subgradient 1.6/0.1: {counts[('subgradient', 1.6)]}/{counts[('subgradient', 0.1)]}; "
        f"min|A_diff x| vs 2eps: {band(ds1_dist)} | "
        f"kink game newton median 1.6/0.1: {median[1.6]:g}/{median[0.1]:g}; "
        f"min|A_diff x| vs 2eps: {band(kink_dist)}"
    )
    if not in_band:
        report("criterion 4 premise (kink-game equilibrium inside the band)", False, detail)
    report(
        "criterion 4 (method difficulty ordering)",
        factor_ok and sub_order_ok and newton_order_ok,
        detail,
    )


def test_criterion_5_predictor_value(ds1, trace1, trace1_no_predictor):
    """The first-order warm-start predictor reduces effort on the schedule."""
    mean_on = np.mean([s.result.iterations for s in trace1.stages])
    mean_off = np.mean([s.result.iterations for s in trace1_no_predictor.stages])
    on = [s.warm_start_merit for s in trace1.stages[1:]]
    off = [s.warm_start_merit for s in trace1_no_predictor.stages[1:]]
    better = sum(1 for a, b in zip(on, off) if a <= b) / len(on)
    report(
        "criterion 5 (predictor value)",
        mean_on <= mean_off and better >= 0.8,
        f"mean iters on/off={mean_on:.3f}/{mean_off:.3f}, warm-start better on {better:.0%}",
    )


def test_criterion_6_nash_certification(ds1, ds2, timed_traces):
    """Every leader's global re-solve gap is at most 1e-5 at the final point."""
    ok = True
    details = []
    for name, game in (("ds1", ds1), ("ds2", ds2)):
        trace, _ = timed_traces[name]
        cert = verify_nash(game, trace.final.x, tol=1e-5)
        gap = float(np.max(cert.nash_gaps))
        ok = ok and cert.nash_certified and np.all(cert.nash_gaps >= -1e-12)
        details.append(f"{name}: max gap={gap:.2e}")
    report("criterion 6 (nash certification)", ok, "; ".join(details))


def test_criterion_7_s_stationarity(ds1, ds2, timed_traces):
    """Constructed multipliers satisfy the strong stationarity system."""
    ok = True
    details = []
    for name, game in (("ds1", ds1), ("ds2", ds2)):
        trace, _ = timed_traces[name]
        cert = s_stationarity_certificate(
            game, trace.final.x, trace.final.lam, trace.final_eps, tol=1e-6
        )
        worst = max(cert.s_stat_residuals.values())
        exact_split = np.array_equal(cert.Gamma1 + cert.Gamma2, game.follower.a)
        signs = bool(np.all(cert.Gamma1 >= 0.0) and np.all(cert.Gamma2 >= 0.0))
        ok = ok and cert.s_certified and exact_split and signs
        details.append(f"{name}: max residual={worst:.2e}")
    report("criterion 7 (strong stationarity certificate)", ok, "; ".join(details))


def test_criterion_8_derivative_correctness(ds1):
    """Selected Jacobians and leader gradients match finite differences."""
    rng = np.random.default_rng(11)
    eps = 0.5
    worst_jac = 0.0
    for _ in range(1000):
        z = random_smooth_point(ds1, rng, eps)
        H = jacobian_at(ds1, z, eps)
        J = fd_jacobian(ds1, z, eps)
        worst_jac = max(worst_jac, np.linalg.norm(H - J) / np.linalg.norm(J))
    worst_grad = 0.0
    h = 1e-6
    for _ in range(100):
        x0 = rng.uniform(-3, 3, 4)
        for nu in (1, 2):
            grad = leader_gradient_smoothed(ds1, nu, x0, eps)
            s = ds1.x_slice(nu)
            fd = np.empty(s.stop - s.start)
            for j_local, j in enumerate(range(s.start, s.stop)):
                xp = x0.copy(); xp[j] += h
                xm = x0.copy(); xm[j] -= h
                fd[j_local] = (
                    leader_objective_smoothed(ds1, nu, xp, eps)
                    - leader_objective_smoothed(ds1, nu, xm, eps)
                ) / (2 * h)
            denom = max(np.linalg.norm(fd), 1e-12)
            worst_grad = max(worst_grad, np.linalg.norm(grad - fd) / denom)
    report(
        "criterion 8 (derivative correctness)",
        worst_jac <= 1e-5 and worst_grad <= 1e-6,
        f"jacobian rel err={worst_jac:.2e}, gradient rel err={worst_grad:.2e}",
    )


def test_criterion_9_structural_properties(ds1, timed_traces):
    """Monotonicity, response bound, potential identity, predictor accuracy."""
    ratio = monotonicity_probe(ds1, eps=0.5, trials=100, seed=5)
    mono_ok = ratio >= min_curvature(ds1) - 1e-9

    rng = np.random.default_rng(6)
    bound_ok = True
    for _ in range(1000):
        x = rng.uniform(-5, 5, 4)
        eps = float(rng.uniform(1e-3, 2.0))
        gap = np.max(
            np.abs(best_response_smoothed(ds1, x, eps) - best_response_exact(ds1, x))
        )
        bound_ok = bound_ok and gap <= eps + 1e-12

    pot = potential_identity_probe(ds1, trials=100, seed=7)
    pot_ok = pot <= 1e-10

    eps, delta = 0.8, 1e-3
    tol = 1e-16
    base = newton_solve(ds1, eps=eps, tol=tol)
    z_base = np.concatenate([base.x, base.lam])
    up = newton_solve(ds1, z_base, eps=eps + delta, tol=tol)
    down = newton_solve(ds1, z_base, eps=eps - delta, tol=tol)
    fd = (up.x - down.x) / (2 * delta)
    d = taylor_direction(ds1, base.x, eps)
    taylor_err = np.linalg.norm(d - fd) / np.linalg.norm(fd)

    report(
        "criterion 9 (structural properties)",
        mono_ok and bound_ok and pot_ok and taylor_err <= 1e-2,
        f"monotonicity={ratio:.3f}, potential={pot:.1e}, predictor rel err={taylor_err:.1e}",
    )


def test_criterion_10_oracle_soundness():
    """Active-set enumeration agrees with dense grid search on random
    box-constrained instances."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        game = tiny_instance(rng)
        _, val = best_response_qp_oracle(game, 1, np.zeros(0))
        grid_val = grid_minimum(game, 1, np.zeros(0), lo=-1.0, hi=1.0)
        worst = max(worst, abs(val - grid_val))
    report("criterion 10 (oracle soundness)", worst <= 2e-3, f"max objective err={worst:.2e}")
