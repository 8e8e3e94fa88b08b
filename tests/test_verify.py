import dataclasses

import numpy as np
import pytest

import mlfg.verify
from mlfg import certify, homotopy_solve
from mlfg.smoothing import leader_objective
from mlfg.verify import (
    NASH_TOL,
    STAT_TOL,
    Certificate,
    OracleError,
    best_response_qp_oracle,
    nash_gap_bounds,
    s_stationarity_certificate,
    verify_nash,
)

from conftest import make_game
from helpers import min_curvature, monotonicity_probe, potential_identity_probe


def grid_minimum(game, nu, x, lo, hi, resolution=1e-3, chunk=250):
    """Independent dense-grid oracle over a box for leader ``nu``.

    The objective is evaluated on an open broadcast grid of the own block,
    one axis per variable and the rivals fixed at their blocks of the joint
    strategy ``x``, ``chunk`` values of the first variable at a time;
    infeasible points count as inf.
    """
    ld, fol = game.leaders[nu - 1], game.follower
    own = np.zeros(game.n, dtype=bool)
    own[game.x_slice(nu)] = True
    drive = fol.B / fol.Qy_diag
    axis = np.arange(lo, hi + resolution / 2, resolution)
    best = np.inf
    for start in range(0, axis.shape[0], chunk):
        X = np.ix_(axis[start : start + chunk], *[axis] * (ld.n_vars - 1))

        def form(w, const=0.0):
            """``w @ x_own + const`` at every grid point."""
            return sum(wi * Xi for wi, Xi in zip(w, X)) + const

        def joint(w):
            """``w`` times the joint strategy at every grid point."""
            return form(w[own], x[~own] @ w[~own])

        quad = sum(form(0.5 * ld.Q[i], ld.c[i]) * X[i] for i in range(ld.n_vars))
        resp = sum(
            a * np.maximum(joint(dj), joint(Lj)) for a, dj, Lj in zip(fol.a, drive.T, fol.L.T)
        )
        feasible = np.logical_and.reduce([form(Ai, bi) <= 1e-12 for Ai, bi in zip(ld.A.T, ld.b)])
        best = min(best, float(np.min(np.where(feasible, quad + resp, np.inf))))
    return best


def _grid_eval_values(game, nu, candidates, x):
    """Vectorized objective over candidate own-blocks, the rivals fixed at
    their blocks of the joint strategy ``x``; inf when infeasible."""
    ld = game.leaders[nu - 1]
    fol = game.follower
    full = np.tile(x, (candidates.shape[0], 1))
    full[:, game.x_slice(nu)] = candidates

    quad = 0.5 * np.einsum("ij,jk,ik->i", candidates, ld.Q, candidates) + candidates @ ld.c
    drive = full @ (fol.B / fol.Qy_diag[None, :])
    bound = full @ fol.L
    resp = np.maximum(drive, bound) @ fol.a
    obj = quad + resp
    feas = np.all(candidates @ ld.A + ld.b[None, :] <= 1e-12, axis=1)
    obj[~feas] = np.inf
    return obj


def tiny_instance(rng):
    """Random box-constrained single-leader game for oracle cross-checks."""
    k = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    M = rng.uniform(-1, 1, (k, k))
    Q = M.T @ M + (0.5 + rng.uniform(0, 1)) * np.eye(k)
    c = rng.uniform(-2, 2, k)
    A = np.hstack([np.eye(k), -np.eye(k)])  # box |x_i| <= 1
    b = -np.ones(2 * k)
    B = rng.uniform(-2, 2, (k, m))
    L = rng.uniform(-2, 2, (k, m))
    Qy = rng.uniform(0.5, 3.0, m)
    a = rng.uniform(0.0, 2.0, m)
    return make_game([Q], [c], [A], [b], Qy, B, L, a)


class TestOracle:
    def test_unconstrained_quadratic(self, quadratic_game):
        game = quadratic_game
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        for nu in (1, 2):
            ld = game.leaders[nu - 1]
            x_opt, val = best_response_qp_oracle(game, nu, x)
            np.testing.assert_allclose(x_opt, -np.linalg.solve(ld.Q, ld.c), atol=1e-9)
            expected = 0.5 * x_opt @ ld.Q @ x_opt + ld.c @ x_opt
            assert val == pytest.approx(expected, abs=1e-10)

    def test_projection_onto_halfspace(self):
        # min 0.5 x^2 subject to x >= 1, follower weight zero
        game = make_game(
            [np.array([[1.0]])],
            [np.zeros(1)],
            [np.array([[-1.0]])],
            [np.array([1.0])],
            np.array([1.0]),
            np.array([[1.0]]),
            np.array([[1.0]]),
            np.array([0.0]),
        )
        x_opt, val = best_response_qp_oracle(game, 1, np.zeros(game.n))
        assert x_opt[0] == pytest.approx(1.0, abs=1e-10)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_matches_candidate_objective_at_equilibrium(self, ds1, trace1):
        x = trace1.final.x
        for nu in (1, 2):
            _, val = best_response_qp_oracle(ds1, nu, x)
            assert abs(leader_objective(ds1, nu, x) - val) <= 1e-5

    def test_grid_cross_validation_at_equilibrium(self, ds1, trace1):
        # coarse-to-fine grid refinement is sound here because the leader
        # objective is strictly convex in its own block
        x = trace1.final.x
        _, val = best_response_qp_oracle(ds1, 1, x)

        def mesh(a0, a1):
            X0, X1 = np.meshgrid(a0, a1, indexing="ij")
            return np.column_stack([X0.ravel(), X1.ravel()])

        coarse_axis = np.arange(-4.0, 1.0 + 1e-9, 2e-2)
        coarse = mesh(coarse_axis, coarse_axis)
        center = coarse[int(np.argmin(_grid_eval_values(ds1, 1, coarse, x)))]
        fine = mesh(
            np.arange(center[0] - 0.04, center[0] + 0.04 + 1e-9, 1e-3),
            np.arange(center[1] - 0.04, center[1] + 0.04 + 1e-9, 1e-3),
        )
        fine_val = float(np.min(_grid_eval_values(ds1, 1, fine, x)))
        assert abs(val - fine_val) <= 2e-3

    def test_random_instances_against_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            game = tiny_instance(rng)
            x_opt, val = best_response_qp_oracle(game, 1, np.zeros(game.n))
            assert np.all(np.abs(x_opt) <= 1.0 + 1e-9)
            grid_val = grid_minimum(game, 1, np.zeros(game.n), lo=-1.0, hi=1.0)
            assert abs(val - grid_val) <= 2e-3

    def test_infeasible_reported(self):
        # x <= -1 and x >= 1 cannot hold together
        game = make_game(
            [np.array([[1.0]])],
            [np.zeros(1)],
            [np.array([[1.0, -1.0]])],
            [np.array([1.0, 1.0])],
            np.array([1.0]),
            np.array([[1.0]]),
            np.array([[1.0]]),
            np.array([0.5]),
        )
        with pytest.raises(OracleError):
            best_response_qp_oracle(game, 1, np.zeros(game.n))


class TestVerifyNash:
    def test_quadratic_equilibrium_certifies(self, quadratic_game):
        game = quadratic_game
        x_star = np.concatenate([-np.linalg.solve(ld.Q, ld.c) for ld in game.leaders])
        gaps = verify_nash(game, x_star)
        assert np.all(gaps <= 1e-12)
        assert np.all(gaps >= -1e-12)
        assert np.max(gaps) <= 1e-9

    def test_perturbation_opens_gap(self, ds1, trace1):
        x = trace1.final.x.copy()
        x[0] += 0.1
        gaps = verify_nash(ds1, x)
        assert gaps[0] > 1e-4
        assert not np.max(gaps) <= 1e-5

    def test_homotopy_output_certifies(self, ds1, trace1, ds2, trace2):
        for game, trace in ((ds1, trace1), (ds2, trace2)):
            gaps = verify_nash(game, trace.final.x)
            assert np.max(gaps) <= 1e-5
            assert np.all(gaps >= -1e-12)


class TestStationarityCertificate:
    def test_bound_branch_multipliers(self, ds1):
        # all difference-map components strictly positive at +ones: the
        # bound branch is active, the drive-side multiplier vanishes
        x = np.ones(4)
        cert = s_stationarity_certificate(
            ds1, x, np.zeros(6), 1e-8, p=2, tol=STAT_TOL, nash_tol=NASH_TOL
        )
        np.testing.assert_array_equal(cert.xi_bar, np.ones(3))
        np.testing.assert_allclose(cert.Gamma1, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(cert.Gamma2, ds1.follower.a, rtol=1e-15)
        assert cert.s_stat_residuals["branch1_complementarity"] <= 1e-12
        assert cert.s_stat_residuals["branch2_complementarity"] <= 1e-12

    def test_biactive_splits_weight_evenly(self, ds1):
        # at the joint kink the kernel derivative is zero at any smoothing
        # level, fine or coarse
        for eps_final in (1e-6, 0.2):
            cert = s_stationarity_certificate(
                ds1, np.zeros(4), np.zeros(6), eps_final, p=2, tol=STAT_TOL, nash_tol=NASH_TOL
            )
            np.testing.assert_array_equal(cert.xi_bar, np.zeros(3))
            np.testing.assert_allclose(cert.Gamma1, ds1.follower.a / 2, rtol=1e-15)
            np.testing.assert_allclose(cert.Gamma2, ds1.follower.a / 2, rtol=1e-15)
            assert cert.s_stat_residuals["gamma_sign"] == 0.0

    def test_equilibrium_certifies(self, ds1, trace1, ds2, trace2):
        from mlfg import best_response_exact

        for game, trace in ((ds1, trace1), (ds2, trace2)):
            cert = s_stationarity_certificate(
                game, trace.final.x, trace.final.lam, trace.final_eps,
                p=2, tol=STAT_TOL, nash_tol=NASH_TOL,
            )
            assert cert.s_certified, cert.s_stat_residuals
            np.testing.assert_array_equal(
                cert.Gamma1 + cert.Gamma2, game.follower.a
            )
            assert np.all(cert.Gamma1 >= -1e-12)
            assert np.all(cert.Gamma2 >= -1e-12)
            # the multiplier on a strictly inactive branch vanishes
            fol = game.follower
            x = trace.final.x
            y = best_response_exact(game, x)
            slack_drive = y - (fol.B.T @ x) / fol.Qy_diag
            slack_bound = y - fol.L.T @ x
            assert np.all(cert.Gamma1[slack_drive > 1e-6] <= 1e-8)
            assert np.all(cert.Gamma2[slack_bound > 1e-6] <= 1e-8)

    def test_certified_point_also_passes_nash(self, ds1, trace1, ds2, trace2):
        for game, trace in ((ds1, trace1), (ds2, trace2)):
            cert = certify(
                game, trace.final.x, trace.final.lam, trace.final_eps, nash_tol=1e-4
            )
            assert max(cert.s_stat_residuals.values()) <= 1e-6
            assert cert.s_certified
            assert cert.nash_certified
            assert cert.certified


class TestWeakDualityBound:
    def test_bound_dominates_enumerated_gap(self):
        # weak duality: any dual-feasible point bounds every gap from above;
        # clipped draws put mass on the bounds of [0, a] and on lam = 0
        rng = np.random.default_rng(11)
        for _ in range(50):
            game = tiny_instance(rng)
            k, a = game.n, game.follower.a
            x = rng.uniform(-1.5, 1.5, k)
            gap = verify_nash(game, x)[0]
            lam_raw = rng.uniform(-1.0, 2.0, 2 * k)
            Gamma1_raw = a * rng.uniform(-1.0, 2.0, a.shape[0])
            lam, Gamma1 = np.maximum(lam_raw, 0.0), np.clip(Gamma1_raw, 0.0, a)
            bound = nash_gap_bounds(game, x, lam, Gamma1)[0]
            assert bound >= gap - 1e-12
            # dual feasibility is enforced, not trusted
            assert nash_gap_bounds(game, x, lam_raw, Gamma1_raw)[0] == bound

    def test_bound_matches_enumeration_at_equilibria(self, ds1, trace1, ds2, trace2):
        for game, trace in ((ds1, trace1), (ds2, trace2)):
            x = trace.final.x
            cert = certify(game, x, trace.final.lam, trace.final_eps)
            assert cert.to_dict()["nash_method"] == "weak_duality"
            np.testing.assert_allclose(cert.nash_gaps, verify_nash(game, x), rtol=0.0, atol=1e-9)

    def test_certify_never_enumerates(self, monkeypatch, ds1, trace1, ds2, trace2):
        def refuse(*args, **kwargs):
            raise AssertionError("certify must not enumerate active sets")

        monkeypatch.setattr(mlfg.verify, "best_response_qp_oracle", refuse)
        for game, trace in ((ds1, trace1), (ds2, trace2)):
            cert = certify(game, trace.final.x, trace.final.lam, trace.final_eps)
            assert cert.certified


class TestCertificatePromises:
    def test_certified_implies_true_gaps_within_tolerance(self):
        # soundness: solved and perturbed candidates, with solved and fitted
        # multipliers; every certified one has exact gaps within the gate
        rng = np.random.default_rng(5)
        outcomes = set()
        for _ in range(30):
            game = tiny_instance(rng)
            trace = homotopy_solve(game)
            for delta in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
                x = trace.final.x + delta * rng.standard_normal(game.n)
                for lam in (trace.final.lam, None):
                    cert = certify(game, x, lam, trace.final_eps)
                    outcomes.add(cert.certified)
                    if cert.certified:
                        assert np.max(verify_nash(game, x)) <= cert.nash_tol
        assert outcomes == {True, False}

    def test_fitted_certificate_is_one_pass(self, monkeypatch, active_game, active_trace):
        calls = {"phi_tilde_d1": 0, "best_response_exact": 0}

        def counted(name):
            inner = getattr(mlfg.verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(mlfg.verify, name, counted(name))
        certify(active_game, active_trace.final.x, None, active_trace.final_eps)
        assert calls == {"phi_tilde_d1": 1, "best_response_exact": 1}

    def test_follower_without_variables(self, m0_game):
        # every reduction over the follower is over an empty set
        cert = certify(m0_game, np.zeros(m0_game.n), None, 1e-6)
        assert isinstance(cert, Certificate)
        assert cert.certified is False
        assert cert.s_stat_residuals["primal_feasibility"] == 2.6
        for name in ("stationarity_y", "response_complementarity", "gamma_sign"):
            assert cert.s_stat_residuals[name] == 0.0
        assert cert.Gamma1.shape == cert.Gamma2.shape == cert.xi_bar.shape == (0,)

    def test_certificate_is_frozen(self, ds1, trace1):
        cert = certify(ds1, trace1.final.x, trace1.final.lam, trace1.final_eps)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.nash_tol = 1.0

    @pytest.mark.parametrize(
        "case, nash_tol",
        [(case, NASH_TOL) for case in ("short_x", "short_lambda", "nan_x", "nan_lambda")]
        + [("valid", tol) for tol in (0.0, -1.0, np.inf, np.nan)],
    )
    def test_malformed_input_raises(self, ds1, trace1, case, nash_tol):
        # a wrong length or a NaN in the candidate, or a Nash tolerance
        # outside (0, inf): inf would pass any gap, -1 would be replaced by
        # the drift
        x, lam = trace1.final.x.copy(), trace1.final.lam.copy()
        if case == "short_x":
            x = x[:-1]
        if case == "short_lambda":
            lam = lam[:-1]
        if case == "nan_x":
            x[0] = np.nan
        if case == "nan_lambda":
            lam[0] = np.nan
        with pytest.raises(ValueError):
            certify(ds1, x, lam, trace1.final_eps, nash_tol=nash_tol)


class TestActiveConstraints:
    def test_solution_certifies_with_active_constraints(self, active_game, active_trace):
        final = active_trace.final
        assert active_trace.converged
        assert np.max(final.lam) > 0.0
        cert = certify(active_game, final.x, final.lam, active_trace.final_eps)
        assert cert.certified, (cert.nash_gaps, cert.s_stat_residuals)

    def test_bound_matches_enumeration(self, active_game, active_trace):
        final = active_trace.final
        cert = certify(active_game, final.x, final.lam, active_trace.final_eps)
        np.testing.assert_allclose(
            cert.nash_gaps, verify_nash(active_game, final.x), rtol=0.0, atol=1e-9
        )

    def test_fitted_multipliers_certify(self, active_game, active_trace):
        # lam=None fits the multipliers the dropped ones below lack
        final = active_trace.final
        fitted = certify(active_game, final.x, None, active_trace.final_eps)
        assert fitted.certified, (fitted.nash_gaps, fitted.s_stat_residuals)
        solved = certify(active_game, final.x, final.lam, active_trace.final_eps)
        np.testing.assert_allclose(fitted.nash_gaps, solved.nash_gaps, rtol=0.0, atol=1e-9)

    def test_dropping_multipliers_refuses(self, active_game, active_trace):
        # without the constraint multipliers the dual point ignores the
        # active constraints, and the bound is far above the true gap
        final = active_trace.final
        cert = certify(
            active_game, final.x, np.zeros_like(final.lam), active_trace.final_eps
        )
        assert not cert.nash_certified
        assert np.max(cert.nash_gaps) > 0.1


class TestProbes:
    def test_monotonicity_bounded_below(self, ds1, ds2):
        for game in (ds1, ds2):
            mu = min_curvature(game)
            ratio = monotonicity_probe(game, eps=0.5, trials=100, seed=7)
            assert ratio >= mu - 1e-9

    def test_monotonicity_zero_weights_rayleigh(self, quadratic_game):
        game = quadratic_game
        mu = min_curvature(game)
        ratio = monotonicity_probe(game, eps=0.5, trials=200, seed=8)
        assert ratio >= mu - 1e-9
        # with zero weights the gradient map is exactly linear, so the
        # smallest sampled Rayleigh quotient cannot be far above mu either
        assert ratio <= mu + 2.0

    def test_potential_identity(self, ds1, ds2):
        assert potential_identity_probe(ds1, trials=100, seed=9) <= 1e-10
        assert potential_identity_probe(ds2, trials=100, seed=10) <= 1e-10
