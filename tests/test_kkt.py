import numpy as np
import pytest

from mlfg import kkt, kkt_residual, merit, newton_solve
from mlfg.kkt import residual_merit
from mlfg.model import matvec

from helpers import jacobian_at, leader_gradient_smoothed, min_curvature


def fd_jacobian(game, z, eps, h=1e-6):
    dim = z.shape[0]
    J = np.empty((dim, dim))
    for j in range(dim):
        zp = z.copy(); zp[j] += h
        zm = z.copy(); zm[j] -= h
        J[:, j] = (kkt_residual(game, zp, eps) - kkt_residual(game, zm, eps)) / (2 * h)
    return J


def random_smooth_point(game, rng, eps):
    """Flat iterate away from every branch boundary of the min rows."""
    while True:
        x, lam = rng.uniform(-3, 3, game.n), rng.uniform(-2, 2, game.m_bar)
        g = game.constraint_values(x)
        if np.min(np.abs(lam + g)) > 1e-3:
            return np.concatenate([x, lam])


def merit_subgradient(game, z, eps):
    """Element H^T F of the merit subdifferential for the selected branch."""
    return jacobian_at(game, z, eps).T @ kkt_residual(game, z, eps)


class TestResidual:
    def test_dataset1_complementarity_block(self, ds1):
        z = np.concatenate([np.ones(4), np.zeros(6)])
        F = kkt_residual(ds1, z, eps=0.5)
        np.testing.assert_allclose(
            F[4:], [-5.8, -4.2, -3.4, -4.7, -4.3, -6.7], atol=1e-12
        )

    def test_stationarity_block_matches_gradients(self, ds1):
        # cross-check against the per-leader gradient evaluation plus the
        # multiplier term, assembled independently per block
        rng = np.random.default_rng(0)
        x, lam = rng.uniform(-2, 2, 4), rng.uniform(0, 2, 6)
        F = kkt_residual(ds1, np.concatenate([x, lam]), eps=0.7)
        for nu in (1, 2):
            s = ds1.x_slice(nu)
            ld = ds1.leaders[nu - 1]
            expected = leader_gradient_smoothed(ds1, nu, x, 0.7) + ld.A @ lam[
                ds1.lambda_slice(nu)
            ]
            np.testing.assert_allclose(F[s], expected, rtol=1e-13, atol=1e-14)

    def test_quadratic_game_root(self, quadratic_game):
        game = quadratic_game
        x_star = np.concatenate(
            [-np.linalg.solve(ld.Q, ld.c) for ld in game.leaders]
        )
        z = np.concatenate([x_star, np.zeros(game.m_bar)])
        F = kkt_residual(game, z, eps=0.3)
        assert np.max(np.abs(F[: game.n])) <= 1e-12
        np.testing.assert_array_equal(F[game.n :], np.zeros(game.m_bar))

    def test_residual_small_at_solution(self, ds1):
        result = newton_solve(ds1, eps=0.5)
        assert result.converged
        assert merit(ds1, np.concatenate([result.x, result.lam]), eps=0.5) <= 1e-10

    def test_merit_definition(self, ds1):
        rng = np.random.default_rng(1)
        z = np.concatenate([rng.uniform(-3, 3, 4), rng.uniform(-1, 1, 6)])
        F = kkt_residual(ds1, z, eps=0.9)
        assert merit(ds1, z, eps=0.9) == pytest.approx(
            0.5 * (F[:4] @ F[:4] + F[4:] @ F[4:]), rel=1e-15
        )
        assert merit(ds1, z, eps=0.9) > 0.0


class TestStackedResidual:
    GAMES = ["ds1", "ds2", "active_game", "kink_game"]

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("name", GAMES)
    def test_rows_equal_single_points(self, request, name, p):
        # points at scales from 1e-6 (inside the smoothing band of the
        # kink game's equilibrium) to 1e2, at four smoothing levels
        game = request.getfixturevalue(name)
        rng = np.random.default_rng(7)
        size = game.n + game.m_bar
        Z = rng.standard_normal((24, size)) * 10.0 ** rng.uniform(-6, 2, (24, 1))
        for eps in (1.6, 0.1, 1e-3, 1e-6):
            F = kkt_residual(game, Z, eps, p)
            psi = residual_merit(F, game.n)
            assert F.shape == (24, size) and psi.shape == (24,)
            for z, F_row, psi_row in zip(Z, F, psi):
                F_single = kkt_residual(game, z, eps, p)
                assert np.array_equal(F_row, F_single)
                assert psi_row == residual_merit(F_single, game.n) == merit(game, z, eps, p)

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("name", GAMES)
    def test_evaluation_rows_equal_single_points(self, request, name, p):
        # every field of a stacked evaluation, row by row, against the
        # evaluation of that point alone and against kkt_residual and merit
        game = request.getfixturevalue(name)
        rng = np.random.default_rng(8)
        size = game.n + game.m_bar
        Z = rng.standard_normal((24, size)) * 10.0 ** rng.uniform(-6, 2, (24, 1))
        # exact ties lam = -g on every min row of the last point
        Z[-1, game.n :] = 0.0
        Z[-1, game.n :] = -(matvec(game.kkt_map, Z[-1])[game.m + game.n :] + game.b_stack)
        for eps in (1.6, 0.1, 1e-3, 1e-6):
            stack = kkt.evaluate(game, Z, eps, p)
            assert np.array_equal(stack.F, kkt_residual(game, Z, eps, p))
            assert not stack.constraint_branch[-1].any()
            for i, z in enumerate(Z):
                row, alone = stack.row(i), kkt.evaluate(game, z, eps, p)
                assert type(row.psi) is type(alone.psi) is float
                assert all(np.array_equal(a, b) for a, b in zip(row, alone))
                assert np.array_equal(alone.F, kkt_residual(game, z, eps, p))
                assert alone.psi == merit(game, z, eps, p)

    @pytest.mark.parametrize(
        "eps, p",
        [(0.0, 2), (-1.0, 2), (0.5, 3)]
        + [(eps, p) for eps in (np.inf, np.nan, 1e308) for p in (2, 4)],
    )
    def test_stack_rejects_bad_kernel_parameters(self, ds1, eps, p):
        with pytest.raises(ValueError):
            kkt_residual(ds1, np.zeros((3, 10)), eps, p)


class TestGeneralizedJacobian:
    def test_inactive_region_blocks(self, ds1):
        # strictly feasible x with zero multipliers: lam < -g on every row
        x = -3.0 * np.ones(4)
        assert np.all(ds1.constraint_values(x) < 0)
        H = jacobian_at(ds1, np.concatenate([x, np.zeros(6)]), eps=0.4)
        np.testing.assert_array_equal(H[4:, 4:], np.eye(6))
        np.testing.assert_array_equal(H[4:, :4], np.zeros((6, 4)))

    def test_quadratic_inactive_structure(self, quadratic_game):
        game = quadratic_game
        H = jacobian_at(game, np.zeros(8), eps=0.4)
        np.testing.assert_array_equal(H[:4, :4], game.Q_block)
        np.testing.assert_array_equal(H[:4, 4:], game.constraint_gradient_block)
        np.testing.assert_array_equal(H[4:, 4:], np.eye(4))
        assert np.linalg.matrix_rank(H) == 8

    def test_matches_finite_differences_on_smooth_points(self, ds1):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = random_smooth_point(ds1, rng, eps=0.5)
            H = jacobian_at(ds1, z, eps=0.5)
            J = fd_jacobian(ds1, z, eps=0.5)
            err = np.linalg.norm(H - J) / np.linalg.norm(J)
            assert err <= 1e-5

    def test_xx_symmetric_positive_definite(self, ds1, ds2):
        rng = np.random.default_rng(3)
        for game in (ds1, ds2):
            mu = min_curvature(game)
            for _ in range(20):
                z = np.concatenate([rng.uniform(-4, 4, game.n), np.zeros(game.m_bar)])
                xx = jacobian_at(game, z, eps=0.3)[: game.n, : game.n]
                assert np.max(np.abs(xx - xx.T)) <= 1e-12 * np.max(np.abs(xx))
                v = rng.standard_normal(game.n)
                assert v @ xx @ v >= (mu - 1e-9) * v @ v

    def test_branch_coverage(self, ds1):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = np.concatenate([rng.uniform(-3, 3, 4), rng.uniform(-1, 1, 6)])
            H = jacobian_at(ds1, z, eps=0.5)
            lx, ll = H[4:, :4], H[4:, 4:]
            for i in range(6):
                mult_branch = ll[i, i] == 1.0 and not lx[i].any()
                cons_branch = ll[i, i] == 0.0 and lx[i].any()
                assert mult_branch != cons_branch

    def test_tie_break_selects_multiplier_branch(self, ds1):
        x = np.ones(4)
        g = ds1.constraint_values(x)
        lam = -g.copy()  # exact ties on every row
        H = jacobian_at(ds1, np.concatenate([x, lam]), eps=0.5)
        np.testing.assert_array_equal(H[4:, 4:], np.eye(6))
        np.testing.assert_array_equal(H[4:, :4], np.zeros((6, 4)))


class TestMeritSubgradient:
    def test_zero_at_root(self, ds1):
        result = newton_solve(ds1, eps=0.8)
        v = merit_subgradient(ds1, np.concatenate([result.x, result.lam]), eps=0.8)
        assert np.linalg.norm(v) <= 1e-4  # scales like H times the residual

    def test_matches_merit_gradient_on_smooth_points(self, ds1):
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(25):
            z = random_smooth_point(ds1, rng, eps=0.6)
            v = merit_subgradient(ds1, z, eps=0.6)
            fd = np.empty_like(z)
            for j in range(z.shape[0]):
                zp = z.copy(); zp[j] += h
                zm = z.copy(); zm[j] -= h
                fd[j] = (merit(ds1, zp, eps=0.6) - merit(ds1, zm, eps=0.6)) / (2 * h)
            np.testing.assert_allclose(v, fd, rtol=1e-5, atol=1e-7)

    def test_linear_in_residual(self, ds1):
        rng = np.random.default_rng(6)
        z = random_smooth_point(ds1, rng, eps=0.5)
        H = jacobian_at(ds1, z, eps=0.5)
        F = kkt_residual(ds1, z, eps=0.5)
        np.testing.assert_allclose(H.T @ (2.0 * F), 2.0 * (H.T @ F), rtol=1e-15)
        np.testing.assert_allclose(merit_subgradient(ds1, z, eps=0.5), H.T @ F, rtol=1e-15)


class TestMeritSubgradientKernel:
    """``kkt.merit_subgradient`` forms ``H' F`` from an evaluation, without
    the Jacobian ``H``."""

    GAMES = ["ds1", "ds2", "active_game", "kink_game"]

    @staticmethod
    def _points(game, rng, eps):
        """(kind, z): random points at scales 1e-3 to 1e2, the same points with
        ties ``lam = -g`` on every min row, and points whose kernel arguments
        lie inside the smoothing band ``|t| < 2 eps``."""
        m, n = game.m, game.n
        for _ in range(12):
            z = rng.standard_normal(n + game.m_bar) * 10.0 ** rng.uniform(-3, 2)
            yield "random", z
            # g from the residual's own linear map, which the branch rule reads
            tie = z.copy()
            tie[n:] = 0.0
            tie[n:] = -(matvec(game.kkt_map, tie)[m + n :] + game.b_stack)
            yield "tie", tie
            band = z.copy()
            band[:n] *= 0.9 * eps / max(np.max(np.abs(game.A_diff @ z[:n])), 1e-300)
            assert np.max(np.abs(game.A_diff @ band[:n])) < 2.0 * eps
            yield "band", band

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("name", GAMES)
    def test_equals_jacobian_transpose_times_residual(self, request, name, p):
        game = request.getfixturevalue(name)
        rng = np.random.default_rng(9)
        n = game.n
        for eps in (1.6, 0.1, 1e-3, 1e-6):
            for kind, z in self._points(game, rng, eps):
                F = kkt_residual(game, z, eps, p)
                H = jacobian_at(game, z, eps, p)
                np.testing.assert_allclose(
                    kkt.merit_subgradient(game, kkt.evaluate(game, z, eps, p)), H.T @ F, rtol=1e-12
                )
                if kind == "tie":
                    # every min row ties, and the tie goes to the multiplier branch
                    np.testing.assert_array_equal(H[n:, n:], np.eye(game.m_bar))
