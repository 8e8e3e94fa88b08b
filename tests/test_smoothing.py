import math

import numpy as np
import pytest

from mlfg import (
    best_response_exact,
    best_response_smoothed,
    phi_tilde,
    phi_tilde_d1,
    phi_tilde_d2,
    phi_tilde_deps,
)
from mlfg.smoothing import (
    phi_tilde_dt_deps,
    phi_tilde_slopes,
    smoothed_gradient_stack,
)

from conftest import make_game
from helpers import (
    leader_gradient_smoothed,
    leader_objective,
    leader_objective_smoothed,
    min_curvature,
    phi_value,
    potential_value,
)


def scalar_game(Qy, B_row, L_row, a=1.0):
    """Single leader with one variable, one follower variable."""
    return make_game(
        [np.array([[1.0]])],
        [np.zeros(1)],
        [np.array([[1.0]])],
        [np.array([-100.0])],
        np.array([Qy]),
        np.array([[B_row]]),
        np.array([[L_row]]),
        np.array([a]),
    )


class TestKernelValues:
    def test_at_zero(self):
        assert phi_tilde(0.0, 0.5, 2) == pytest.approx(1.0, abs=1e-15)

    def test_at_three(self):
        assert phi_tilde(3.0, 0.5, 2) == pytest.approx(math.sqrt(10.0), rel=1e-14)

    def test_even(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-20, 20, 200)
        for p in (2, 4):
            np.testing.assert_allclose(
                phi_tilde(t, 0.3, p), phi_tilde(-t, 0.3, p), rtol=1e-14
            )

    def test_majorizes_absolute_value(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(-50, 50, 500)
        for p in (2, 4, 6):
            assert np.all(phi_tilde(t, 0.2, p) >= np.abs(t))

    def test_tight_band(self):
        # 0 <= phi_tilde - |t| <= 2*eps for the quadratic kernel
        rng = np.random.default_rng(2)
        t = rng.uniform(-100, 100, 500)
        for eps in (1e-3, 0.5, 2.0):
            gap = phi_tilde(t, eps, 2) - np.abs(t)
            assert np.all(gap >= 0.0)
            assert np.all(gap <= 2.0 * eps + 1e-12)

    def test_large_argument_no_overflow(self):
        assert np.isfinite(phi_tilde(1e300, 0.5, 2))
        assert phi_tilde(1e300, 0.5, 4) == pytest.approx(1e300)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            phi_tilde(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            phi_tilde(1.0, -1.0, 2)
        with pytest.raises(ValueError):
            phi_tilde(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            phi_tilde(1.0, 1.0, 0)


KERNEL = [phi_tilde, phi_tilde_d1, phi_tilde_d2, phi_tilde_deps, phi_tilde_dt_deps]


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan, 1e308])
@pytest.mark.parametrize("fn", KERNEL, ids=lambda fn: fn.__name__)
def test_kernel_rejects_smoothing_without_finite_double(fn, eps, p):
    # 2 * 1e308 overflows to inf; every such level raises instead of giving NaN
    with pytest.raises(ValueError, match="smoothing parameter"):
        fn(1.0, eps, p)


def scaled_slopes(t, eps, p):
    """Both t-derivatives in the form that factors out M = max(|t|, 2*eps)."""
    t = np.asarray(t, dtype=float)
    M = np.maximum(np.abs(t), 2.0 * eps)
    u, v = t / M, 2.0 * eps / M
    w = u**p + v**p
    return (
        u ** (p - 1) * w ** (1.0 / p - 1.0),
        (p - 1) * u ** (p - 2) * v**p * w ** (1.0 / p - 2.0) / M,
    )


class TestClosedFormSlopes:
    """At p = 2 the slopes are ``t/h`` and ``(2 eps/h)**2/h``, ``h = hypot(t, 2 eps)``."""

    SPECIAL = [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0, 1e8, -1e8, 1e300, -1e300]

    @pytest.mark.parametrize("eps", [1e-6, 0.05, 0.5, 1.6, 1e3])
    def test_matches_scaled_form_to_a_few_ulp(self, eps):
        # each form lies within about 5 ulp of the exact slopes
        rng = np.random.default_rng(16)
        spread = rng.standard_normal(2000) * 10.0 ** rng.uniform(-8, 8, 2000)
        t = np.concatenate([self.SPECIAL, spread])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            d1, d2 = phi_tilde_slopes(t, eps, 2)
        r1, r2 = scaled_slopes(t, eps, 2)
        tiny = np.finfo(float).smallest_subnormal
        assert np.all(np.abs(d1 - r1) <= 4 * np.maximum(np.spacing(np.abs(r1)), tiny))
        assert np.all(np.abs(d2 - r2) <= 16 * np.maximum(np.spacing(np.abs(r2)), tiny))
        assert np.array_equal(d1, phi_tilde_d1(t, eps, 2))
        assert np.array_equal(d2, phi_tilde_d2(t, eps, 2))

    @pytest.mark.parametrize("eps", [1e-6, 0.05, 0.5, 1.6, 1e3])
    def test_curvature_at_zero(self, eps):
        assert phi_tilde_d2(0.0, eps, 2) == 1.0 / (2.0 * eps)
        assert phi_tilde_d1(0.0, eps, 2) == 0.0

    def test_higher_exponents_keep_scaled_form(self):
        t = np.array(self.SPECIAL)
        for p in (4, 6):
            for mine, ref in zip(phi_tilde_slopes(t, 0.3, p), scaled_slopes(t, 0.3, p)):
                assert np.array_equal(mine, ref)


class TestKernelDerivatives:
    def test_d1_values(self):
        assert phi_tilde_d1(0.0, 0.5, 2) == 0.0
        assert phi_tilde_d1(3.0, 0.5, 2) == pytest.approx(3.0 / math.sqrt(10.0), rel=1e-14)

    def test_d1_asymptote(self):
        assert 1.0 - phi_tilde_d1(1e8, 0.5, 2) < 1e-15
        assert phi_tilde_d1(-1e8, 0.5, 2) + 1.0 < 1e-15

    def test_d1_odd_bounded_monotone(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(-30, 30, 300))
        d = phi_tilde_d1(t, 0.4, 2)
        np.testing.assert_allclose(d, -phi_tilde_d1(-t, 0.4, 2), rtol=1e-13, atol=1e-15)
        assert np.all(np.abs(d) < 1.0)
        assert np.all(np.diff(d) > 0.0)

    def test_d2_values(self):
        assert phi_tilde_d2(0.0, 0.5, 2) == pytest.approx(1.0, rel=1e-14)
        expected = 1.0 / math.sqrt(10.0) - 9.0 / 10.0**1.5
        assert phi_tilde_d2(3.0, 0.5, 2) == pytest.approx(expected, rel=1e-12)

    def test_d2_two_algebraic_forms_agree(self):
        # 1/sqrt(t^2+4e^2) - t^2/sqrt(t^2+4e^2)^3 equals 4e^2/(t^2+4e^2)^(3/2)
        rng = np.random.default_rng(4)
        for t, eps in zip(rng.uniform(-10, 10, 100), rng.uniform(0.01, 2, 100)):
            r = math.sqrt(t * t + 4 * eps * eps)
            naive = 1.0 / r - t * t / r**3
            assert phi_tilde_d2(t, eps, 2) == pytest.approx(naive, rel=1e-10)

    def test_d2_positive(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-40, 40, 300)
        assert np.all(phi_tilde_d2(t, 0.7, 2) > 0.0)

    def test_deps_values(self):
        assert phi_tilde_deps(0.0, 0.5, 2) == pytest.approx(2.0, rel=1e-14)
        assert phi_tilde_deps(3.0, 0.5, 2) == pytest.approx(2.0 / math.sqrt(10.0), rel=1e-14)

    def test_mixed_at_zero(self):
        assert phi_tilde_dt_deps(0.0, 0.5, 2) == 0.0

    @pytest.mark.parametrize("p", [2, 4])
    def test_finite_difference_consistency(self, p):
        rng = np.random.default_rng(6)
        h = 1e-5
        checked = 0
        for _ in range(1000):
            t = rng.uniform(-5, 5)
            eps = rng.uniform(0.05, 2.0)
            d1 = (phi_tilde(t + h, eps, p) - phi_tilde(t - h, eps, p)) / (2 * h)
            assert phi_tilde_d1(t, eps, p) == pytest.approx(d1, rel=1e-6, abs=1e-8)
            d2 = (phi_tilde_d1(t + h, eps, p) - phi_tilde_d1(t - h, eps, p)) / (2 * h)
            assert phi_tilde_d2(t, eps, p) == pytest.approx(d2, rel=1e-6, abs=1e-8)
            de = (phi_tilde(t, eps + h, p) - phi_tilde(t, eps - h, p)) / (2 * h)
            assert phi_tilde_deps(t, eps, p) == pytest.approx(de, rel=1e-6, abs=1e-8)
            dte = (phi_tilde_d1(t, eps + h, p) - phi_tilde_d1(t, eps - h, p)) / (2 * h)
            assert phi_tilde_dt_deps(t, eps, p) == pytest.approx(dte, rel=1e-6, abs=1e-8)
            checked += 1
        assert checked == 1000

    def test_complementarity_manifold(self):
        # alpha + beta - phi_tilde(alpha - beta) vanishes iff both are
        # nonnegative with product eps^2 (quadratic kernel)
        rng = np.random.default_rng(7)
        eps = 0.3
        for _ in range(200):
            alpha = rng.uniform(0.01, 10.0)
            beta = eps**2 / alpha
            val = alpha + beta - phi_tilde(alpha - beta, eps, 2)
            assert val == pytest.approx(0.0, abs=1e-12)
        # and conversely the root condition forces the product
        for _ in range(200):
            alpha = rng.uniform(0.01, 10.0)
            beta = rng.uniform(0.01, 10.0)
            if alpha + beta - phi_tilde(alpha - beta, eps, 2) == pytest.approx(0.0, abs=1e-12):
                assert alpha * beta == pytest.approx(eps**2, rel=1e-9)


class TestBestResponse:
    def test_scalar_max(self):
        game = scalar_game(Qy=2.0, B_row=4.0, L_row=1.0)
        assert best_response_exact(game, np.array([1.0]))[0] == pytest.approx(2.0)

    def test_zero_strategy(self, ds1):
        np.testing.assert_array_equal(best_response_exact(ds1, np.zeros(4)), np.zeros(3))

    def test_dataset1_branch_values(self, ds1):
        y = best_response_exact(ds1, np.ones(4))
        np.testing.assert_allclose(y, [5.2, 9.6, 7.2], atol=1e-12)
        drive = (ds1.follower.B.T @ np.ones(4)) / ds1.follower.Qy_diag
        np.testing.assert_allclose(drive, [2.96, 7.8 / 3.6, 7.3 / 4.6], atol=1e-12)

    def test_complementarity(self, ds1, ds2):
        rng = np.random.default_rng(8)
        for game in (ds1, ds2):
            fol = game.follower
            for _ in range(100):
                x = rng.uniform(-5, 5, game.n)
                y = best_response_exact(game, x)
                r1 = y - (fol.B.T @ x) / fol.Qy_diag
                r2 = y - fol.L.T @ x
                assert np.all(r1 >= -1e-12)
                assert np.all(r2 >= -1e-12)
                assert np.max(np.abs(r1 * r2)) <= 1e-12 * (1 + np.max(np.abs(x)))

    def test_smoothed_at_kink(self):
        # where both branches coincide the smoothed response sits eps above
        game = scalar_game(Qy=2.0, B_row=2.0, L_row=1.0)
        x = np.array([3.0])  # drive = 3, bound = 3
        eps = 0.25
        y = best_response_smoothed(game, x, eps)
        assert y[0] == pytest.approx(3.0 + eps, rel=1e-14)

    def test_smoothed_above_and_close(self, ds1):
        rng = np.random.default_rng(9)
        for eps in (1e-4, 0.1, 1.0):
            for _ in range(50):
                x = rng.uniform(-5, 5, 4)
                y_exact = best_response_exact(ds1, x)
                y_smooth = best_response_smoothed(ds1, x, eps)
                assert np.all(y_smooth >= y_exact - 1e-14)
                assert np.max(np.abs(y_smooth - y_exact)) <= eps + 1e-12

    def test_smoothed_matches_rootfinding_oracle(self, ds1):
        # per component, solve alpha + beta - phi_tilde(alpha - beta) = 0
        # in y by bisection, with alpha = y - drive and beta = y - bound
        x = np.ones(4)
        eps = 0.1
        fol = ds1.follower
        drive = (fol.B.T @ x) / fol.Qy_diag
        bound = fol.L.T @ x
        expected = np.empty(3)
        for i in range(3):
            def ncp(y):
                return (y - drive[i]) + (y - bound[i]) - phi_tilde(
                    (y - drive[i]) - (y - bound[i]), eps, 2
                )
            lo, hi = -100.0, 100.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if ncp(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            expected[i] = 0.5 * (lo + hi)
        np.testing.assert_allclose(
            best_response_smoothed(ds1, x, eps), expected, atol=1e-12
        )


class TestObjectives:
    def test_zero_weights_pure_quadratic(self, quadratic_game):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(4)
        ld = quadratic_game.leaders[0]
        expected = 0.5 * x[:2] @ ld.Q @ x[:2] + ld.c @ x[:2]
        assert leader_objective(quadratic_game, 1, x) == pytest.approx(expected, rel=1e-14)

    def test_zero_everything(self, ds1):
        assert leader_objective(ds1, 1, np.zeros(4)) == 0.0

    def test_dataset1_value(self, ds1):
        assert leader_objective(ds1, 1, np.ones(4)) == pytest.approx(51.21, abs=1e-10)

    def test_smoothed_majorizes(self, ds1):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-4, 4, 4)
            for nu in (1, 2):
                assert (
                    leader_objective_smoothed(ds1, nu, x, eps=1e3)
                    >= leader_objective(ds1, nu, x) - 1e-9
                )

    def test_gradient_finite_difference(self, ds1):
        x0 = np.ones(4)
        eps = 0.5
        h = 1e-6
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
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_zero_weights(self, quadratic_game):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(4)
        ld = quadratic_game.leaders[1]
        np.testing.assert_allclose(
            leader_gradient_smoothed(quadratic_game, 2, x, eps=0.3),
            ld.Q @ x[2:] + ld.c,
            rtol=1e-14,
        )

    def test_convexity_in_own_block(self, ds1):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.uniform(-4, 4, 4)
            nu = int(rng.integers(1, 3))
            s = ds1.x_slice(nu)
            xa, xb = x.copy(), x.copy()
            xa[s] = rng.uniform(-4, 4, 2)
            xb[s] = rng.uniform(-4, 4, 2)
            t = rng.uniform(0.0, 1.0)
            xm = xa.copy()
            xm[s] = t * xa[s] + (1 - t) * xb[s]
            lhs = leader_objective(ds1, nu, xm)
            rhs = t * leader_objective(ds1, nu, xa) + (1 - t) * leader_objective(ds1, nu, xb)
            assert lhs <= rhs + 1e-10


class TestPotential:
    def test_zero(self, quadratic_game):
        game = quadratic_game
        x = np.zeros(4)
        # c is nonzero here, so only the response part vanishes
        assert phi_value(game, x) == 0.0

    def test_dataset1_value(self, ds1):
        assert potential_value(ds1, np.ones(4)) == pytest.approx(55.66, abs=1e-10)

    def test_unilateral_identity(self, ds1, ds2):
        rng = np.random.default_rng(14)
        for game in (ds1, ds2):
            worst = 0.0
            for _ in range(100):
                nu = int(rng.integers(1, game.num_leaders + 1))
                x = rng.uniform(-5, 5, game.n)
                x_alt = x.copy()
                s = game.x_slice(nu)
                x_alt[s] = rng.uniform(-5, 5, s.stop - s.start)
                d_obj = leader_objective(game, nu, x_alt) - leader_objective(game, nu, x)
                d_pot = potential_value(game, x_alt) - potential_value(game, x)
                worst = max(worst, abs(d_obj - d_pot))
            assert worst <= 1e-10


class TestUniformMonotonicity:
    def test_ratio_bounded_by_min_curvature(self, ds1, ds2):
        rng = np.random.default_rng(15)
        for game in (ds1, ds2):
            mu = min_curvature(game)
            for eps in (0.1, 0.5, 1.6):
                for _ in range(30):
                    x = rng.uniform(-5, 5, game.n)
                    x_hat = rng.uniform(-5, 5, game.n)
                    diff = x - x_hat
                    gap = smoothed_gradient_stack(game, x, eps) - smoothed_gradient_stack(
                        game, x_hat, eps
                    )
                    assert diff @ gap >= (mu - 1e-9) * diff @ diff
