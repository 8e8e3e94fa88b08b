import numpy as np
import pytest

from mlfg import (
    FollowerSpec,
    GameSpec,
    HomotopyConfig,
    homotopy_solve,
    lu_solve,
    newton_solve,
    solve,
    subgradient_solve,
)
from mlfg import solvers
from mlfg.kkt import evaluate, kkt_residual, merit, residual_merit
from mlfg.smoothing import phi_tilde_slopes
from mlfg.solvers import (
    LADDER_SIZE,
    SIGMA_LADDER,
    WINDOW_MARGIN,
    _step_search,
    armijo_search,
    endgame_step,
    piece,
)

from conftest import make_game
from helpers import jacobian_at, step_search_sequential, verify_nash


class TestLuSolve:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(lu_solve(np.eye(3), rhs), rhs)

    def test_rank_deficient_flags_singular(self):
        assert lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0])) is None

    def test_zero_matrix(self):
        assert lu_solve(np.zeros((2, 2)), np.ones(2)) is None

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            M = rng.standard_normal((10, 10)) + 3.0 * np.eye(10)
            rhs = rng.standard_normal(10)
            x = lu_solve(M, rhs)
            assert x is not None
            assert np.linalg.norm(M @ x - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))

    def test_pivoting_handles_zero_leading_entry(self):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(lu_solve(M, np.array([2.0, 5.0])), [5.0, 2.0])

    def test_near_singular_threshold(self, monkeypatch):
        M = np.array([[1.0, 0.0], [0.0, 1e-15]])
        assert lu_solve(M, np.ones(2)) is None
        monkeypatch.setattr("mlfg.solvers.PIVOT_TOL", 1e-18)
        assert lu_solve(M, np.ones(2)) is not None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lu_solve(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_flags_singular(self, where, bad):
        M, rhs = np.eye(3) + 0.5, np.array([1.0, 2.0, 3.0])
        (M if where == "matrix" else rhs)[1] = bad
        assert lu_solve(M, rhs) is None


@pytest.mark.parametrize("solve", [newton_solve, subgradient_solve, homotopy_solve])
def test_wrong_length_start_rejected(ds1, solve):
    # an x-only start for a game with n = 4 and m_bar = 6
    with pytest.raises(ValueError, match=r"expected \(10,\)"):
        solve(ds1, np.zeros(4))
    # a full-length start with a NaN entry
    start = np.zeros(10)
    start[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve(ds1, start)


@pytest.mark.parametrize("solve", [newton_solve, subgradient_solve])
def test_start_with_infinite_merit_rejected(ds1, solve):
    # every residual entry is finite at 1e200, their squares are not
    with pytest.raises(FloatingPointError, match="not finite"):
        solve(ds1, np.full(10, 1e200))


@pytest.mark.parametrize("eps", [1.6, 0.1])
@pytest.mark.parametrize("game", ["ds1", "ds2", "kink_game"])
@pytest.mark.parametrize("solve", [newton_solve, subgradient_solve])
def test_inner_result_invariants(request, solve, game, eps):
    # what the shared descent loop records, whichever step rule it runs
    tol = 1e-10
    res = solve(request.getfixturevalue(game), eps=eps, tol=tol)
    assert len(res.merit_history) == res.iterations + 1 == len(res.step_norms) + 1
    assert res.merit == res.merit_history[-1]
    assert res.converged == (res.merit <= tol)
    if solve is subgradient_solve:
        assert res.fallback_steps == 0
    else:
        assert res.fallback_steps <= res.iterations


def _armijo(game, z, s, eps):
    """``armijo_search`` from ``z`` along ``s``, with the merit and slope there."""
    F = kkt_residual(game, z, eps=eps)
    g = jacobian_at(game, z, eps=eps).T @ F
    return armijo_search(game, z, s, merit(game, z, eps=eps), g @ s, eps)


class TestArmijo:
    def test_descent_direction_accepted(self, ds1):
        rng = np.random.default_rng(1)
        z = np.concatenate([rng.uniform(-1, 1, 4), rng.uniform(0, 1, 6)])
        s = -(jacobian_at(ds1, z, eps=0.8).T @ kkt_residual(ds1, z, eps=0.8))
        t, ev = _armijo(ds1, z, s, eps=0.8)
        assert ev is not None and t > 0.0
        # the search hands back the merit of the point it accepted
        assert ev.psi == merit(ds1, z + t * s, eps=0.8)

    def test_ascent_direction_flagged(self, ds1):
        # near the root the merit is locally strictly convex, so moving
        # along the positive subgradient can only increase it
        root = newton_solve(ds1, eps=0.8)
        z = np.concatenate([root.x + 0.01, root.lam])
        s = +(jacobian_at(ds1, z, eps=0.8).T @ kkt_residual(ds1, z, eps=0.8))
        assert _armijo(ds1, z, s, eps=0.8) == (0.0, None)

    def test_trial_steps_are_the_shared_ladder(self, ds1, monkeypatch):
        # the Newton search tries the subgradient method's steps, one point
        # at a time, all of them before it gives up, and returns a float
        root = newton_solve(ds1, eps=0.8)
        z = np.concatenate([root.x + 0.01, root.lam])
        s = +(jacobian_at(ds1, z, eps=0.8).T @ kkt_residual(ds1, z, eps=0.8))
        trials = []
        monkeypatch.setattr("mlfg.solvers.evaluate", lambda *a: trials.append(a[1]) or evaluate(*a))
        assert _armijo(ds1, z, s, eps=0.8) == (0.0, None)
        assert np.array_equal(trials, [z + t * s for t in SIGMA_LADDER])
        t, ev = _armijo(ds1, z, -s, eps=0.8)
        assert type(t) is float and t in SIGMA_LADDER and ev is not None

    def test_full_step_near_solution(self, ds1):
        # the local phase takes unit Newton steps
        res = newton_solve(ds1, eps=0.5, tol=1e-6)
        z = np.concatenate([res.x, res.lam])
        H = jacobian_at(ds1, z, eps=0.5)
        s = lu_solve(H, -kkt_residual(ds1, z, eps=0.5))
        assert s is not None
        t, ev = _armijo(ds1, z, s, eps=0.5)
        assert ev is not None and t == 1.0
        assert ev.psi == merit(ds1, z + s, eps=0.5)


class TestNewton:
    def test_quadratic_game_two_steps(self, quadratic_game):
        game = quadratic_game
        x_star = np.concatenate([-np.linalg.solve(ld.Q, ld.c) for ld in game.leaders])
        for start in (np.zeros(8), np.ones(8)):
            res = newton_solve(game, start, eps=0.7)
            assert res.converged
            assert res.iterations <= 2
            np.testing.assert_allclose(res.x, x_star, atol=1e-8)
            np.testing.assert_allclose(res.lam, np.zeros(4), atol=1e-10)

    def test_dataset1_converges(self, ds1):
        res = newton_solve(ds1, eps=1.6)
        assert res.converged
        assert res.merit <= 1e-10
        assert res.iterations <= 20

    def test_solution_certificate(self, ds1, ds2):
        for game in (ds1, ds2):
            for eps in (1.6, 0.1):
                res = newton_solve(game, eps=eps)
                assert res.converged
                F = kkt_residual(game, np.concatenate([res.x, res.lam]), eps=eps)
                assert np.max(np.abs(F[: game.n])) <= 1e-5
                assert np.max(np.abs(F[game.n :])) <= 1e-5
                assert np.all(res.lam >= -1e-9)
                assert np.all(game.constraint_values(res.x) <= 1e-9)

    def test_multistart_agreement(self, ds1):
        # a merit of 1e-10 still allows x-errors near 3e-6 through the
        # Jacobian's smallest singular value, so agreement to 1e-6 needs
        # the tighter stop
        rng = np.random.default_rng(3)
        finals = []
        for _ in range(20):
            z0 = np.concatenate([rng.uniform(-1, 1, 4), np.maximum(rng.uniform(-1, 1, 6), 0)])
            res = newton_solve(ds1, z0, eps=0.5, tol=1e-12)
            assert res.converged
            finals.append(res.x)
        spread = max(
            np.linalg.norm(a - b) for i, a in enumerate(finals) for b in finals[i + 1 :]
        )
        assert spread <= 1e-6

    def test_monotone_merit(self, ds1, ds2):
        rng = np.random.default_rng(4)
        for game in (ds1, ds2):
            for _ in range(50):
                z0 = np.concatenate(
                    [rng.uniform(-2, 2, game.n), rng.uniform(-1, 1, game.m_bar)]
                )
                res = newton_solve(game, z0, eps=0.4)
                hist = np.array(res.merit_history)
                assert np.all(np.diff(hist) <= 0.0)

    def test_determinism(self, ds1):
        z0 = np.concatenate([np.full(4, 0.3), np.full(6, 0.2)])
        r1 = newton_solve(ds1, z0, eps=0.3)
        r2 = newton_solve(ds1, z0, eps=0.3)
        assert r1.merit_history == r2.merit_history
        np.testing.assert_array_equal(r1.x, r2.x)
        np.testing.assert_array_equal(r1.lam, r2.lam)

    def test_iteration_cap(self, ds1, monkeypatch):
        monkeypatch.setattr("mlfg.solvers.NEWTON_MAX_ITER", 1)
        res = newton_solve(ds1, eps=0.5, tol=1e-10)
        assert not res.converged
        assert res.iterations == 1
        assert np.all(np.isfinite(np.concatenate([res.x, res.lam])))

    def test_invalid_config(self, ds1):
        with pytest.raises(ValueError):
            newton_solve(ds1, tol=0.0)

    @pytest.mark.parametrize("name,total", [("ds1", 43), ("ds2", 37)])
    def test_one_evaluation_per_point(self, request, monkeypatch, name, total):
        # each solve evaluates its start and each Armijo trial once: the
        # Jacobian is built from the carried evaluation, and no residual
        # helper evaluates a point again
        game = request.getfixturevalue(name)

        def no_evaluation(*args):
            raise AssertionError("evaluated a point outside the solver's evaluate calls")

        evaluations, searches, per_solve = [], [], []

        def search(*args):
            t, ev = armijo_search(*args)
            searches.append(LADDER_SIZE if ev is None else 1 + round(-np.log2(t)))
            return t, ev

        def solve(*args, **kwargs):
            evaluations.clear()
            searches.clear()
            res = newton_solve(*args, **kwargs)
            assert len(evaluations) == 1 + sum(searches)
            per_solve.append(len(evaluations))
            return res

        monkeypatch.setattr(
            "mlfg.solvers.evaluate", lambda *a: evaluations.append(a) or evaluate(*a)
        )
        monkeypatch.setattr("mlfg.solvers.armijo_search", search)
        monkeypatch.setattr("mlfg.homotopy.newton_solve", solve)
        monkeypatch.setattr("mlfg.kkt.evaluate", no_evaluation)
        monkeypatch.setattr("mlfg.solvers.kkt_residual", no_evaluation)
        trace = homotopy_solve(game)
        assert trace.converged and len(per_solve) == len(trace.stages)
        assert sum(per_solve) == total


class TestSubgradient:
    def test_immediate_return_at_root(self, ds1):
        root = newton_solve(ds1, eps=0.9)
        res = subgradient_solve(ds1, np.concatenate([root.x, root.lam]), eps=0.9)
        assert res.converged
        assert res.iterations == 0

    def test_scalar_quadratic_merit(self):
        # single variable, zero weights, loose constraint: the merit is a
        # strictly convex quadratic in x and descent contracts it linearly
        game = make_game(
            [np.array([[1.0]])],
            [np.zeros(1)],
            [np.array([[1.0]])],
            [np.array([-100.0])],
            np.array([1.0]),
            np.array([[1.0]]),
            np.array([[1.0]]),
            np.array([0.0]),
        )
        z0 = np.array([1.0, 0.0])
        res = subgradient_solve(game, z0, eps=0.5, tol=1e-12)
        assert res.converged
        assert abs(res.x[0]) <= 1e-5
        hist = np.array(res.merit_history)
        assert np.all(np.diff(hist) < 0.0)

    def test_harder_at_smaller_smoothing(self, ds1):
        easy = subgradient_solve(ds1, eps=1.6, tol=1e-8)
        hard = subgradient_solve(ds1, eps=0.1, tol=1e-8)
        assert easy.converged and hard.converged
        assert hard.iterations > easy.iterations

    def test_monotone_merit(self, ds1):
        res = subgradient_solve(ds1, eps=0.8, tol=1e-8)
        hist = np.array(res.merit_history)
        assert np.all(np.diff(hist) <= 0.0)

    def test_caps_return_best_iterate(self, ds1, monkeypatch):
        monkeypatch.setattr("mlfg.solvers.SUBGRAD_MAX_ITER", 10)
        res = subgradient_solve(ds1, eps=0.5, tol=1e-14)
        assert not res.converged
        assert res.iterations == 10
        assert res.merit <= res.merit_history[0]
        assert np.all(np.isfinite(np.concatenate([res.x, res.lam])))

    def test_determinism(self, ds1):
        r1 = subgradient_solve(ds1, eps=0.7, tol=1e-6)
        r2 = subgradient_solve(ds1, eps=0.7, tol=1e-6)
        assert r1.merit_history == r2.merit_history
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_invalid_config(self, ds1):
        with pytest.raises(ValueError):
            subgradient_solve(ds1, tol=0.0)

    def test_no_jacobian_one_window_per_step(self, ds1, monkeypatch):
        # each step makes one stacked evaluation of a window of the halving
        # ladder (the whole ladder on the first step, else the rows down to
        # WINDOW_MARGIN below the last accepted step), one more of the rest
        # of the ladder when the window holds no passing step, and one
        # single-point evaluation per doubling tried; the subgradient reuses
        # the accepted point's evaluation, so every kernel pass belongs to an
        # evaluation, and no Jacobian is assembled
        def no_jacobian(*args):
            raise AssertionError("assembled a Jacobian")

        def no_residual(*args):
            raise AssertionError("evaluated a residual outside an evaluation")

        shapes, kernel_calls = [], []
        monkeypatch.setattr(
            "mlfg.solvers.evaluate", lambda *a: shapes.append(a[1].shape) or evaluate(*a)
        )
        monkeypatch.setattr(
            "mlfg.kkt.phi_tilde_slopes",
            lambda *a: kernel_calls.append(a[0].shape) or phi_tilde_slopes(*a),
        )
        monkeypatch.setattr("mlfg.solvers.kkt_residual", no_residual)
        monkeypatch.setattr("mlfg.solvers.generalized_jacobian", no_jacobian)
        monkeypatch.setattr("mlfg.kkt.generalized_jacobian", no_jacobian)
        res = subgradient_solve(ds1, eps=0.8, tol=1e-8)
        assert res.converged and res.iterations > 0
        expected, rows, misses = [(10,)], LADDER_SIZE, 0
        for sigma in res.step_norms:
            index = max(0, -int(np.log2(sigma)))
            expected.append((rows, 10))
            if index >= rows:
                expected.append((LADDER_SIZE - rows, 10))
                misses += 1
            if sigma >= 1.0:
                # doubled log2(sigma) times and failed once more
                expected += [(10,)] * (int(np.log2(sigma)) + 1)
            rows = min(index + WINDOW_MARGIN, LADDER_SIZE)
        assert shapes == expected
        assert shapes.count((LADDER_SIZE, 10)) == 1 and misses > 0
        # one kernel pass per evaluation, on its kernel arguments (m = 3)
        assert kernel_calls == [shape[:-1] + (3,) for shape in shapes]

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("name", ["ds1", "ds2"])
    def test_window_leaves_iterates_unchanged(self, request, monkeypatch, name, p):
        # the subgradient continuation with windowed searches against one in
        # which every search evaluates the whole ladder, bit for bit
        game = request.getfixturevalue(name)
        cfg = HomotopyConfig(method="subgradient", eps_min=0.05, p=p)
        rows = []
        monkeypatch.setattr(
            "mlfg.solvers.evaluate",
            lambda *a: rows.append(len(a[1]) if a[1].ndim > 1 else 0) or evaluate(*a),
        )
        windowed = homotopy_solve(game, cfg=cfg)
        windowed_rows = sum(rows)
        rows.clear()
        monkeypatch.setattr(
            "mlfg.solvers._step_search", lambda *a: _step_search(*a[:7], LADDER_SIZE)
        )
        whole = homotopy_solve(game, cfg=cfg)
        assert windowed.converged and len(windowed.stages) == len(whole.stages)
        assert windowed_rows < sum(rows)
        for a, b in zip(windowed.stages, whole.stages):
            assert np.array_equal(a.result.x, b.result.x)
            assert np.array_equal(a.result.lam, b.result.lam)
            assert a.result.merit_history == b.result.merit_history
            assert a.result.step_norms == b.result.step_norms

    def test_failed_step_search_ends_solve(self, ds1, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "mlfg.solvers._step_search", lambda *a: calls.append(a) or (0.0, None)
        )
        res = subgradient_solve(ds1, eps=0.8)
        assert len(calls) == 1
        assert res.iterations == 0 and not res.converged
        np.testing.assert_array_equal(np.concatenate([res.x, res.lam]), np.zeros(10))
        assert res.merit_history == [merit(ds1, np.zeros(10), eps=0.8)] == [res.merit]

    def test_zero_subgradient_ends_solve(self, ds1, monkeypatch):
        calls = []
        monkeypatch.setattr("mlfg.solvers.merit_subgradient", lambda game, ev: np.zeros(ev.F.size))
        monkeypatch.setattr("mlfg.solvers._step_search", lambda *a: calls.append(a))
        res = subgradient_solve(ds1, eps=0.8)
        assert calls == []
        assert res.iterations == 0 and not res.converged
        assert np.all(np.isfinite(np.concatenate([res.x, res.lam])))


def _search_inputs(game, z, eps, direction=None):
    """(z, d, eps, p, psi0, v_norm) of a step search from ``z``, along the
    normalized negative merit subgradient unless a direction is given."""
    F = kkt_residual(game, z, eps)
    v = jacobian_at(game, z, eps).T @ F
    v_norm = float(np.linalg.norm(v))
    d = -v / v_norm if direction is None else direction / np.linalg.norm(direction)
    return z, d, eps, 2, residual_merit(F, game.n), v_norm


def _same_search(game, args, rows=LADDER_SIZE):
    """Run both searches, the stacked one with a window of ``rows`` steps;
    require the same step and merit and a bit-identical residual, and an
    accepted evaluation equal to that point's own."""
    sigma, ev = _step_search(game, *args, rows)
    sigma_ref, F_ref, psi_ref = step_search_sequential(game, *args)
    assert sigma == sigma_ref
    if ev is None:
        assert F_ref is None
        return sigma
    assert ev.psi == psi_ref and np.array_equal(ev.F, F_ref)
    z, d, eps, p = args[:4]
    alone = evaluate(game, z + sigma * d, eps, p)
    assert all(np.array_equal(a, b) for a, b in zip(ev, alone))
    return sigma


class TestStepSearch:
    def test_matches_sequential_search(self, ds1, ds2):
        # points around each root, along the descent direction or a random
        # one, each searched with windows of several sizes; a window that
        # ends above the accepted step makes the second call
        kinds = {rows: set() for rows in (1, 2, 5, LADDER_SIZE)}
        for seed, game in enumerate((ds1, ds2)):
            rng = np.random.default_rng(seed)
            size = game.n + game.m_bar
            for eps in (1.6, 0.2, 0.05):
                root = newton_solve(game, eps=eps)
                for k in range(20):
                    z = np.concatenate([root.x, root.lam])
                    z = z + 10 ** rng.uniform(-4, 0.5) * rng.standard_normal(size)
                    direction = rng.standard_normal(size) if k % 2 else None
                    args = _search_inputs(game, z, eps, direction)
                    for rows, seen in kinds.items():
                        sigma = _same_search(game, args, rows)
                        seen.add("fail" if sigma == 0 else "halve" if sigma < 1 else "double")
                        if 0 < sigma < 1 and -np.log2(sigma) >= rows:
                            seen.add("second call")
        for rows, seen in kinds.items():
            assert seen == {"fail", "halve", "double"} | (
                {"second call"} if rows < LADDER_SIZE else set()
            )

    def test_all_fail(self, ds1):
        # near the root the merit rises along the positive subgradient
        root = newton_solve(ds1, eps=0.8)
        z = np.concatenate([root.x + 0.01, root.lam])
        args = _search_inputs(ds1, z, 0.8)
        args = (z, -args[1], *args[2:])
        assert step_search_sequential(ds1, *args) == (0.0, None, None)
        assert _step_search(ds1, *args) == (0.0, None)

    def test_doubling_branch(self, ds1):
        # far from the root a unit step is short and the search doubles it
        z = np.concatenate([np.full(4, 50.0), np.zeros(6)])
        assert _same_search(ds1, _search_inputs(ds1, z, 0.8)) > 1.0

    @staticmethod
    def _evaluation_shapes(monkeypatch):
        """The shapes of the points of every evaluation call, in call order."""
        calls = []
        monkeypatch.setattr(
            "mlfg.solvers.evaluate", lambda *a: calls.append(a[1].shape) or evaluate(*a)
        )
        return calls

    def test_halving_ladder_is_one_residual_call(self, ds1, monkeypatch):
        root = newton_solve(ds1, eps=0.8)
        args = _search_inputs(ds1, np.concatenate([root.x + 1e-3, root.lam]), 0.8)
        calls = self._evaluation_shapes(monkeypatch)
        sigma, _ = _step_search(ds1, *args)
        assert 0.0 < sigma < 1.0
        # sigma = 1 and the ladder 1/2 ... 2**-40
        assert calls == [(41, 10)]

    def test_doubling_evaluates_single_points(self, ds1, monkeypatch):
        # the start of test_doubling_branch
        args = _search_inputs(ds1, np.concatenate([np.full(4, 50.0), np.zeros(6)]), 0.8)
        calls = self._evaluation_shapes(monkeypatch)
        sigma, _ = _step_search(ds1, *args)
        assert sigma > 1.0
        # one trial per doubling that passed, and the one that failed
        assert calls == [(41, 10)] + [(10,)] * (int(np.log2(sigma)) + 1)

    def test_dataset1_stage0_step_lengths(self, ds1):
        # log2 of every accepted step of stage 0 (eps = 1.6), with counts
        trace = homotopy_solve(ds1, cfg=HomotopyConfig(method="subgradient", eps_min=0.05))
        steps = trace.stages[0].result.step_norms
        assert all(2.0 ** int(np.log2(s)) == s for s in steps)
        histogram = dict(zip(*np.unique(np.log2(steps).astype(int), return_counts=True)))
        assert histogram == {
            -19: 2, -18: 29, -17: 2, -16: 30, -15: 2, -14: 23, -13: 2, -12: 50, -11: 3,
            -10: 24, -9: 19, -8: 18, -7: 13, -6: 20, -5: 29, -4: 4, -3: 14, -1: 2, 0: 1, 1: 1,
        }


def stage0_point(trace) -> np.ndarray:
    first = trace.stages[0].result
    return np.concatenate([first.x, first.lam])


class TestEndgameStep:
    @pytest.mark.parametrize("name", ["1", "2"])
    def test_stage0_point_gives_the_exact_equilibrium(self, request, name):
        game, trace = request.getfixturevalue(f"ds{name}"), request.getfixturevalue(f"trace{name}")
        z = endgame_step(game, *piece(game, stage0_point(trace)))
        assert z is not None
        assert np.all(np.abs(verify_nash(game, z[: game.n])) <= 1e-12)
        assert np.array_equal(z[game.n :], np.zeros(game.m_bar))

    def test_active_constraints_get_positive_multipliers(self, active_game, active_trace):
        z = endgame_step(active_game, *piece(active_game, stage0_point(active_trace)))
        assert z is not None
        lam = z[active_game.n :]
        first = list(active_game.lambda_offsets[:-1])  # each leader's moved constraint
        assert np.all(lam[first] > 0.0)
        assert np.all(np.abs(verify_nash(active_game, z[: active_game.n])) <= 1e-12)

    @pytest.mark.parametrize("j", range(3))
    def test_flipped_branch_is_declined(self, ds1, trace1, j):
        xi, active = piece(ds1, stage0_point(trace1))
        xi[j] = -xi[j]
        assert endgame_step(ds1, xi, active) is None

    def test_kink_is_declined(self, kink_game):
        x_star = np.array([1.0, -0.5, 0.5, 1.0])  # on every kink
        z = np.concatenate([x_star, np.zeros(kink_game.m_bar)])
        assert endgame_step(kink_game, *piece(kink_game, z)) is None

    def test_zero_row_is_free(self, ds2):
        # L[:, 0] = B[:, 0] / Qy[0] zeroes row 0 of A_diff, so xi[0] is 0 at
        # every point; both branches of that row are the same map
        f = ds2.follower
        L = f.L.copy()
        L[:, 0] = f.B[:, 0] / f.Qy_diag[0]
        game = GameSpec(ds2.leaders, FollowerSpec(Qy_diag=f.Qy_diag, B=f.B, L=L, a=f.a))
        assert not game.A_diff[0].any()
        sol = solve(game)
        assert sol.endgame == 0 and sol.certificate.certified
        assert sol.certificate.s_stat_residuals["stationarity_x"] <= 1e-12
        assert np.all(np.abs(verify_nash(game, sol.x)) <= 1e-12)

    def test_singular_system_is_declined(self, monkeypatch):
        # x <= 1 twice, both on the constraint branch at x = 1: G_A has two equal columns
        game = make_game(
            [np.eye(1)], [np.zeros(1)], [np.array([[1.0, 1.0]])], [np.array([-1.0, -1.0])],
            np.ones(1), np.ones((1, 1)), np.zeros((1, 1)), np.ones(1),
        )
        solved = []
        monkeypatch.setattr(solvers, "lu_solve", lambda M, rhs: solved.append(lu_solve(M, rhs)))
        assert endgame_step(game, *piece(game, np.array([1.0, 1.0, 1.0]))) is None
        assert solved == [None]
