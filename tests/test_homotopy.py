import dataclasses
import json

import numpy as np
import pytest

from mlfg import (
    HomotopyConfig,
    best_response_exact,
    best_response_smoothed,
    homotopy_solve,
    newton_solve,
    solve,
)
from mlfg.cli import main
from mlfg.homotopy import MAX_LEVELS, taylor_direction

from helpers import (
    assert_same_stages,
    assert_stops_early_on_the_same_path,
    inexact_stages,
    min_curvature,
)


class TestSchedule:
    def test_geometric_levels_exact(self, trace1):
        eps = trace1.eps_values()
        expected = 1.6 * 0.5 ** np.arange(len(eps))
        np.testing.assert_array_equal(eps, expected)
        assert eps[-1] <= 1e-6
        assert eps[-2] > 1e-6

    def test_all_stages_converge(self, trace1, trace2):
        for trace in (trace1, trace2):
            assert trace.converged
            assert all(s.result.converged for s in trace.stages)
            assert all(s.result.merit <= 1e-10 for s in trace.stages)

    def test_errors_decrease(self, trace1):
        errs = trace1.errors_to_final()
        assert np.all(np.diff(errs[:-1]) < 0.0)
        assert errs[-1] == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HomotopyConfig(eps0=0.9)
        with pytest.raises(ValueError):
            HomotopyConfig(eps0=2.5)
        with pytest.raises(ValueError):
            HomotopyConfig(gamma=1.0)
        with pytest.raises(ValueError):
            HomotopyConfig(method="simplex")
        with pytest.raises(ValueError):
            HomotopyConfig(tol=float("inf"))
        with pytest.raises(ValueError):
            HomotopyConfig(p=3)
        # about 1.4e10 levels, which would exhaust memory if all were built
        with pytest.raises(ValueError, match="levels"):
            HomotopyConfig(gamma=1 - 1e-9)

    def test_schedule_cap_counts_levels(self):
        ratio = HomotopyConfig.eps_min / HomotopyConfig.eps0
        cfg = HomotopyConfig(gamma=ratio ** (1 / (MAX_LEVELS - 1.5)))
        assert len(cfg.levels) == MAX_LEVELS
        with pytest.raises(ValueError, match="levels"):
            HomotopyConfig(gamma=ratio ** (1 / (MAX_LEVELS - 0.5)))
        # eps_min on the grid, the schedule's own last level: a count from
        # logarithms rounds up past it
        cfg = HomotopyConfig(gamma=0.9965, eps_min=1.6 * 0.9965 ** (MAX_LEVELS - 1))
        assert len(cfg.levels) == MAX_LEVELS

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(HomotopyConfig)])
    def test_config_is_frozen(self, field):
        # an edit after validation would skip its checks, say method = "Newton"
        # or eps_min = 0.0
        cfg = HomotopyConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, getattr(cfg, field))


class TestZeroWeightGame:
    def test_constant_path_and_trivial_predictor(self, quadratic_game):
        trace = homotopy_solve(quadratic_game, cfg=HomotopyConfig(eps_min=0.01))
        assert trace.converged
        x_ref = trace.final.x
        for s in trace.stages:
            np.testing.assert_allclose(s.result.x, x_ref, atol=1e-9)
            assert s.predictor_norm == 0.0
        # warm starts are exact solutions, so later stages need no steps
        assert all(s.result.iterations == 0 for s in trace.stages[1:])

    def test_direction_zero(self, quadratic_game):
        d = taylor_direction(quadratic_game, np.ones(4), eps=0.5)
        np.testing.assert_array_equal(d, np.zeros(4))


class TestTaylorDirection:
    def test_matches_solution_path_derivative(self, ds1):
        # oracle: two full solves bracketing the smoothing level
        eps, delta = 0.8, 1e-3
        tol = 1e-16
        base = newton_solve(ds1, eps=eps, tol=tol)
        z_base = np.concatenate([base.x, base.lam])
        up = newton_solve(ds1, z_base, eps=eps + delta, tol=tol)
        down = newton_solve(ds1, z_base, eps=eps - delta, tol=tol)
        fd = (up.x - down.x) / (2 * delta)
        d = taylor_direction(ds1, base.x, eps)
        assert np.linalg.norm(d - fd) / np.linalg.norm(fd) <= 1e-2

    def test_coefficient_matrix_positive_definite(self, ds1, ds2):
        from mlfg.smoothing import phi_tilde_d2

        rng = np.random.default_rng(0)
        for game in (ds1, ds2):
            a = game.follower.a
            mu = min_curvature(game)
            for _ in range(20):
                x = rng.uniform(-4, 4, game.n)
                curv = a * phi_tilde_d2(game.A_diff @ x, 0.37, 2)
                E = game.Q_block + 0.5 * (game.A_diff.T * curv) @ game.A_diff
                assert np.linalg.eigvalsh(E)[0] >= mu - 1e-9


class TestPredictorValue:
    def test_warm_starts_usually_better(self, trace1, trace1_no_predictor):
        on = [s.warm_start_merit for s in trace1.stages[1:]]
        off = [s.warm_start_merit for s in trace1_no_predictor.stages[1:]]
        assert len(on) == len(off)
        better = sum(1 for a, b in zip(on, off) if a <= b)
        assert better >= 0.8 * len(on)

    def test_mean_iterations_not_worse(self, trace1, trace1_no_predictor):
        mean_on = np.mean([s.result.iterations for s in trace1.stages])
        mean_off = np.mean([s.result.iterations for s in trace1_no_predictor.stages])
        assert mean_on <= mean_off


class TestTraceConsistency:
    def test_smoothed_response_near_exact_along_path(self, trace1, ds1):
        for s in trace1.stages:
            y_eps = best_response_smoothed(ds1, s.result.x, s.eps)
            y_exact = best_response_exact(ds1, s.result.x)
            assert np.max(np.abs(y_eps - y_exact)) <= s.eps + 1e-12

    def test_failure_marks_stage_and_aborts(self, ds1, monkeypatch):
        monkeypatch.setattr("mlfg.solvers.NEWTON_MAX_ITER", 1)
        trace = homotopy_solve(ds1, cfg=HomotopyConfig(tol=1e-10))
        assert not trace.converged
        assert not trace.stages[-1].result.converged
        assert len(trace.stages) == 1

    def test_warm_start_merit_is_first_merit(self, trace1):
        assert all(s.warm_start_merit == s.result.merit_history[0] for s in trace1.stages)

    @pytest.mark.parametrize(
        "eps0, gamma, eps_min",
        [(1.6, 0.5, 1e-6), (1.6, 0.5, 0.1), (1.5, 0.3, 1e-3), (1.9, 0.9, 0.05), (1.2, 0.7, 0.5)],
    )
    def test_final_eps_is_the_runs_final_level(self, ds1, eps0, gamma, eps_min):
        cfg = HomotopyConfig(eps0=eps0, gamma=gamma, eps_min=eps_min)
        trace = homotopy_solve(ds1, cfg=cfg)
        assert cfg.final_eps == trace.final_eps
        assert cfg.levels == tuple(s.eps for s in trace.stages)

    def test_subgradient_inner(self, ds1):
        cfg = HomotopyConfig(eps_min=0.4, method="subgradient", tol=1e-8)
        trace = homotopy_solve(ds1, cfg=cfg)
        assert trace.converged
        assert [round(s.eps, 12) for s in trace.stages] == [1.6, 0.8, 0.4]


class TestSolve:
    """``solve`` runs the continuation's schedule with inexact stages, takes
    the exact endgame for Newton and certifies its point, as ``mlfg solve``
    reports it."""

    @pytest.mark.parametrize("name", ["1", "2"])
    def test_matches_the_solve_report(self, request, tmp_path, name):
        sol = solve(request.getfixturevalue(f"ds{name}"))
        report = tmp_path / "report.json"
        assert main(["solve", "--dataset", name, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert sol.endgame == 0 and doc["endgame"] == {"after_stage": sol.endgame}
        assert sol.x.tolist() == doc["solution"]["x"]
        assert sol.lam.tolist() == doc["solution"]["lambda"]
        assert sol.certificate.to_dict() == doc["certificate"]
        assert len(sol.trace.stages) == len(doc["stages"])

    @pytest.mark.parametrize("name", ["ds1", "ds2", "active_game", "kink_game"])
    def test_stages_are_the_continuations_first(self, request, name):
        # the kink game declines every endgame and runs all 22 stages; stage
        # 0 starts where the exact continuation's does and stops on its path
        game = request.getfixturevalue(name)
        sol, full = solve(game), homotopy_solve(game)
        ref = inexact_stages(game, HomotopyConfig())
        assert 1 <= len(sol.trace.stages) <= len(ref) == len(full.stages)
        assert_same_stages(sol.trace.stages, ref)
        assert_stops_early_on_the_same_path(sol.trace.stages[0], full.stages[0])
        if sol.endgame is None:
            assert len(sol.trace.stages) == len(ref)
            assert sol.trace.stages[-1].merit_target == HomotopyConfig.tol
            assert np.array_equal(sol.x, ref[-1].result.x)

    def test_subgradient_has_no_endgame(self, ds1):
        cfg = HomotopyConfig(eps_min=0.4, method="subgradient", tol=1e-8)
        sol, full = solve(ds1, cfg=cfg), homotopy_solve(ds1, cfg=cfg)
        ref = inexact_stages(ds1, cfg)
        assert sol.endgame is None and sol.certificate is not None
        assert len(sol.trace.stages) == len(ref) == len(full.stages)
        assert_same_stages(sol.trace.stages, ref)
        assert_stops_early_on_the_same_path(sol.trace.stages[0], full.stages[0])
        assert np.array_equal(sol.x, ref[-1].result.x)
        assert np.array_equal(sol.lam, ref[-1].result.lam)

    def test_stage_targets(self, ds1, kink_game):
        # each stage before the last stops at max(tol, 1e-4 eps**2) and the
        # last at tol; the kink game declines every endgame, so both runs
        # reach the last level; the full continuation keeps tol throughout
        subgradient = HomotopyConfig(eps_min=0.1, method="subgradient", tol=1e-8)
        for game, cfg in ((kink_game, HomotopyConfig()), (ds1, subgradient)):
            sol = solve(game, cfg=cfg)
            expected = [max(cfg.tol, 1e-4 * eps**2) for eps in cfg.levels[:-1]] + [cfg.tol]
            assert [s.merit_target for s in sol.trace.stages] == expected
            assert all(s.result.merit <= s.merit_target for s in sol.trace.stages)
            full = homotopy_solve(game, cfg=cfg)
            assert [s.merit_target for s in full.stages] == [cfg.tol] * len(cfg.levels)

    def test_failed_stage_gives_no_certificate(self, ds1, monkeypatch):
        monkeypatch.setattr("mlfg.solvers.NEWTON_MAX_ITER", 1)
        tried = []
        monkeypatch.setattr("mlfg.homotopy.endgame_step", lambda *args: tried.append(args))
        sol = solve(ds1)
        assert sol.certificate is None and sol.endgame is None
        assert not sol.trace.converged and len(sol.trace.stages) == 1
        assert tried == []


class TestStageCountsPinned:
    """Per-stage inner iterations and fallback steps of the bundled schedules
    (the ``mlfg solve`` defaults, and the subgradient method down to
    eps = 0.05). A change that moves any of them changes the solver path."""

    def test_newton_defaults(self, trace1, trace2):
        expected = {
            "ds1": [4, 2, 2, 1, 1, 1, 1, 1, 1, 0, 1] + [0] * 11,
            "ds2": [3, 1, 1, 1, 1, 1, 1, 0, 0, 1] + [0] * 12,
        }
        for name, trace in (("ds1", trace1), ("ds2", trace2)):
            assert [s.result.iterations for s in trace.stages] == expected[name], name
            assert [s.result.fallback_steps for s in trace.stages] == [1] + [0] * 21, name

    def test_subgradient_to_eps_005(self, ds1, ds2):
        cfg = HomotopyConfig(eps_min=0.05, method="subgradient")
        expected = {
            "ds1": [288, 218, 196, 110, 142, 60],
            "ds2": [480, 331, 160, 150, 104, 50],
        }
        for name, game in (("ds1", ds1), ("ds2", ds2)):
            trace = homotopy_solve(game, cfg=cfg)
            assert trace.converged, name
            assert [s.result.iterations for s in trace.stages] == expected[name], name
            assert [s.result.fallback_steps for s in trace.stages] == [0] * 6, name
