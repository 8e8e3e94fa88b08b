"""Solves of the benchmark's generated games (``perfbench/gen.py``).

The generator is loaded from its file and only called: its seed-3 ladder of
42 games is built in memory, with near-kink follower components and active
leader constraints that the bundled datasets never reach.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from mlfg import HomotopyConfig, certify, homotopy_solve, save_game, solve
from mlfg.cli import main
from mlfg.solvers import endgame_step, piece, subgradient_solve
from mlfg.verify import nash_gap_bounds

from conftest import make_game
from helpers import (
    assert_same_stages,
    assert_stops_early_on_the_same_path,
    endgame_step_block,
    inexact_stages,
    nash_gap_bounds_per_leader,
)

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def generated_ladder(seed):
    """{name: (game, x_star)} for ``generate_ladder(seed)``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    games = {}
    for name, doc, x_star in gen.generate_ladder(seed):
        lds, fol = doc["leaders"], doc["follower"]
        game = make_game(
            *([ld[key] for ld in lds] for key in ("Q", "c", "A", "b")),
            fol["Qy_diag"], fol["B"], fol["L"], fol["a"],
        )
        games[name] = game, np.array(x_star)
    return games


@pytest.fixture(scope="module")
def ladder3():
    """{name: game} for ``generate_ladder(3)``."""
    return {name: game for name, (game, _) in generated_ladder(3).items()}


@pytest.fixture(scope="module")
def solved(ds1, ds2, ladder3):
    """{name: (game, mlfg.solve's Solution)} for both bundled games and the
    seed-3 ladder."""
    games = {"dataset1": ds1, "dataset2": ds2, **ladder3}
    return {name: (game, solve(game)) for name, game in games.items()}


def test_endgame_matches_the_block_reference(solved):
    # on the piece of every stage point, and with every constraint active
    # (often off its piece, or singular), bit for bit
    found = declined = 0
    for name, (game, sol) in solved.items():
        for stage in sol.trace.stages:
            xi, active = piece(game, np.concatenate([stage.result.x, stage.result.lam]))
            for on in (active, np.ones_like(active)):
                z, ref = endgame_step(game, xi, on), endgame_step_block(game, xi, on)
                assert (z is None) == (ref is None), name
                if z is None:
                    declined += 1
                else:
                    assert z.tobytes() == ref.tobytes(), name
                    found += 1
    assert found >= len(solved) and declined > 0


def test_certificate_gaps_match_the_per_leader_reference(solved):
    # at the solution, and at the last stage's smoothed point, bit for bit
    for name, (game, sol) in solved.items():
        cert = sol.certificate
        ref = nash_gap_bounds_per_leader(game, sol.x, sol.lam, cert.Gamma1)
        assert cert.nash_gaps.tobytes() == ref.tobytes(), name
        final = sol.trace.final
        cert = certify(game, final.x, final.lam, sol.trace.final_eps)
        ref = nash_gap_bounds_per_leader(game, final.x, final.lam, cert.Gamma1)
        assert cert.nash_gaps.tobytes() == ref.tobytes(), name
        assert nash_gap_bounds(game, final.x, final.lam, cert.Gamma1).tobytes() == ref.tobytes()


def test_gaps_line_of_many_leaders_is_one_line(ladder3, tmp_path, capsys):
    # numpy's printer padded signs and wrapped this line past 75 characters
    name = max(ladder3, key=lambda name: ladder3[name].num_leaders)
    assert ladder3[name].num_leaders >= 7
    game, report = tmp_path / "game.json", tmp_path / "report.json"
    save_game(ladder3[name], game)
    assert main(["solve", "--data", str(game), "--out", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    gaps = json.loads(report.read_text())["certificate"]["nash_gaps"]
    i = lines.index("nash gaps: [" + " ".join(f"{g:.3e}" for g in gaps) + "]")
    assert lines[i + 1].startswith("max stationarity residual: ")


def test_newton_continuation_converges_on_seed3_ladder(ladder3):
    # g07 has a stage-0 start from which every full Newton step raises the
    # merit; without backtracking along the Newton direction it ran out of
    # iterations on subgradient fallbacks
    assert len(ladder3) == 42
    failed = [name for name, game in ladder3.items() if not homotopy_solve(game).converged]
    assert failed == []


def test_solve_ends_at_a_later_stage_with_the_continuations_stages(ladder3, monkeypatch):
    # g07's first three stage points lie on one piece, whose endgame step
    # leaves it and is taken once; at the fourth another constraint is
    # active, and that piece's step is the exact equilibrium
    game = ladder3["g07_N3_v3_c2_m2"]
    calls = []
    monkeypatch.setattr(
        "mlfg.homotopy.endgame_step",
        lambda game, xi, active: calls.append(active) or endgame_step(game, xi, active),
    )
    sol, full = solve(game), homotopy_solve(game)
    assert sol.endgame == 3 and sol.certificate.certified
    assert len(calls) == 2 and len(sol.trace.stages) == 4
    assert_same_stages(sol.trace.stages, inexact_stages(game, HomotopyConfig()))
    assert_stops_early_on_the_same_path(sol.trace.stages[0], full.stages[0])


def test_near_kink_equilibrium_certifies(ladder3):
    # g06 ends with a follower component near the kink, where the kernel
    # derivative is close to but not at +-1; its branch multipliers must use
    # that value as it is
    game = ladder3["g06_N3_v3_c2_m2"]
    trace = homotopy_solve(game)
    assert trace.converged
    cert = certify(game, trace.final.x, trace.final.lam, trace.final_eps)
    assert cert.certified, cert.s_stat_residuals


def test_verify_report_certifies_at_report_p(ladder3, tmp_path):
    # verify --report judges the solution with the kernel exponent it was
    # solved with; at p = 2 this p = 4 equilibrium is refused
    game, report = tmp_path / "g06.json", tmp_path / "report.json"
    save_game(ladder3["g06_N3_v3_c2_m2"], game)
    assert main(["solve", "--data", str(game), "--p", "4", "--out", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["p"] == 4
    assert main(["verify", "--data", str(game), "--report", str(report)]) == 0


@pytest.mark.parametrize(
    "name, iterations, converged",
    [
        # five active constraints at the end
        ("g04_N2_v3_c3_m1", [89, 72, 69, 81, 102, 87], True),
        # stage 2 ends above the merit target at the step cap, and the run stops there
        ("g05_N2_v3_c3_m1", [71, 51, 25000], False),
        # the near-kink game of the test above
        ("g06_N3_v3_c2_m2", [989, 528, 2560, 2214, 1609, 2144], True),
    ],
)
def test_subgradient_stage_counts_pinned(ladder3, name, iterations, converged):
    cfg = HomotopyConfig(method="subgradient", eps_min=0.05)
    trace = homotopy_solve(ladder3[name], cfg=cfg)
    assert [s.result.iterations for s in trace.stages] == iterations
    assert trace.converged is converged


def test_subgradient_solve_certifies_g05(ladder3):
    # the exact continuation reaches the step cap at stage 2 (pinned above);
    # stopping the stages before the last early, solve converges and
    # certifies; g07 still reaches the cap in its last stage
    cfg = HomotopyConfig(method="subgradient", eps_min=0.05)
    sol = solve(ladder3["g05_N2_v3_c3_m1"], cfg=cfg)
    assert [s.result.iterations for s in sol.trace.stages] == [28, 18, 468, 6501, 3114, 5123]
    assert sol.trace.converged and sol.certificate.certified


def test_subgradient_runs_to_its_step_cap(ladder3):
    # the first stage of g13 needs 23,630 steps; nothing but the step cap
    # may end a descent that keeps decreasing the merit
    res = subgradient_solve(ladder3["g13_N4_v3_c3_m1"], eps=1.6)
    assert res.converged
    assert res.iterations == 23630


def test_generated_equilibria_certify():
    # a component within about 1e-2 of the kink gets a kernel derivative
    # short of +-1 at the final level; at the exact equilibrium the
    # certificate's sign split is the one that passes
    final_eps = HomotopyConfig().final_eps
    certs = {
        (seed, name): certify(game, x_star, None, final_eps)
        for seed in (1, 2, 3)
        for name, (game, x_star) in generated_ladder(seed).items()
    }
    assert len(certs) == 126
    assert [key for key, cert in certs.items() if not cert.certified] == []
    assert {cert.split for cert in certs.values()} == {"smoothed", "sign"}


@pytest.mark.parametrize("name", ["g09_N3_v4_c2_m1", "g12_N4_v3_c3_m1"])
def test_exact_endgame_point_certifies(name):
    # the smoothed split refused this point: stationarity_x 9.1e-5 (g09)
    # and 3.3e-4 (g12) against the gate 1.7e-6
    game, x_star = generated_ladder(2)[name]
    trace = homotopy_solve(game)
    points = (np.concatenate([s.result.x, s.result.lam]) for s in trace.stages)
    z = next(z for z in (endgame_step(game, *piece(game, p)) for p in points) if z is not None)
    assert np.max(np.abs(z[: game.n] - x_star)) <= 1e-12
    cert = certify(game, z[: game.n], z[game.n :], trace.final_eps)
    assert cert.certified, cert.s_stat_residuals
    assert cert.to_dict()["split"] == "sign"
