import csv
import json
import os
import re
import stat
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import mlfg.cli
from mlfg import HomotopyConfig, HomotopyTrace, certify, homotopy_solve, newton_solve, save_game
from mlfg.cli import (
    BENCH_COLUMNS,
    ITER_LOG_COLUMNS,
    MULTISTART_COLUMNS,
    _bench_configs,
    _bench_schedule_rows,
    _build_report,
    _homotopy_config,
    _initial_point,
    _iter_log_rows,
    _max_distance,
    _write_csv,
    build_parser,
    main,
)
from mlfg.model import bundled_dataset_path
from mlfg.solvers import endgame_step
from mlfg.verify import verify_nash

from conftest import make_game
from helpers import assert_stops_early_on_the_same_path, inexact_stages

# the benchmark's pinned equilibria of the bundled games
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "reference.json"


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """The exit code of a command line, returned by ``main`` or raised by
    the parser."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def test_solve_dataset1(tmp_path, capsys, ds1):
    report = tmp_path / "report.json"
    log = tmp_path / "iters.csv"
    code = run("solve", "--dataset", "1", "--out", str(report), "--log", str(log))
    assert code == 0
    out = capsys.readouterr().out
    assert "certified: True" in out

    doc = json.loads(report.read_text())
    errors = [s["error_to_final"] for s in doc["stages"]]
    assert all(a > b for a, b in zip(errors[:-1], errors[1:]))
    # the certificate gates at the schedule's final level, and the exact
    # endgame after the first stage is the exact equilibrium
    assert doc["solution"]["eps_final"] <= 1e-6
    assert doc["endgame"] == {"after_stage": 0}
    assert all(s["converged"] for s in doc["stages"])
    assert doc["certificate"]["certified"] is True
    assert doc["certificate"]["split"] == "smoothed"
    assert len(doc["solution"]["x"]) == 4
    assert len(doc["solution"]["y"]) == 3
    assert np.all(np.abs(verify_nash(ds1, doc["solution"]["x"])) <= 1e-12)

    with open(log) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ITER_LOG_COLUMNS
    assert len(rows) > len(doc["stages"])  # at least one row per stage


def test_solve_report_rerun_closure(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run("solve", "--dataset", "1", "--out", str(r1)) == 0
    cfg = json.loads(r1.read_text())["config"]
    assert run(
        "solve", "--dataset", "1",
        "--method", cfg["method"],
        "--eps0", str(cfg["eps0"]),
        "--gamma", str(cfg["gamma"]),
        "--eps-min", str(cfg["eps_min"]),
        "--tol", str(cfg["tol"]),
        "--taylor", cfg["taylor"],
        "--p", str(cfg["p"]),
        "--out", str(r2),
    ) == 0
    x1 = np.array(json.loads(r1.read_text())["solution"]["x"])
    x2 = np.array(json.loads(r2.read_text())["solution"]["x"])
    assert np.max(np.abs(x1 - x2)) <= 1e-12


def test_solve_report_fields(tmp_path, trace1):
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", "1", "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert [s["fallback_steps"] for s in doc["stages"]] == [
        s.result.fallback_steps for s in trace1.stages[: len(doc["stages"])]
    ]
    assert doc["certificate"]["nash_method"] == "weak_duality"


@pytest.mark.parametrize("name", ["1", "2"])
def test_endgame_report_matches_library(tmp_path, request, name):
    # the exact endgame after stage 0; every reported stage is the inexact
    # continuation's stage of that index, stage 0 stops early on the full
    # run's path, and the certificate is reproducible
    game, trace = request.getfixturevalue(f"ds{name}"), request.getfixturevalue(f"trace{name}")
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", name, "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["endgame"] == {"after_stage": 0}
    assert len(doc["stages"]) == 1
    stages = inexact_stages(game, HomotopyConfig())
    assert_stops_early_on_the_same_path(stages[0], trace.stages[0])
    for s, ref in zip(doc["stages"], stages):
        assert s["index"] == ref.index and s["eps"] == ref.eps
        assert s["merit_target"] == ref.merit_target > HomotopyConfig.tol
        assert s["inner_iterations"] == ref.result.iterations
        assert s["merit_final"] == ref.result.merit
        assert s["fallback_steps"] == ref.result.fallback_steps
        assert s["warm_start_merit"] == ref.warm_start_merit
        assert s["predictor_norm"] == ref.predictor_norm
    sol = doc["solution"]
    assert sol["eps_final"] == trace.final_eps == HomotopyConfig().final_eps
    x = np.asarray(sol["x"])
    assert doc["stages"][0]["error_to_final"] == float(np.linalg.norm(stages[0].result.x - x))
    assert np.all(np.abs(verify_nash(game, x)) <= 1e-12)
    cert = certify(game, x, np.asarray(sol["lambda"]), sol["eps_final"], doc["config"]["p"])
    assert cert.to_dict() == doc["certificate"]
    assert run("verify", "--dataset", name, "--report", str(report)) == 0


def test_endgame_with_active_constraints(tmp_path, active_game):
    path, report = tmp_path / "active.json", tmp_path / "report.json"
    save_game(active_game, path)
    assert run("solve", "--data", str(path), "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["endgame"] == {"after_stage": 0}
    lam = np.asarray(doc["solution"]["lambda"])
    assert np.all(lam[list(active_game.lambda_offsets[:-1])] > 0.0)  # the moved constraints
    assert np.all(np.abs(verify_nash(active_game, doc["solution"]["x"])) <= 1e-12)


def test_endgame_declined_at_a_kink(tmp_path, kink_game):
    # no piece holds an equilibrium on the kinks: the full continuation runs
    path, report = tmp_path / "kink.json", tmp_path / "report.json"
    save_game(kink_game, path)
    run("solve", "--data", str(path), "--out", str(report))
    doc = json.loads(report.read_text())
    trace = homotopy_solve(kink_game)
    assert doc["endgame"] is None
    assert len(doc["stages"]) == len(trace.stages) == 22
    assert np.array_equal(np.asarray(doc["solution"]["x"]), trace.final.x)


def test_subgradient_runs_no_endgame(tmp_path, ds1):
    report = tmp_path / "report.json"
    flags = ["--method", "subgradient", "--eps-min", "0.05"]
    assert run("solve", "--dataset", "1", *flags, "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    cfg = HomotopyConfig(method="subgradient", eps_min=0.05)
    stages, trace = inexact_stages(ds1, cfg), homotopy_solve(ds1, cfg=cfg)
    assert doc["endgame"] is None
    assert len(doc["stages"]) == len(stages) == len(trace.stages)
    assert [s["merit_target"] for s in doc["stages"]] == [s.merit_target for s in stages]
    assert [s["inner_iterations"] for s in doc["stages"]] == [s.result.iterations for s in stages]
    assert np.array_equal(np.asarray(doc["solution"]["x"]), stages[-1].result.x)
    assert_stops_early_on_the_same_path(stages[0], trace.stages[0])


@pytest.mark.parametrize("name", ["1", "2"])
def test_subgradient_report_within_benchmark_tolerance(tmp_path, name):
    # the benchmark's check of the bundled-subgradient workload: a certified
    # report whose x is within the pinned tolerance of the smoothed equilibrium
    ref = json.loads(REFERENCE.read_text())[f"dataset{name}"]["subgradient"]
    report = tmp_path / "report.json"
    flags = ["--method", "subgradient", "--eps-min", str(ref["eps"])]
    assert run("solve", "--dataset", name, *flags, "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["certificate"]["certified"] is True
    assert doc["stages"][-1]["merit_final"] <= doc["stages"][-1]["merit_target"] == 1e-10
    assert np.max(np.abs(np.asarray(doc["solution"]["x"]) - ref["x"])) <= ref["tol"]


def test_subgradient_gaps_line_is_scientific(tmp_path, capsys):
    # numpy's printer showed these gaps as [0.005 0.005]; each leader's gap
    # is now printed with .3e whatever its size, on one line
    report = tmp_path / "report.json"
    flags = ["--method", "subgradient", "--eps-min", "0.05", "--out", str(report)]
    assert run("solve", "--dataset", "1", *flags) == 0
    lines = capsys.readouterr().out.splitlines()
    gaps = json.loads(report.read_text())["certificate"]["nash_gaps"]
    assert len(gaps) == 2 and min(gaps) > 1e-4
    i = lines.index("nash gaps: [" + " ".join(f"{g:.3e}" for g in gaps) + "]")
    assert re.fullmatch(r"nash gaps: \[\d\.\d{3}e-\d{2} \d\.\d{3}e-\d{2}\]", lines[i])
    assert lines[i + 1].startswith("max stationarity residual: ")


@pytest.mark.parametrize("name", ["1", "2"])
def test_report_is_one_line_of_the_built_report(monkeypatch, tmp_path, name):
    # the compact layout of the C encoder; the content of _build_report's
    # dict, every float by its repr
    built = []

    def build(*args):
        built.append(_build_report(*args))
        return built[-1]

    monkeypatch.setattr(mlfg.cli, "_build_report", build)
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", name, "--out", str(report)) == 0
    text = report.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    assert len(built) == 1
    assert json.loads(text) == json.loads(json.dumps(built[0]))


def test_verify_follower_without_variables(m0_game, tmp_path, capsys):
    # every reduction of the certificate over the follower is empty; the
    # violated constraint refuses the candidate (exit 2), not an input error
    game, x = tmp_path / "m0.json", tmp_path / "x.txt"
    save_game(m0_game, game)
    x.write_text("0 0 0 0")
    assert run("verify", "--data", str(game), "--x", str(x)) == 2
    out = capsys.readouterr().out
    assert "primal_feasibility: 2.600000e+00" in out.splitlines()
    assert "certified: False" in out


def test_endgame_tries_each_piece_once(monkeypatch, kink_game, tmp_path):
    # every stage point of the kink game is on its kinks, one piece, tried once
    path = tmp_path / "kink.json"
    save_game(kink_game, path)
    calls = []
    monkeypatch.setattr(
        "mlfg.homotopy.endgame_step",
        lambda game, xi, active: calls.append(xi) or endgame_step(game, xi, active),
    )
    run("solve", "--data", str(path))
    assert len(calls) == 1


def test_solve_missing_data_file():
    assert run("solve", "--data", "does-not-exist.json") == 3


def test_solve_requires_game():
    assert exit_code("solve") == 3


def test_solve_invalid_eps0():
    assert run("solve", "--dataset", "1", "--eps0", "5.0") == 3


@pytest.fixture(scope="module")
def candidate_report(tmp_path_factory, trace1):
    """The dataset-1 equilibrium as a verify report, outside each test's tmp_path."""
    path = tmp_path_factory.mktemp("candidate") / "report.json"
    solution = {"x": trace1.final.x.tolist(), "lambda": trace1.final.lam.tolist()}
    solution["eps_final"] = trace1.final_eps
    path.write_text(json.dumps({"config": {"p": 2}, "solution": solution}))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "3"],
        ["solve", "--p", "0"],
        ["solve", "--seed", "-1"],
        ["solve", "--tol", "inf"],
        # about 1.4e5 levels, over the schedule's cap
        ["solve", "--gamma", "0.9999"],
        ["bench", "--seed", "-1"],
        ["bench", "--eps0", "3"],
        ["bench", "--tol", "0"],
        ["bench", "--tol", "inf"],
        ["bench", "--bench-eps-min", "5"],
        ["bench", "--multistart-eps", "0"],
        # positive, but 2*eps overflows: the smoothing kernel's own check
        ["bench", "--multistart-eps", "1e308"],
        ["bench", "--starts", "0"],
        ["bench", "--starts", "-1", "--repeats", "0"],
        ["bench", "--repeats", "0"],
        ["verify", "--tol", "-1"],
        ["verify", "--tol", "0"],
        ["verify", "--tol", "inf"],
        ["verify", "--tol", "nan"],
        # command-line parse errors, which argparse would exit with 2
        ["solve", "--dataset", "3"],
        ["solve", "--p", "abc"],
        pytest.param([], id="no command"),
    ],
    ids=" ".join,
)
def test_rejected_input_exits_3(tmp_path, capsys, candidate_report, argv):
    game = ["--dataset", "1"] if argv else []
    out = ["--out", str(tmp_path / "bench.csv")] if argv[:1] == ["bench"] else []
    # a valid candidate, so that only the flag under test is out of range
    report = ["--report", str(candidate_report)] if argv[:1] == ["verify"] else []
    try:
        code = run(*argv, *game, *out, *report)
    except SystemExit as exc:
        code = exc.code
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# how the names of ``made`` below are made, in order: a file holding its own
# name, a link to the game file or to a file made before it, or, for any
# other name, a directory
FILES = {"a.json", "c.csv", "d.csv"}
LINKS = {
    "hard.json": (os.link, None),
    "soft.json": (os.symlink, None),
    "b.json": (os.link, "a.json"),
    "c_iters.csv": (os.link, "c.csv"),
    "d_iters.csv": (os.symlink, "d.csv"),
}


@pytest.mark.parametrize(
    "argv, made, flag",
    [
        pytest.param(["solve", "--out", "no-such-dir/r.json"], [], "--out", id="solve --out"),
        pytest.param(["solve", "--log", "no-such-dir/r.csv"], [], "--log", id="solve --log"),
        pytest.param(["bench", "--out", "no-such-dir/b.csv"], [], "--out", id="bench --out"),
        # a table that bench derives from --out and cannot write
        pytest.param(["bench", "--out", "b.csv"], ["b_iters.csv"], "--out", id="bench iters"),
        pytest.param(
            ["bench", "--out", "b.csv"], ["b_multistart.csv"], "--out", id="bench multistart"
        ),
        # the report would overwrite the log
        pytest.param(
            ["solve", "--out", "r.json", "--log", "./r.json"], [], "--log", id="solve --log = --out"
        ),
        # an output would overwrite the game file (a copy of dataset 1)
        pytest.param(
            ["solve", "--data", "g.json", "--out", "g.json"], [], "--out", id="solve --out = game"
        ),
        pytest.param(
            ["solve", "--data", "g.json", "--log", "./g.json"], [], "--log", id="solve --log = game"
        ),
        pytest.param(
            ["bench", "--data", "g.json", "--out", "g.json"], [], "--out", id="bench --out = game"
        ),
        pytest.param(
            ["bench", "--data", "b_iters.csv", "--out", "b.csv"],
            [],
            "--out",
            id="bench iters = game",
        ),
        pytest.param(
            ["bench", "--data", "b_multistart.csv", "--out", "b.csv"],
            [],
            "--out",
            id="bench multistart = game",
        ),
        # an output would overwrite the game file through a link to it, made
        # as LINKS says; a resolved path does not show a hard link
        pytest.param(
            ["solve", "--data", "g.json", "--out", "hard.json"],
            ["hard.json"],
            "--out",
            id="solve --out = hard link of game",
        ),
        pytest.param(
            ["solve", "--data", "g.json", "--log", "soft.json"],
            ["soft.json"],
            "--log",
            id="solve --log = symlink of game",
        ),
        pytest.param(
            ["bench", "--data", "g.json", "--out", "hard.json"],
            ["hard.json"],
            "--out",
            id="bench --out = hard link of game",
        ),
        # one output would overwrite another through a link between them
        pytest.param(
            ["solve", "--out", "a.json", "--log", "b.json"],
            ["a.json", "b.json"],
            "--log",
            id="solve --log = hard link of --out",
        ),
        pytest.param(
            ["bench", "--out", "c.csv"],
            ["c.csv", "c_iters.csv"],
            "--out",
            id="bench iters = hard link of --out",
        ),
        pytest.param(
            ["bench", "--out", "d.csv"],
            ["d.csv", "d_iters.csv"],
            "--out",
            id="bench iters = symlink of --out",
        ),
    ],
)
def test_unwritable_output_exits_3_before_solving(tmp_path, capsys, monkeypatch, argv, made, flag):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the output path")

    for name in ("solve", "homotopy_solve"):
        monkeypatch.setattr(f"mlfg.cli.{name}", no_solve)
    monkeypatch.chdir(tmp_path)
    data = bundled_dataset_path(1).read_bytes()
    game = argv[argv.index("--data") + 1] if "--data" in argv else None
    if game:
        (tmp_path / game).write_bytes(data)
    for name in made:
        if name in FILES:
            (tmp_path / name).write_text(name)
        elif name in LINKS:
            link, target = LINKS[name]
            link(target or game, name)
        else:
            (tmp_path / name).mkdir()
    code = run(*argv, *([] if game else ["--dataset", "1"]))
    assert code == 3
    assert f"error: {flag}" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(made + [game] * bool(game))
    assert not game or (tmp_path / game).read_bytes() == data
    assert all((tmp_path / name).read_text() == name for name in FILES.intersection(made))


def test_report_overwrites_a_longer_file(tmp_path):
    # the six-stage subgradient report, then the shorter Newton report over it
    report, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    flags = ["solve", "--dataset", "1", "--out"]
    assert run(*flags, str(report), "--method", "subgradient", "--eps-min", "0.05") == 0
    longer = report.stat().st_size
    assert run(*flags, str(report)) == 0
    assert run(*flags, str(fresh)) == 0
    text = report.read_text()
    assert report.stat().st_size == len(text.encode()) < longer
    assert text.endswith("}\n")
    assert without_wall_ms(json.loads(text)) == without_wall_ms(json.loads(fresh.read_text()))


def test_report_through_a_symlink_keeps_the_targets_mode(tmp_path):
    # a symlinked --out is written through to its target, whose mode stays
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    target.chmod(0o640)
    link.symlink_to(target)
    assert run("solve", "--dataset", "1", "--out", str(link)) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["certificate"]["certified"] is True
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


@pytest.mark.parametrize("flag", ["--out", "--log"])
def test_output_to_a_device(flag):
    # /dev/null has no length to truncate to
    assert run("solve", "--dataset", "1", flag, os.devnull) == 0


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=" ".join)
def test_help_exits_0(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 0


def test_solve_nonconvergence_exit_code():
    # an impossible merit target stalls the last stage at float resolution
    assert run("solve", "--dataset", "1", "--method", "subgradient", "--tol", "1e-300") == 1


def test_solve_unreachable_tol_ends_at_the_endgame(tmp_path):
    # Newton's stage 0 stops at its own target, 2.56e-4, and the exact
    # endgame after it never reaches the final stage's target
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", "1", "--tol", "1e-300", "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["endgame"] == {"after_stage": 0}
    assert doc["stages"][0]["merit_target"] == 1e-4 * 1.6**2
    assert doc["certificate"]["certified"] is True


def test_solve_subgradient_short_schedule(tmp_path):
    rn = tmp_path / "newton.json"
    rs = tmp_path / "subgrad.json"
    assert run(
        "solve", "--dataset", "1", "--eps-min", "0.1", "--tol", "1e-8", "--out", str(rn)
    ) == 0
    assert run(
        "solve", "--dataset", "1", "--method", "subgradient",
        "--eps-min", "0.1", "--tol", "1e-8", "--out", str(rs),
    ) == 0
    it_n = sum(s["inner_iterations"] for s in json.loads(rn.read_text())["stages"])
    it_s = sum(s["inner_iterations"] for s in json.loads(rs.read_text())["stages"])
    assert it_s > it_n


def test_verify_roundtrip(tmp_path):
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", "1", "--out", str(report)) == 0
    assert run("verify", "--dataset", "1", "--report", str(report)) == 0


def test_verify_x_file(tmp_path):
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", "1", "--out", str(report)) == 0
    x = json.loads(report.read_text())["solution"]["x"]
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps(x))
    assert run("verify", "--dataset", "1", "--x", str(xfile)) == 0


def test_verify_perturbed_candidate(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", "1", "--out", str(report)) == 0
    x = json.loads(report.read_text())["solution"]["x"]
    x[0] += 0.1
    xfile = tmp_path / "x.txt"
    xfile.write_text(" ".join(repr(v) for v in x))
    assert run("verify", "--dataset", "1", "--x", str(xfile)) == 2
    out = capsys.readouterr().out
    assert "leader 1" in out


def test_verify_x_defaults_judge_as_solve_does(tmp_path, capsys, ds1, trace1):
    # the continuation point with x[0] shifted by 10**-5.5 passes the gates
    # of eps = 1e-6 but not those of the schedule's final level 7.63e-7
    x = trace1.final.x.copy()
    x[0] += 10**-5.5
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps(x.tolist()))
    cert = certify(ds1, x, None, HomotopyConfig().final_eps)
    assert certify(ds1, x, None, 1e-6).certified and not cert.certified
    assert run("verify", "--dataset", "1", "--x", str(xfile)) == 2
    assert f"stationarity_x: {cert.s_stat_residuals['stationarity_x']:.6e}" in capsys.readouterr().out


def test_verify_stacked_candidate_with_multipliers(tmp_path):
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", "1", "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps(doc["solution"]["x"] + doc["solution"]["lambda"]))
    assert run("verify", "--dataset", "1", "--x", str(zfile)) == 0


def test_verify_wrong_length_vector(tmp_path):
    xfile = tmp_path / "x.json"
    xfile.write_text("[1.0, 2.0, 3.0]")
    assert run("verify", "--dataset", "1", "--x", str(xfile)) == 3


def test_solve_random_start_seed(tmp_path):
    r = tmp_path / "seeded.json"
    assert run("solve", "--dataset", "1", "--seed", "7", "--out", str(r)) == 0
    doc = json.loads(r.read_text())
    assert doc["config"]["seed"] == 7
    assert doc["certificate"]["certified"] is True


def test_verify_infeasible_polyhedron_exit_code(tmp_path, capsys):
    # x <= -1 and x >= 1 cannot hold together: no candidate is feasible
    game = make_game(
        [np.array([[1.0]])], [np.zeros(1)], [np.array([[1.0, -1.0]])],
        [np.array([1.0, 1.0])], np.array([1.0]), np.array([[1.0]]),
        np.array([[1.0]]), np.array([0.5]),
    )
    path = tmp_path / "infeasible.json"
    save_game(game, path)
    xfile = tmp_path / "x.json"
    xfile.write_text("[0.0]")
    assert run("verify", "--data", str(path), "--x", str(xfile)) == 2
    out = capsys.readouterr().out
    assert "primal_feasibility: 1.000000e+00" in out


def test_verify_x_file_recovers_active_multipliers(tmp_path, active_game):
    # an x-only candidate carries no multipliers; with active leader
    # constraints, lam = 0 would refuse the exact equilibrium
    path, report = tmp_path / "active.json", tmp_path / "report.json"
    save_game(active_game, path)
    assert run("solve", "--data", str(path), "--out", str(report)) == 0
    x = json.loads(report.read_text())["solution"]["x"]
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps(x))
    assert run("verify", "--data", str(path), "--x", str(xfile)) == 0
    x[0] += 0.1
    xfile.write_text(json.dumps(x))
    assert run("verify", "--data", str(path), "--x", str(xfile)) == 2


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("config"), "missing key config.p"),
        (lambda doc: doc.update(config={}), "missing key config.p"),
        (lambda doc: doc.update(config={"p": 3}), "config.p 3 is not an even integer >= 2"),
        (lambda doc: doc.pop("solution"), "missing key solution.x"),
        (lambda doc: doc["solution"].pop("eps_final"), "missing key solution.eps_final"),
    ],
    ids=["no_config", "missing_p", "odd_p", "no_solution", "missing_eps_final"],
)
def test_verify_report_rejects_bad_p(tmp_path, capsys, candidate_report, edit, message):
    # the error names the report file and the dotted key it lacks
    doc = json.loads(candidate_report.read_text())
    edit(doc)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert run("verify", "--dataset", "1", "--report", str(path)) == 3
    captured = capsys.readouterr()
    assert f"error: report {path}: {message}" in captured.err
    assert "nash gap" not in captured.out


@pytest.mark.parametrize(
    "key, value",
    [("x", {"a": 1.0}), ("lambda", {"a": 1.0}), ("x", [[1.0], 2.0]), ("eps_final", [0.1])],
    ids=["object_x", "object_lambda", "ragged_x", "list_eps_final"],
)
def test_verify_report_rejects_non_numeric_field(tmp_path, capsys, candidate_report, key, value):
    # the error names the report file and the dotted key of the bad value
    doc = json.loads(candidate_report.read_text())
    doc["solution"][key] = value
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert run("verify", "--dataset", "1", "--report", str(path)) == 3
    captured = capsys.readouterr()
    assert f"error: report {path}: solution.{key} is not numeric" in captured.err
    assert "nash gap" not in captured.out


@pytest.mark.parametrize(
    "source, text, message",
    [
        ("--x", "5", "not a JSON array or whitespace list of numbers"),
        ("--x", "[[1.0], 2.0, 3.0, 4.0]", "not a JSON array or whitespace list of numbers"),
        ("--x", "1.0 2.0 abc 4.0", "not a JSON array or whitespace list of numbers"),
        ("--report", '{"config": ', "not valid JSON: Expecting value"),
    ],
    ids=["x_scalar", "x_nested", "x_word", "report_malformed"],
)
def test_verify_unreadable_file_named(tmp_path, capsys, source, text, message):
    # the error names the file that could not be read as a candidate
    path = tmp_path / "candidate.json"
    path.write_text(text)
    assert run("verify", "--dataset", "1", source, str(path)) == 3
    captured = capsys.readouterr()
    name = "--x file" if source == "--x" else "report"
    assert f"error: {name} {path}: {message}" in captured.err
    assert "nash gap" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--data"],
        ["verify", "--dataset", "1", "--x"],
        ["verify", "--dataset", "1", "--report"],
    ],
    ids=" ".join,
)
def test_non_utf8_file_named(tmp_path, capsys, argv):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe")
    assert run(*argv, str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_start_with_infinite_merit_exits_1(tmp_path, capsys, command):
    # a valid game whose merit overflows at every start
    doc = json.loads(bundled_dataset_path(1).read_text())
    doc["leaders"][0]["c"] = [1e308, 1e308]
    game = tmp_path / "game.json"
    game.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "bench.csv")] if command == "bench" else []
    assert run(command, "--data", str(game), *out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: merit is not finite at the start") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [game]


@pytest.mark.parametrize(
    "flags", [[], ["--method", "subgradient", "--eps-min", "0.05"]], ids=["newton", "subgradient"]
)
def test_library_certificate_matches_report(tmp_path, ds1, flags):
    # the report's verdict is the library's on the same inputs
    report = tmp_path / "report.json"
    assert run("solve", "--dataset", "1", *flags, "--out", str(report)) == 0
    doc = json.loads(report.read_text())
    sol = doc["solution"]
    x, lam = np.asarray(sol["x"]), np.asarray(sol["lambda"])
    cert = certify(ds1, x, lam, sol["eps_final"], doc["config"]["p"])
    assert cert.to_dict() == doc["certificate"]


def test_verify_requires_candidate():
    assert exit_code("verify", "--dataset", "1") == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--data", "{missing}", "--dataset", "1", "--out", "{out}"],
        ["solve", "--out", "{out}"],
        ["bench", "--data", "{missing}", "--dataset", "1", "--starts", "1", "--out", "{out}"],
        ["bench", "--starts", "1", "--out", "{out}"],
        ["verify", "--data", "{missing}", "--dataset", "1", "--report", "{report}"],
        ["verify", "--report", "{report}"],
        ["verify", "--dataset", "1", "--x", "{x}", "--report", "{report}"],
        ["verify", "--dataset", "1"],
    ],
    ids=" ".join,
)
def test_game_and_candidate_sources_are_exclusive(tmp_path, capsys, argv):
    # exactly one of --data/--dataset, and for verify one of --x/--report;
    # both or neither is an input error, and nothing is written
    report, x = tmp_path / "report.json", tmp_path / "x.json"
    assert run("solve", "--dataset", "1", "--out", str(report)) == 0
    x.write_text(json.dumps(json.loads(report.read_text())["solution"]["x"]))
    capsys.readouterr()
    paths = dict(missing=tmp_path / "missing.json", out=tmp_path / "out.csv", report=report, x=x)
    assert exit_code(*(arg.format(**paths) for arg in argv)) == 3
    err = capsys.readouterr().err
    assert "not allowed with argument" in err or "is required" in err
    assert sorted(tmp_path.iterdir()) == [report, x]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 40])
def test_max_distance_matches_pairwise_reference(k):
    points = np.random.default_rng(k).standard_normal((k, 4)) * [1.0, 1e-3, 1e3, 1.0]
    reference = max(
        (np.linalg.norm(a - b) for a, b in combinations(points, 2)), default=0.0
    )
    assert _max_distance(points) == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_bench_outputs(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(
        "bench", "--dataset", "1", "--out", str(out),
        "--tol", "1e-8", "--bench-eps-min", "0.2", "--starts", "5",
    )
    assert code == 0
    msg = capsys.readouterr().out
    assert "multistart max pairwise distance" in msg

    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_COLUMNS
    methods = {r[0] for r in rows[1:]}
    taylors = {r[1] for r in rows[1:]}
    assert methods == {"newton", "subgradient"}
    assert taylors == {"on", "off"}

    with open(out.with_name("bench_iters.csv")) as fh:
        assert next(csv.reader(fh)) == ITER_LOG_COLUMNS
    with open(out.with_name("bench_multistart.csv")) as fh:
        assert next(csv.reader(fh)) == MULTISTART_COLUMNS


def test_bench_exits_1_when_a_cell_fails(tmp_path, capsys, monkeypatch):
    # one subgradient step per stage cannot converge; every table is still written
    monkeypatch.setattr("mlfg.solvers.SUBGRAD_MAX_ITER", 1)
    out = tmp_path / "bench.csv"
    code = run(
        "bench", "--dataset", "1", "--starts", "1", "--bench-eps-min", "0.4", "--out", str(out)
    )
    assert code == 1
    assert "at least one bench cell failed to converge" in capsys.readouterr().err
    for path in (out, out.with_name("bench_iters.csv"), out.with_name("bench_multistart.csv")):
        with open(path) as fh:
            assert len(list(csv.reader(fh))) > 1


@pytest.mark.parametrize("table", ["iters", "bench", "multistart"])
def test_csv_bytes_match_a_text_mode_writer(tmp_path, ds1, trace1, table):
    # the bytes that csv.writer on a file opened with newline="" writes
    cfg = HomotopyConfig()
    columns, rows = {
        "iters": (ITER_LOG_COLUMNS, list(_iter_log_rows(trace1, cfg))),
        "bench": (BENCH_COLUMNS, _bench_schedule_rows(ds1, [cfg])[0]),
        "multistart": (MULTISTART_COLUMNS, [[0, 1, repr(0.5), "newton", 2, repr(1 / 3)]]),
    }[table]
    written, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
    written.write_text("longer old content " * 1000)
    _write_csv(written, columns, rows)
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    assert written.read_bytes() == reference.read_bytes()


def test_bench_deterministic_per_seed(tmp_path):
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    for out in (out1, out2):
        assert run(
            "bench", "--dataset", "1", "--out", str(out),
            "--tol", "1e-8", "--bench-eps-min", "0.4", "--starts", "3", "--seed", "5",
        ) == 0
    multi1 = out1.with_name("b1_multistart.csv").read_text()
    multi2 = out2.with_name("b2_multistart.csv").read_text()
    assert multi1 == multi2


def test_bench_repeats(tmp_path):
    out = tmp_path / "rep.csv"
    assert run(
        "bench", "--dataset", "1", "--out", str(out),
        "--tol", "1e-8", "--bench-eps-min", "0.4", "--starts", "2", "--repeats", "2",
    ) == 0
    with open(out.with_name("rep_multistart.csv")) as fh:
        repeats = {row["repeat"] for row in csv.DictReader(fh)}
    assert repeats == {"0", "1"}


def test_bench_iter_rows_match_solve_log(tmp_path, ds1):
    out, log = tmp_path / "bench.csv", tmp_path / "solve.csv"
    assert run(
        "bench", "--dataset", "1", "--out", str(out),
        "--tol", "1e-8", "--bench-eps-min", "0.2", "--starts", "1",
    ) == 0
    assert run(
        "solve", "--dataset", "1", "--tol", "1e-8", "--eps-min", "0.2", "--log", str(log)
    ) == 0
    wall = ITER_LOG_COLUMNS.index("wall_ms")

    def rows(path):
        with open(path) as fh:
            return [r[:wall] + r[wall + 1 :] for r in csv.reader(fh)]

    bench = [r for r in rows(out.with_name("bench_iters.csv")) if r[2:4] == ["newton", "on"]]
    solve = rows(log)
    assert solve[0] == [c for c in ITER_LOG_COLUMNS if c != "wall_ms"]
    assert len(solve) > 1
    # solve can end early at the exact endgame; its log holds the stages it
    # ran, the inexact continuation's, and bench's exact stage 0 takes the
    # steps of solve's shorter one first (its predictor, from a later point,
    # differs)
    cfg = HomotopyConfig(tol=1e-8, eps_min=0.2)
    ran = {r[0] for r in solve[1:]}
    stages = [s for s in inexact_stages(ds1, cfg) if str(s.index) in ran]
    expected = [
        [str(v) for v in r[:wall] + r[wall + 1 :]] for r in _iter_log_rows(HomotopyTrace(stages), cfg)
    ]
    assert solve[1:] == expected
    steps = ITER_LOG_COLUMNS.index("predictor_norm")
    first = [r[:steps] for r in solve[1:] if r[0] == "0"]
    assert [r[:steps] for r in bench if r[0] == "0"][: len(first)] == first



@pytest.mark.parametrize("source", ["--report", "--x"], ids=["report", "x"])
@pytest.mark.parametrize(
    "case", ["other_game", "short_lambda", "nan", "zero_eps", "not_object", "null", "x_object"]
)
def test_verify_rejects_bad_candidate(tmp_path, capsys, trace1, source, case):
    # a dataset-1 point against dataset 2, a 3-entry lambda, a NaN entry,
    # a zero smoothing level; files of the wrong JSON type: a list for the
    # report and a number for the vector, null, and an object for x
    x, lam = trace1.final.x.tolist(), trace1.final.lam.tolist()
    args = ["--dataset", "2" if case == "other_game" else "1"]
    eps_final = 0.0 if case == "zero_eps" else 1e-6
    if case == "short_lambda":
        lam = lam[:3]
    if case == "nan":
        x[0] = float("nan")
    if case == "x_object":
        x = {"0": 1.0}
    path = tmp_path / "candidate.json"
    if source == "--report":
        doc = {"config": {"p": 2}, "solution": {"x": x, "lambda": lam, "eps_final": eps_final}}
        doc = {"not_object": [1, 2], "null": None}.get(case, doc)
        path.write_text(json.dumps(doc))
    else:
        vec = x if case == "x_object" else x + lam
        path.write_text(json.dumps({"not_object": 5, "null": None}.get(case, vec)))
        args += ["--eps-final", repr(eps_final)]
    assert run("verify", *args, source, str(path)) == 3
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "nash gap" not in captured.out


def test_bench_starts_draw_from_distinct_streams(ds1, tmp_path, monkeypatch):
    # seeding start (rep, sid) with seed + 1000 rep + sid gave starts (0, 1000)
    # and (1, 0) the same point
    assert not np.array_equal(_initial_point(ds1, 0, 0, 1000), _initial_point(ds1, 0, 1, 0))
    # solve --seed N still draws from default_rng(N)
    z = np.random.default_rng(7).uniform(-1.0, 1.0, ds1.n + ds1.m_bar)
    assert np.array_equal(_initial_point(ds1, 7)[: ds1.n], z[: ds1.n])
    # and bench starts each multistart solve from its (seed, repeat, start) point
    starts = []

    def recording_newton(game, z0, *args, **kwargs):
        starts.append(z0)
        return newton_solve(game, z0, *args, **kwargs)

    monkeypatch.setattr("mlfg.cli.newton_solve", recording_newton)
    assert run(
        "bench", "--dataset", "1", "--out", str(tmp_path / "b.csv"), "--tol", "1e-8",
        "--bench-eps-min", "0.4", "--starts", "2", "--repeats", "2", "--seed", "3",
    ) == 0
    expected = [_initial_point(ds1, 3, rep, sid) for rep in range(2) for sid in range(2)]
    assert len(starts) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(starts, expected))


def test_flag_defaults_are_homotopy_config_defaults():
    parser = build_parser()
    solve = parser.parse_args(["solve", "--dataset", "1"])
    assert _homotopy_config(solve) == HomotopyConfig()
    verify = parser.parse_args(["verify", "--dataset", "1", "--x", "x.txt"])
    assert verify.eps_final == HomotopyConfig().final_eps
    bench = parser.parse_args(["bench", "--dataset", "1"])
    cells = [(c.method, c.taylor) for c in _bench_configs(bench)]
    assert cells == [(m, t) for m in ("newton", "subgradient") for t in (True, False)]
    assert {c.eps_min for c in _bench_configs(bench)} == {0.05}


@pytest.fixture
def fresh_parser():
    """An empty cache for ``main``'s shared parser before and after the test,
    so that the test's first call builds it."""
    mlfg.cli._parser.cache_clear()
    yield
    mlfg.cli._parser.cache_clear()


def without_wall_ms(doc):
    if isinstance(doc, dict):
        return {k: without_wall_ms(v) for k, v in doc.items() if k != "wall_ms"}
    if isinstance(doc, list):
        return [without_wall_ms(v) for v in doc]
    return doc


def test_main_builds_its_parser_once(fresh_parser, monkeypatch, tmp_path):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr("mlfg.cli.build_parser", counted)
    x_file = tmp_path / "x.txt"
    x_file.write_text("0 0 0 0")
    assert run("solve", "--dataset", "1") == 0
    assert run("verify", "--dataset", "1", "--x", str(x_file)) == 2
    assert exit_code("solve", "--dataset", "3") == 3
    assert run("solve", "--dataset", "2") == 0
    assert len(built) == 1


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_seed_does_not_carry_over_to_the_next_call(tmp_path):
    seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
    assert run("solve", "--dataset", "1", "--seed", "3", "--out", str(seeded)) == 0
    assert run("solve", "--dataset", "1", "--out", str(unseeded)) == 0
    assert json.loads(seeded.read_text())["config"]["seed"] == 3
    assert json.loads(unseeded.read_text())["config"]["seed"] is None


@pytest.mark.parametrize(
    "interrupt, code",
    [(["solve", "--dataset", "3"], 3), (["solve", "--help"], 0)],
    ids=["rejected", "help"],
)
def test_call_after_an_exiting_command_line_writes_the_same_report(
    fresh_parser, tmp_path, interrupt, code
):
    first, later = tmp_path / "first.json", tmp_path / "later.json"
    assert run("solve", "--dataset", "2", "--out", str(first)) == 0
    assert exit_code(*interrupt) == code
    assert run("solve", "--dataset", "2", "--out", str(later)) == 0
    docs = [without_wall_ms(json.loads(path.read_text())) for path in (first, later)]
    assert docs[0] == docs[1]
