import csv
import json

import numpy as np
import pytest

from mlfg import certify, save_game
from mlfg.cli import BENCH_COLUMNS, ITER_LOG_COLUMNS, MULTISTART_COLUMNS, main
from mlfg.model import bundled_dataset_path

from conftest import make_game


def run(*argv):
    return main(list(argv))


def test_solve_dataset1(tmp_path, capsys):
    report = tmp_path / "report.json"
    log = tmp_path / "iters.csv"
    code = run("solve", "--dataset", "1", "--out", str(report), "--log", str(log))
    assert code == 0
    out = capsys.readouterr().out
    assert "certified: True" in out

    doc = json.loads(report.read_text())
    errors = [s["error_to_final"] for s in doc["stages"]]
    assert all(a > b for a, b in zip(errors[:-1], errors[1:]))
    assert doc["stages"][-1]["eps"] <= 1e-6
    assert all(s["converged"] for s in doc["stages"])
    assert doc["certificate"]["certified"] is True
    assert len(doc["solution"]["x"]) == 4
    assert len(doc["solution"]["y"]) == 3

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
        s.result.fallback_steps for s in trace1.stages
    ]
    assert doc["certificate"]["nash_method"] == "weak_duality"


def test_solve_missing_data_file():
    assert run("solve", "--data", "does-not-exist.json") == 3


def test_solve_requires_game():
    assert run("solve") == 3


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
        ["bench", "--seed", "-1"],
        ["bench", "--eps0", "3"],
        ["bench", "--tol", "0"],
        ["bench", "--tol", "inf"],
        ["bench", "--bench-eps-min", "5"],
        ["bench", "--multistart-eps", "0"],
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
    ],
)
def test_unwritable_output_exits_3_before_solving(tmp_path, capsys, monkeypatch, argv, made, flag):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr("mlfg.cli.homotopy_solve", no_solve)
    monkeypatch.chdir(tmp_path)
    for name in made:
        (tmp_path / name).mkdir()
    data = bundled_dataset_path(1).read_bytes()
    game = argv[argv.index("--data") + 1] if "--data" in argv else None
    if game:
        (tmp_path / game).write_bytes(data)
    code = run(*argv, *([] if game else ["--dataset", "1"]))
    assert code == 3
    assert f"error: {flag}" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(made + [game] * bool(game))
    assert not game or (tmp_path / game).read_bytes() == data


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=" ".join)
def test_help_exits_0(argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 0


def test_solve_nonconvergence_exit_code():
    # an impossible merit target stalls at float resolution
    assert run("solve", "--dataset", "1", "--tol", "1e-300") == 1


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
    assert run("verify", "--dataset", "1") == 3


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


def test_bench_iter_rows_match_solve_log(tmp_path):
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
    assert bench == solve[1:]



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
