"""The mlfg benchmark: end-to-end ``mlfg solve`` throughput, and layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the ``mlfg`` package under
``src/`` of the checkout that holds this file. Every game is solved through
``mlfg.cli.main(["solve", "--data", GAME, "--out", REPORT, ...])`` in a
fresh single-threaded child process (``worker.py``), one game after
another, in whole passes over the workload's games until ``--seconds``
have passed.

Workloads (see ``WORKLOADS``):

* ``bundled-newton``: bundled datasets 1 and 2, ``mlfg solve`` defaults.
* ``bundled-subgradient``: the same games, ``--method subgradient
  --eps-min 0.05``.
* ``generated-newton``: a seeded ladder of generated games (``gen.py``),
  ``mlfg solve`` defaults. Not declared in ``BENCHMARK.json``: most of its
  solves are refused by the certificate, so it is run by hand to show the
  failures and the layer mix of larger games.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over fresh interpreters of import plus loading and validating
every game), ``games_per_s`` (solves returned per second of wall time,
failed ones included), ``game_ms_p50`` and ``peak_rss_mb``. The failure
share is the ``failed`` count over ``attempted``. With ``--trace 1`` the
child alternates untraced and traced passes, and the run reports the
per-layer metrics of ``tracing.py`` over the traced passes, plus the
tracing overhead (median traced over median untraced pass time, minus one).

Every run checks the outputs: each game's exit code must be the same in
every pass; a game that exits 0 must have written a report that says
``certified: true`` with a final ``x`` within tolerance of the reference
equilibrium (pinned in ``data/reference.json`` for the bundled games, the
equilibrium the generator built the game around otherwise). A non-zero
exit is a counted failure; on the bundled games, which the program is
known to solve and certify, it also makes the outputs incorrect. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from gen import write_ladder  # noqa: E402
from tracing import layer_metrics  # noqa: E402

SUBGRADIENT_ARGS = ["--method", "subgradient", "--eps-min", "0.05"]
WORKLOADS = {
    # name: (mlfg solve arguments, games, reference key for bundled games);
    # every bundled game must exit 0, a generated game may fail
    "bundled-newton": ([], "bundled", "newton"),
    "bundled-subgradient": (SUBGRADIENT_ARGS, "bundled", "subgradient"),
    "generated-newton": ([], "generated", None),
}
# fresh interpreters timed for setup_s, after one untimed warm-up that
# leaves the byte-code caches filled as an installed package has them;
# half run before the solving child and half after, so that they sample
# more of the machine's slow speed drifts
SETUP_SAMPLES = 15
# a generated game that exits 0 must end within this distance of the
# equilibrium it was built around. The smoothed equilibrium at the final
# level 7.6e-7 sits about a * (eps / t)**2 / mu from it for a component at
# |t| >= 1e-4 from the kink, up to a few 1e-5, and the Newton stop rule
# (merit <= 1e-10) adds up to about 1e-5; a wrong piece is off by O(1).
GEN_X_TOL = 1e-3
# every child of a run is killed this long after the run started
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def workload_games(workload: str, seed: int, games_dir: Path) -> list[tuple[Path, list, float]]:
    """(game file, reference x, tolerance) for every game of the workload."""
    _, source, ref_key = WORKLOADS[workload]
    if source == "generated":
        return [(path, x_star, GEN_X_TOL) for path, x_star in write_ladder(seed, games_dir)]
    refs = json.loads((HERE / "data" / "reference.json").read_text())
    return [
        (SRC / "mlfg" / "data" / f"{name}.json", refs[name][ref_key]["x"], refs[name][ref_key]["tol"])
        for name in ("dataset1", "dataset2")
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(job: dict, job_path: Path, deadline: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result (None if set-up only).

    The worker is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` value).
    """
    job_path.write_text(json.dumps(job))
    log_path = job_path.with_suffix(".log")
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            stdout=subprocess.PIPE, stderr=log, env=child_env(), text=True,
        )
        watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}: {log_path.read_text().strip()[-2000:]}"
        )
    if job["setup_only"]:
        return setup_s, None
    return setup_s, json.loads(Path(job["result"]).read_text())


def check_outputs(games, result: dict, reports: Path, must_succeed: bool) -> list[str]:
    """Problems with the outputs of one child run; empty when all are correct.

    With ``must_succeed`` every non-zero exit code is a problem too.
    """
    problems = []
    for (path, ref_x, tol), codes in zip(games, result["codes"]):
        name = path.stem
        if len(set(codes)) != 1:
            problems.append(f"{name}: exit codes differ between passes: {sorted(set(codes))}")
        if must_succeed and any(codes):
            problems.append(f"{name}: exit codes {sorted(set(codes))}; this game must exit 0")
        report_path = reports / f"{name}.report.json"
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        if codes[-1] != 0:
            if report is not None and report["certificate"]["certified"]:
                problems.append(f"{name}: exit {codes[-1]} with a certified report")
            continue
        if report is None:
            problems.append(f"{name}: exit 0 without a report")
            continue
        if report["certificate"]["certified"] is not True:
            problems.append(f"{name}: exit 0 with an uncertified report")
        dist = float(np.max(np.abs(np.asarray(report["solution"]["x"]) - np.asarray(ref_x))))
        if not dist <= tol:
            problems.append(f"{name}: final x is {dist:.3e} from the reference (tolerance {tol:.3e})")
    return problems


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or None
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mlfg end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mlfg" / "__init__.py").is_file():
        print(f"error: no mlfg package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        games = workload_games(args.workload, args.seed, run_dir / "games")
        base_job = {
            "games": [str(p) for p, _, _ in games],
            "solve_args": WORKLOADS[args.workload][0],
            "src": str(SRC),
            "reports": str(run_dir / "reports"),
            "spans": str(run_dir / "spans.json"),
            "result": str(run_dir / "result.json"),
            "setup_only": False,
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }

        def child(tag: str, **fields) -> tuple[float, dict | None]:
            return run_child({**base_job, **fields}, run_dir / f"{tag}.job.json", deadline)

        if args.trace == 0:
            child("warmup", setup_only=True)
            half = SETUP_SAMPLES // 2
            setups = [child(f"setup{i}", setup_only=True)[0] for i in range(half)]
            result = child("timed")[1]
            setups += [child(f"setup{i}", setup_only=True)[0] for i in range(half, SETUP_SAMPLES)]
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "games_per_s": metric(len(result["game_s"]) / result["wall_s"], "1/s"),
                "game_ms_p50": metric(statistics.median(result["game_s"]) * 1e3, "ms"),
                "peak_rss_mb": metric(result["maxrss_kb"] / 1024.0, "MB"),
            }
        else:
            result = child("traced")[1]
            walls = {flag: [w for w, t in zip(result["pass_s"], result["traced"]) if t == flag]
                     for flag in (False, True)}
            overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            spans = json.loads(Path(base_job["spans"]).read_text())
            metrics = layer_metrics(spans, len(walls[True]) * len(games), overhead)

        must_succeed = WORKLOADS[args.workload][1] == "bundled"
        problems = check_outputs(games, result, Path(base_job["reports"]), must_succeed)
        raised = sorted(set(result["errors"]))
        attempted = len(result["game_s"])
        failed = sum(code != 0 for codes in result["codes"] for code in codes)
        correct = not problems
        outcomes = {Path(p).stem: sorted(set(c)) for (p, _, _), c in zip(games, result["codes"])}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment()
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(games)} games x {len(result['pass_s'])} passes")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"game_ms_p50 samples: {attempted}")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} attempted)")
    print(f"exit codes per game: {json.dumps(outcomes)}")
    for e in raised:
        print(f"raised (counted as failed): {e}")
    for p in problems:
        print(f"check: {p}")
    print(f"check: {'outputs correct' if correct else 'OUTPUTS INCORRECT'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
