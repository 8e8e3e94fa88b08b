"""One benchmark child process: load the games, then solve them through the CLI.

Run as ``python3 perfbench/worker.py JOB.json`` with ``mlfg`` importable
(the parent puts the checkout's ``src`` first on PYTHONPATH). The job file
holds::

    games        game JSON paths, solved in this order in every pass
    solve_args   extra ``mlfg solve`` arguments
    reports      directory for the per-game report JSON
    src          directory mlfg must be imported from
    setup_only   stop after loading
    seconds      run whole passes until this much wall time has passed
    trace        alternate untraced and traced passes (at least one each)
    spans        where the tracer writes its spans
    result       where the outcome JSON goes

The worker prints ``ready`` on stdout once ``mlfg`` is imported and every
game is loaded and validated; the parent times set-up up to that line.
Alternating traced with untraced passes in one process lets slow drifts of
the machine cancel out of the tracing overhead.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# process exit code recorded when ``mlfg solve`` raises instead of returning
RAISED = -1


def solve_once(cli, argv: list[str], sink) -> tuple[int, str | None]:
    """Exit code of one ``mlfg solve`` call, and the exception type if it raised."""
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects arguments this way
        return (exc.code if isinstance(exc.code, int) else 3), None
    except Exception as exc:  # a raised solve is a counted failure, not a crash
        return RAISED, type(exc).__name__


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import mlfg
    import mlfg.cli

    if Path(mlfg.__file__).resolve().parent.parent != Path(job["src"]).resolve():
        print(f"mlfg imported from {mlfg.__file__}, not from {job['src']}", file=sys.stderr)
        return 2
    for path in job["games"]:
        mlfg.load_game(path)
    print("ready", flush=True)
    if job["setup_only"]:
        return 0

    reports = Path(job["reports"])
    reports.mkdir(parents=True, exist_ok=True)
    argvs = [
        ["solve", "--data", path, "--out", str(reports / (Path(path).stem + ".report.json"))]
        + job["solve_args"]
        for path in job["games"]
    ]
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).parent))
        from tracing import Tracer

        tracer = Tracer()
    codes: list[list[int]] = [[] for _ in argvs]
    errors: list[str] = []
    game_s: list[float] = []
    pass_s: list[float] = []
    traced: list[bool] = []
    with open(os.devnull, "w") as sink:
        start = time.perf_counter()
        while True:
            trace_pass = tracer is not None and len(pass_s) % 2 == 1
            with tracer if trace_pass else contextlib.nullcontext():
                t_pass = time.perf_counter()
                for g, argv in enumerate(argvs):
                    t0 = time.perf_counter()
                    code, error = solve_once(mlfg.cli, argv, sink)
                    game_s.append(time.perf_counter() - t0)
                    codes[g].append(code)
                    if error:
                        errors.append(f"{Path(argv[2]).name}: {error}")
                pass_s.append(time.perf_counter() - t_pass)
            traced.append(trace_pass)
            elapsed = time.perf_counter() - start
            if elapsed >= job["seconds"] and (tracer is None or len(pass_s) >= 2):
                break
    if tracer is not None:
        tracer.dump(Path(job["spans"]))
    result = {
        "wall_s": elapsed,
        "game_s": game_s,
        "pass_s": pass_s,
        "traced": traced,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
