"""Command-line surface: solve, verify, and benchmark.

Exit codes: 0 success, 1 solver non-convergence, 2 certification failure,
3 input error. Reports are JSON, iteration logs are CSV with a fixed
column schema so downstream plotting can rely on it.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from functools import partial
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from .homotopy import HomotopyConfig, HomotopyTrace, homotopy_solve
from .model import GameSpec, _game_to_dict, bundled_dataset_path, load_game
from .smoothing import best_response_exact
from .solvers import newton_solve
from .verify import NASH_TOL, Certificate, certify

ITER_LOG_COLUMNS = [
    "stage",
    "eps",
    "method",
    "taylor",
    "inner_iter",
    "merit",
    "step_norm",
    "predictor_norm",
    "wall_ms",
]
BENCH_COLUMNS = ["method", "taylor", "eps", "inner_iters", "final_merit", "wall_ms"]
MULTISTART_COLUMNS = ["repeat", "start_id", "eps", "method", "inner_iter", "merit"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CERT = 2
EXIT_INPUT = 3


class InputError(ValueError):
    pass


def _resolve_game_path(args) -> Path:
    if getattr(args, "dataset", None) is not None:
        return bundled_dataset_path(args.dataset)
    if getattr(args, "data", None):
        return Path(args.data)
    raise InputError("one of --data or --dataset is required")


def _load(args) -> tuple[GameSpec, Path]:
    path = _resolve_game_path(args)
    return load_game(path), path


def _fingerprint(game: GameSpec) -> dict:
    canonical = json.dumps(_game_to_dict(game), sort_keys=True, separators=(",", ":"))
    return {
        "num_leaders": game.num_leaders,
        "n": game.n,
        "m": game.m,
        "m_bar": game.m_bar,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")


def _check_out_path(flag: str, path: str | None, game_path: Path) -> None:
    """Reject an output path that cannot be written, before any solve: its
    directory is missing or read-only, the path is a directory or a
    read-only file, or it is the game file itself."""
    if not path:
        return
    target = Path(path)
    if target.resolve() == game_path.resolve():
        raise InputError(f"{flag} {path}: the same file as the game {game_path}")
    if not target.parent.is_dir():
        raise InputError(f"{flag} {path}: directory {target.parent} does not exist")
    writable = os.access(target if target.exists() else target.parent, os.W_OK)
    if target.is_dir() or not writable:
        raise InputError(f"{flag} {path}: not a writable file")


def _initial_point(game: GameSpec, seed: int | None) -> np.ndarray | None:
    """A seeded random start ``(x, lambda)`` with ``lambda >= 0``; None (zeros)
    without a seed."""
    if seed is None:
        return None
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, game.n + game.m_bar)
    z[game.n :] = np.maximum(z[game.n :], 0.0)
    return z


def _homotopy_config(args) -> HomotopyConfig:
    return HomotopyConfig(
        eps0=args.eps0,
        gamma=args.gamma,
        eps_min=args.eps_min,
        taylor=args.taylor == "on",
        method=args.method,
        tol=args.tol,
        p=args.p,
    )


def _write_csv(path: Path, columns: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _iter_log_rows(trace: HomotopyTrace, method: str, taylor: bool):
    """Rows of the iteration log (``ITER_LOG_COLUMNS``), one per inner iterate."""
    for stage in trace.stages:
        res = stage.result
        for k, psi in enumerate(res.merit_history):
            step = 0.0 if k == 0 else res.step_norms[k - 1]
            yield [
                stage.index,
                repr(stage.eps),
                method,
                "on" if taylor else "off",
                k,
                repr(float(psi)),
                repr(float(step)),
                repr(stage.predictor_norm),
                repr(stage.wall_ms),
            ]


def _build_report(
    game: GameSpec, path: Path, args, trace: HomotopyTrace, cert: Certificate
) -> dict:
    final = trace.final
    return {
        "tool": {"name": "mlfg", "version": __version__},
        "game": {"path": str(path), **_fingerprint(game)},
        "config": {
            "method": args.method,
            "eps0": args.eps0,
            "gamma": args.gamma,
            "eps_min": args.eps_min,
            "tol": args.tol,
            "taylor": args.taylor,
            "p": args.p,
            "seed": args.seed,
        },
        "stages": [
            {
                "index": s.index,
                "eps": s.eps,
                "inner_iterations": s.result.iterations,
                "merit_final": s.result.merit,
                "warm_start_merit": s.warm_start_merit,
                "predictor_norm": s.predictor_norm,
                "converged": s.result.converged,
                "fallback_steps": s.result.fallback_steps,
                "wall_ms": s.wall_ms,
                "error_to_final": float(error),
            }
            for s, error in zip(trace.stages, trace.errors_to_final())
        ],
        "solution": {
            "eps_final": trace.final_eps,
            "x": final.x.tolist(),
            "lambda": final.lam.tolist(),
            "y": best_response_exact(game, final.x).tolist(),
        },
        "certificate": cert.to_dict(),
    }


def cmd_solve(args) -> int:
    try:
        game, path = _load(args)
        cfg = _homotopy_config(args)
        _check_seed(args.seed)
        _check_out_path("--out", args.out, path)
        _check_out_path("--log", args.log, path)
        if args.out and args.log and Path(args.out).resolve() == Path(args.log).resolve():
            raise InputError(f"--log {args.log}: the same file as --out")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    trace = homotopy_solve(game, _initial_point(game, args.seed), cfg)
    for s in trace.stages:
        print(
            f"stage {s.index:2d}  eps={s.eps:.3e}  iters={s.result.iterations:4d}  "
            f"merit={s.result.merit:.3e}  warm={s.warm_start_merit:.3e}  "
            f"converged={s.result.converged}"
        )
    if args.log:
        rows = _iter_log_rows(trace, args.method, cfg.taylor)
        _write_csv(Path(args.log), ITER_LOG_COLUMNS, rows)
    if not trace.converged:
        print("solver failed to converge at some stage", file=sys.stderr)
        return EXIT_SOLVER

    final = trace.final
    cert = certify(game, final.x, final.lam, trace.final_eps, p=args.p)
    print(f"nash gaps: {np.array2string(cert.nash_gaps, precision=3)}")
    print(f"max stationarity residual: {max(cert.s_stat_residuals.values()):.3e}")
    print(f"certified: {cert.certified}")
    if args.out:
        report = _build_report(game, path, args, trace, cert)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return EXIT_OK if cert.certified else EXIT_CERT


def _read_vector(path: Path) -> np.ndarray:
    """The numbers of an --x file: a JSON array or a whitespace-separated list."""
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = text.split()
    if isinstance(data, list):
        try:
            return np.asarray([float(v) for v in data], dtype=float)
        except (TypeError, ValueError):
            pass
    raise InputError(f"--x file {path}: not a JSON array or whitespace list of numbers")


def _report_field(doc, report: str, key: str, convert=None):
    """The value at the dotted ``key`` of a report, passed through ``convert``
    if given; InputError naming both if it is missing or does not convert."""
    for part in key.split("."):
        if not isinstance(doc, dict) or part not in doc:
            raise InputError(f"report {report}: missing key {key}")
        doc = doc[part]
    if convert is None:
        return doc
    try:
        return convert(doc)
    except (TypeError, ValueError):
        raise InputError(f"report {report}: {key} is not numeric") from None


def _check_candidate(game: GameSpec, x, lam, eps_final: float) -> None:
    """Require ``x`` of length n, ``lam`` (if given) of length m_bar, all
    entries finite, and a positive finite smoothing level."""
    for name, v, size in (("x", x, game.n), ("lambda", lam, game.m_bar)):
        if v is None:
            continue
        if v.shape != (size,):
            raise InputError(f"candidate {name} has shape {v.shape}, expected ({size},)")
        if not np.all(np.isfinite(v)):
            raise InputError(f"candidate {name} has non-finite entries")
    if not 0.0 < eps_final < np.inf:
        raise InputError(f"eps_final must be positive and finite, got {eps_final}")


def cmd_verify(args) -> int:
    try:
        if not 0.0 < args.tol < np.inf:
            raise InputError(f"--tol must be positive and finite, got {args.tol}")
        game, _ = _load(args)
        if args.report:
            try:
                doc = json.loads(Path(args.report).read_text())
            except json.JSONDecodeError as exc:
                raise InputError(f"report {args.report}: not valid JSON: {exc}") from None
            floats = partial(np.asarray, dtype=float)
            x = _report_field(doc, args.report, "solution.x", floats)
            lam = _report_field(doc, args.report, "solution.lambda", floats)
            eps_final = _report_field(doc, args.report, "solution.eps_final", float)
            p = _report_field(doc, args.report, "config.p")
            if not isinstance(p, int) or p < 2 or p % 2:
                raise InputError(f"report {args.report}: config.p {p!r} is not an even integer >= 2")
        elif args.x:
            vec = _read_vector(Path(args.x))
            x, lam = vec[: game.n], (vec[game.n :] if vec.shape[0] > game.n else None)
            eps_final, p = args.eps_final, 2
        else:
            raise InputError("one of --x or --report is required")
        _check_candidate(game, x, lam, eps_final)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    cert = certify(game, x, lam, eps_final, p, nash_tol=args.tol)
    for nu, gap in enumerate(cert.nash_gaps, start=1):
        print(f"leader {nu}: nash gap = {gap:.6e}")
    for name, value in cert.s_stat_residuals.items():
        print(f"{name}: {value:.6e}")
    print(f"certified: {cert.certified}")
    return EXIT_OK if cert.certified else EXIT_CERT


def _bench_configs(args) -> list[tuple[str, bool, HomotopyConfig]]:
    """The comparison cells: each inner method with the predictor on and off."""
    return [
        (method, taylor, HomotopyConfig(
            eps0=args.eps0,
            gamma=args.gamma,
            eps_min=args.bench_eps_min,
            taylor=taylor,
            method=method,
            tol=args.tol,
        ))
        for method in ("newton", "subgradient")
        for taylor in (True, False)
    ]


def _bench_schedule_rows(game: GameSpec, configs) -> tuple[list[list], list[list], bool]:
    rows: list[list] = []
    iter_rows: list[list] = []
    ok = True
    for method, taylor, cfg in configs:
        trace = homotopy_solve(game, cfg=cfg)
        ok = ok and trace.converged
        iter_rows.extend(_iter_log_rows(trace, method, taylor))
        for s in trace.stages:
            rows.append(
                [
                    method,
                    "on" if taylor else "off",
                    repr(s.eps),
                    s.result.iterations,
                    repr(s.result.merit),
                    repr(s.wall_ms),
                ]
            )
    return rows, iter_rows, ok


def cmd_bench(args) -> int:
    try:
        game, game_path = _load(args)
        configs = _bench_configs(args)
        _check_seed(args.seed)
        if not 0.0 < args.multistart_eps < np.inf:
            raise InputError(f"--multistart-eps must be positive, got {args.multistart_eps}")
        for flag, value in (("--starts", args.starts), ("--repeats", args.repeats)):
            if value < 1:
                raise InputError(f"{flag} must be at least 1, got {value}")
        # the comparison table, and the iteration and multistart tables beside it
        out = Path(args.out)
        paths = [out] + [out.with_name(f"{out.stem}_{t}.csv") for t in ("iters", "multistart")]
        for path in paths:
            _check_out_path("--out", str(path), game_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    _, iters_path, multistart_path = paths
    rows, iter_rows, ok = _bench_schedule_rows(game, configs)
    _write_csv(out, BENCH_COLUMNS, rows)
    _write_csv(iters_path, ITER_LOG_COLUMNS, iter_rows)

    # multistart cells: random initials at a fixed smoothing level
    multistart_rows, finals = [], []
    for rep in range(args.repeats):
        for sid in range(args.starts):
            z0 = _initial_point(game, args.seed + 1000 * rep + sid)
            res = newton_solve(game, z0, args.multistart_eps, tol=args.tol)
            ok = ok and res.converged
            finals.append(res.x)
            multistart_rows.extend(
                [rep, sid, repr(args.multistart_eps), "newton", k, repr(float(psi))]
                for k, psi in enumerate(res.merit_history)
            )
    _write_csv(multistart_path, MULTISTART_COLUMNS, multistart_rows)
    spread = max(
        (float(np.linalg.norm(a - b)) for a, b in combinations(finals, 2)), default=0.0
    )
    print(f"wrote {out}, {iters_path}, {multistart_path}")
    print(f"multistart max pairwise distance: {spread:.3e}")
    if not ok:
        print("at least one bench cell failed to converge", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with ``EXIT_INPUT`` on a bad command line; argparse's own code,
    2, would read as a certification failure. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlfg",
        description="Equilibrium solver for quadratic multi-leader-follower games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game_args(p):
        p.add_argument("--data", help="path to a game JSON file")
        p.add_argument("--dataset", type=int, choices=(1, 2), help="bundled dataset number")

    solve = sub.add_parser("solve", help="run the continuation and certify the result")
    add_game_args(solve)
    solve.add_argument("--method", choices=("newton", "subgradient"), default="newton")
    solve.add_argument("--eps0", type=float, default=1.6)
    solve.add_argument("--gamma", type=float, default=0.5)
    solve.add_argument("--eps-min", dest="eps_min", type=float, default=1e-6)
    solve.add_argument("--tol", type=float, default=1e-10)
    solve.add_argument("--taylor", choices=("on", "off"), default="on")
    solve.add_argument("--p", type=int, default=2, help="kernel exponent, an even integer >= 2")
    solve.add_argument("--seed", type=int, default=None, help="randomize the initial point")
    solve.add_argument("--out", help="write the solve report JSON here")
    solve.add_argument("--log", help="write the per-iteration CSV log here")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a candidate strategy")
    add_game_args(verify)
    verify.add_argument("--x", help="file with the candidate (JSON array or whitespace list)")
    verify.add_argument("--report", help="verify the solution embedded in a solve report")
    verify.add_argument("--tol", type=float, default=NASH_TOL, help="nash gap tolerance")
    verify.add_argument(
        "--eps-final", dest="eps_final", type=float, default=1e-6,
        help="smoothing level used to read off limit derivative values",
    )
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="method comparison and multistart tables")
    add_game_args(bench)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--starts", type=int, default=20)
    bench.add_argument("--eps0", type=float, default=1.6)
    bench.add_argument("--gamma", type=float, default=0.5)
    bench.add_argument(
        "--bench-eps-min", dest="bench_eps_min", type=float, default=0.05,
        help="smallest scheduled smoothing level in the comparison table",
    )
    bench.add_argument("--multistart-eps", dest="multistart_eps", type=float, default=0.5)
    bench.add_argument("--tol", type=float, default=1e-10)
    bench.add_argument("--out", default="bench.csv")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
