"""Command-line surface: solve, verify, and benchmark.

Exit codes: 0 success, 1 solver non-convergence, 2 certification failure,
3 input error. Reports are JSON, iteration logs are CSV with a fixed
column schema so downstream plotting can rely on it.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import stat
import sys
from dataclasses import fields
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .homotopy import METHODS, STAGE_TARGET, HomotopyConfig, HomotopyTrace, Solution
from .homotopy import homotopy_solve, solve
from .model import GameSpec, _game_to_dict, _overwrite, bundled_dataset_path, load_game
from .model import vector_norm
from .smoothing import _two_eps, best_response_exact
from .solvers import newton_solve
from .verify import NASH_TOL, certify

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


def _load(args) -> tuple[GameSpec, Path]:
    """The game of exactly one of ``--dataset`` and ``--data``, and its file."""
    path = Path(args.data) if args.dataset is None else bundled_dataset_path(args.dataset)
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


def _check_outputs(game_path: Path, outputs: list[tuple[str, str | None]]) -> None:
    """Reject, before any solve, an output ``(flag, path)`` that cannot be
    written: its directory is missing or read-only, it is a directory or a
    read-only file, or it is the game file or an earlier output, by any path
    or link. A file is known by its device and inode, or by its resolved
    path while it does not exist yet. A None path is skipped."""
    game = os.stat(game_path)
    taken = {(game.st_dev, game.st_ino): f"the game {game_path}"}
    for flag, path in outputs:
        if not path:
            continue
        try:
            st = os.stat(path)
        except OSError:  # no file yet, or a parent that is not a directory
            st, parent = None, Path(path).parent
            if not parent.is_dir():
                raise InputError(f"{flag} {path}: directory {parent} does not exist") from None
        key = (st.st_dev, st.st_ino) if st else Path(path).resolve()
        if key in taken:
            raise InputError(f"{flag} {path}: the same file as {taken[key]}")
        if (st and stat.S_ISDIR(st.st_mode)) or not os.access(path if st else parent, os.W_OK):
            raise InputError(f"{flag} {path}: not a writable file")
        taken[key] = f"{flag} {path}"


def _initial_point(game: GameSpec, seed: int | None, *stream: int) -> np.ndarray | None:
    """A random start ``(x, lambda)``, ``lambda >= 0``, from ``default_rng(seed)``, or
    ``default_rng([seed, *stream])`` for a bench start; None (zeros) without a seed."""
    if seed is None:
        return None
    rng = np.random.default_rng([seed, *stream] if stream else seed)
    z = rng.uniform(-1.0, 1.0, game.n + game.m_bar)
    z[game.n :] = np.maximum(z[game.n :], 0.0)
    return z


def _on_off(flag: bool) -> str:
    return "on" if flag else "off"


def _homotopy_config(args, **overrides) -> HomotopyConfig:
    """A command line's continuation settings: every HomotopyConfig field the
    command has a flag for, then ``overrides``; the config checks them."""
    given = {f.name: getattr(args, f.name) for f in fields(HomotopyConfig) if hasattr(args, f.name)}
    if "taylor" in given:
        given["taylor"] = given["taylor"] == "on"
    return HomotopyConfig(**{**given, **overrides})


def _write_csv(path: Path, columns: list[str], rows) -> None:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([columns, *rows])
    _overwrite(path, text.getvalue().encode())


def _iter_log_rows(trace: HomotopyTrace, cfg: HomotopyConfig):
    """Rows of the iteration log (``ITER_LOG_COLUMNS``), one per inner iterate."""
    for stage in trace.stages:
        res = stage.result
        for k, psi in enumerate(res.merit_history):
            step = 0.0 if k == 0 else res.step_norms[k - 1]
            yield [
                stage.index,
                repr(stage.eps),
                cfg.method,
                _on_off(cfg.taylor),
                k,
                repr(float(psi)),
                repr(float(step)),
                repr(stage.predictor_norm),
                repr(stage.wall_ms),
            ]


def _build_report(
    game: GameSpec, path: Path, cfg: HomotopyConfig, seed: int | None, sol: Solution
) -> dict:
    return {
        "tool": {"name": "mlfg", "version": __version__},
        "game": {"path": str(path), **_fingerprint(game)},
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        | {"taylor": _on_off(cfg.taylor), "seed": seed},
        "stages": [
            {
                "index": s.index,
                "eps": s.eps,
                "merit_target": s.merit_target,
                "inner_iterations": s.result.iterations,
                "merit_final": s.result.merit,
                "warm_start_merit": s.warm_start_merit,
                "predictor_norm": s.predictor_norm,
                "converged": s.result.converged,
                "fallback_steps": s.result.fallback_steps,
                "wall_ms": s.wall_ms,
                "error_to_final": vector_norm(s.result.x - sol.x),
            }
            for s in sol.trace.stages
        ],
        "endgame": None if sol.endgame is None else {"after_stage": sol.endgame},
        "solution": {
            "eps_final": cfg.final_eps,
            "x": sol.x.tolist(),
            "lambda": sol.lam.tolist(),
            "y": best_response_exact(game, sol.x).tolist(),
        },
        "certificate": sol.certificate.to_dict(),
    }


def cmd_solve(args) -> int:
    try:
        game, path = _load(args)
        cfg = _homotopy_config(args)
        _check_seed(args.seed)
        _check_outputs(path, [("--out", args.out), ("--log", args.log)])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    sol = solve(game, _initial_point(game, args.seed), cfg)
    for s in sol.trace.stages:
        print(
            f"stage {s.index:2d}  eps={s.eps:.3e}  iters={s.result.iterations:4d}  "
            f"merit={s.result.merit:.3e}  warm={s.warm_start_merit:.3e}  "
            f"converged={s.result.converged}"
        )
    if args.log:
        _write_csv(Path(args.log), ITER_LOG_COLUMNS, _iter_log_rows(sol.trace, cfg))
    cert = sol.certificate
    if cert is None:
        s, r = sol.trace.stages[-1], sol.trace.final
        print(
            f"solver failed to converge at stage {s.index} (eps={s.eps:.3e}): merit {r.merit:.3e}"
            f" above its target {s.merit_target:.3e} after {r.iterations} iterations,"
            f" {r.fallback_steps} of them gradient fallbacks",
            file=sys.stderr,
        )
        return EXIT_SOLVER

    if sol.endgame is not None:
        print(f"endgame: exact equilibrium after stage {sol.endgame}")
    print(f"nash gaps: [{' '.join(f'{g:.3e}' for g in cert.nash_gaps)}]")
    print(f"max stationarity residual: {max(cert.s_stat_residuals.values()):.3e}")
    print(f"certified: {cert.certified}")
    if args.out:
        report = _build_report(game, path, cfg, args.seed, sol)
        # one line, through the C encoder, which indent would bypass
        _overwrite(args.out, (json.dumps(report) + "\n").encode())
    return EXIT_OK if cert.certified else EXIT_CERT


def _read_vector(path: Path) -> np.ndarray:
    """The numbers of an --x file: a JSON array or a whitespace-separated list."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"--x file {path}: not UTF-8 text: {exc}") from None
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


def cmd_verify(args) -> int:
    try:
        game, _ = _load(args)
        if args.report is not None:
            try:
                doc = json.loads(Path(args.report).read_text())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InputError(f"report {args.report}: not valid JSON: {exc}") from None
            floats = partial(np.asarray, dtype=float)
            x = _report_field(doc, args.report, "solution.x", floats)
            lam = _report_field(doc, args.report, "solution.lambda", floats)
            eps_final = _report_field(doc, args.report, "solution.eps_final", float)
            p = _report_field(doc, args.report, "config.p")
            if not isinstance(p, int) or p < 2 or p % 2:
                raise InputError(f"report {args.report}: config.p {p!r} is not an even integer >= 2")
        else:
            vec = _read_vector(Path(args.x))
            x, lam = vec[: game.n], (vec[game.n :] if vec.shape[0] > game.n else None)
            eps_final, p = args.eps_final, HomotopyConfig.p
        cert = certify(game, x, lam, eps_final, p, nash_tol=args.tol)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    for nu, gap in enumerate(cert.nash_gaps, start=1):
        print(f"leader {nu}: nash gap = {gap:.6e}")
    for name, value in cert.s_stat_residuals.items():
        print(f"{name}: {value:.6e}")
    print(f"certified: {cert.certified}")
    return EXIT_OK if cert.certified else EXIT_CERT


def _bench_configs(args) -> list[HomotopyConfig]:
    """The comparison cells: each inner method with the predictor on and off."""
    return [_homotopy_config(args, method=m, taylor=t) for m in METHODS for t in (True, False)]


def _bench_schedule_rows(game: GameSpec, configs) -> tuple[list[list], list[list], bool]:
    rows: list[list] = []
    iter_rows: list[list] = []
    ok = True
    for cfg in configs:
        trace = homotopy_solve(game, cfg=cfg)
        ok = ok and trace.converged
        iter_rows.extend(_iter_log_rows(trace, cfg))
        for s in trace.stages:
            rows.append(
                [
                    cfg.method,
                    _on_off(cfg.taylor),
                    repr(s.eps),
                    s.result.iterations,
                    repr(s.result.merit),
                    repr(s.wall_ms),
                ]
            )
    return rows, iter_rows, ok


def _max_distance(points: np.ndarray) -> float:
    """Largest distance between two rows of ``points``, 0.0 for fewer than two."""
    dists = (np.linalg.norm(points[i + 1 :] - p, axis=1).max() for i, p in enumerate(points[:-1]))
    return float(max(dists, default=0.0))


def cmd_bench(args) -> int:
    try:
        game, game_path = _load(args)
        configs = _bench_configs(args)
        _check_seed(args.seed)
        try:
            _two_eps(args.multistart_eps, HomotopyConfig.p)  # the kernel's own check
        except ValueError as exc:
            raise InputError(f"--multistart-eps: {exc}") from None
        for flag, value in (("--starts", args.starts), ("--repeats", args.repeats)):
            if value < 1:
                raise InputError(f"{flag} must be at least 1, got {value}")
        # the comparison table, and the iteration and multistart tables beside it
        out = Path(args.out)
        paths = [out] + [out.with_name(f"{out.stem}_{t}.csv") for t in ("iters", "multistart")]
        _check_outputs(game_path, [("--out", str(path)) for path in paths])
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
            z0 = _initial_point(game, args.seed, rep, sid)
            res = newton_solve(game, z0, args.multistart_eps, tol=args.tol)
            ok = ok and res.converged
            finals.append(res.x)
            multistart_rows.extend(
                [rep, sid, repr(args.multistart_eps), "newton", k, repr(float(psi))]
                for k, psi in enumerate(res.merit_history)
            )
    _write_csv(multistart_path, MULTISTART_COLUMNS, multistart_rows)
    print(f"wrote {out}, {iters_path}, {multistart_path}")
    print(f"multistart max pairwise distance: {_max_distance(np.array(finals)):.3e}")
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
    """The command line's one definition, as a new parser on every call."""
    parser = _Parser(
        prog="mlfg",
        description="Equilibrium solver for quadratic multi-leader-follower games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_game_args(p):
        game = p.add_mutually_exclusive_group(required=True)
        game.add_argument("--data", help="path to a game JSON file")
        game.add_argument("--dataset", type=int, choices=(1, 2), help="bundled dataset number")

    def add_schedule_args(p, tol_help):
        p.add_argument("--eps0", type=float, default=HomotopyConfig.eps0)
        p.add_argument("--gamma", type=float, default=HomotopyConfig.gamma)
        p.add_argument("--tol", type=float, default=HomotopyConfig.tol, help=tol_help)

    solve = sub.add_parser("solve", help="run the continuation and certify the result")
    add_game_args(solve)
    solve.add_argument("--method", choices=METHODS, default=HomotopyConfig.method)
    add_schedule_args(
        solve,
        "the final stage's merit target; each earlier stage stops at "
        f"max(tol, {STAGE_TARGET:g} eps^2)",
    )
    solve.add_argument("--eps-min", type=float, default=HomotopyConfig.eps_min)
    solve.add_argument("--taylor", choices=("on", "off"), default=_on_off(HomotopyConfig.taylor))
    solve.add_argument("--p", type=int, default=HomotopyConfig.p, help="even kernel exponent >= 2")
    solve.add_argument("--seed", type=int, default=None, help="randomize the initial point")
    solve.add_argument("--out", help="write the solve report JSON here")
    solve.add_argument("--log", help="write the per-iteration CSV log here")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a candidate strategy")
    add_game_args(verify)
    candidate = verify.add_mutually_exclusive_group(required=True)
    candidate.add_argument("--x", help="file with the candidate (JSON array or whitespace list)")
    candidate.add_argument("--report", help="verify the solution embedded in a solve report")
    verify.add_argument("--tol", type=float, default=NASH_TOL, help="nash gap tolerance")
    verify.add_argument(
        "--eps-final", type=float, default=HomotopyConfig().final_eps,
        help="smoothing level of the certificate's gates (default: solve's final level)",
    )
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="method comparison and multistart tables")
    add_game_args(bench)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--starts", type=int, default=20)
    add_schedule_args(bench, "every stage's merit target")
    bench.add_argument(
        "--bench-eps-min", dest="eps_min", type=float, default=0.05,
        help="smallest scheduled smoothing level in the comparison table",
    )
    bench.add_argument("--multistart-eps", type=float, default=0.5)
    bench.add_argument("--out", default="bench.csv")
    bench.set_defaults(func=cmd_bench)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses for every call in a process, built on
    first use. Reuse is safe: ``parse_args`` makes a new namespace per call,
    every default is immutable, and a rejected command line exits without
    touching the parser."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FloatingPointError as exc:  # a start whose merit is not finite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
