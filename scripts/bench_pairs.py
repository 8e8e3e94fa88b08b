"""Paired benchmark runs of a base commit against the working tree.

    python3 scripts/bench_pairs.py --base REV --pairs N --out BENCH_<n>.json [--seconds S]

Unpacks ``REV`` with ``git archive`` into a temporary directory, then runs
``perfbench/run.py --trace 0`` on each workload that ``BENCHMARK.json``
declares, ``N`` times per side: each side with its own checkout's
benchmark, the base first in even pairs and the working tree first in odd
ones, so that slow drifts of the machine fall on both sides. ``--seconds``
defaults to the declared ``run_seconds``.

The output holds the machine, the Python and numpy versions, both commits,
every pair's end-to-end metrics, and per workload and metric each side's
median with its quartiles, the change's wins (pairs in which it reads
strictly better) and the ratio of the medians, change over base.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def unpack(rev: str, dest: Path) -> None:
    """The files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_once(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """The environment line and the result object of one benchmark run."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload}: exit {out.returncode}\n{out.stderr[-2000:]}")
    env = next(json.loads(line[len("env: "):]) for line in lines if line.startswith("env: "))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return env, {**values, "correct": result["correct"], "failed": result["failed"],
                 "attempted": result["attempted"]}


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        base = [r["base"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        out[name] = {
            "better": m["better"],
            "base": spread(base),
            "change": spread(change),
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "ratio": float(np.median(change) / np.median(base)),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    doc = {
        "base": {"commit": git("rev-parse", args.base).strip()},
        "change": {"commit": git("rev-parse", "HEAD").strip(),
                   "uncommitted_changes": bool(git("status", "--porcelain").strip())},
        "seconds": seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "change": ROOT}
        unpack(args.base, sides["base"])
        for w in bench["workloads"]:
            runs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"pair": i, "first": order[0]}
                for side in order:
                    env, pair[side] = run_once(sides[side], w["name"], seconds)
                    print(f"{w['name']} pair {i} {side}: {pair[side]}", flush=True)
                runs.append(pair)
            doc["workloads"][w["name"]] = {"runs": runs, "summary": summary(runs, bench["end_to_end"])}
    doc["machine"] = {k: env[k] for k in ("cpu", "nproc", "threads")}
    doc["python"], doc["numpy"] = env["python"], env["numpy"]
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
