"""Repeat the benchmark over seeds and summarise it, as a baseline or a check.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload of ``BENCHMARK.json`` it runs ``run.py --trace 0`` once
per seed, then ``run.py --trace 1`` once with the first seed, one run after
another. Each end-to-end metric gets its median, its quartiles
(``statistics.quantiles(values, n=4)``) and its spread, the quartile
distance over the median, printed next to the metric's bound. The summary,
with the environment of the runs, is written to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the environment line of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}:\n{out.stdout}\n{out.stderr}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = bench(workload, seed, args.seconds, 0)
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        traced, env = bench(workload, args.seeds[0], args.seconds, 1)
        doc["env"] = env
        end_to_end = {}
        for name in bounds:
            end_to_end[name] = summary([r["metrics"][name]["value"] for r in runs])
            end_to_end[name]["bound"] = bounds[name]
            end_to_end[name]["unit"] = runs[0]["metrics"][name]["unit"]
            s = end_to_end[name]
            flag = "" if s["spread"] < bounds[name] / 3 else "  (spread above a third of the bound)"
            print(f"  {name}: median {s['median']:.5g} {s['unit']} spread {s['spread']:.4f} "
                  f"bound {bounds[name]}{flag}", flush=True)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
