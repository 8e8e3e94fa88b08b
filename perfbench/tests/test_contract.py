"""BENCHMARK.json agrees with what run.py emits, and run.py refuses a bare checkout
or a program that does not solve the bundled games."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import per_layer_schema

ROOT = Path(__file__).resolve().parents[2]


def test_declared_per_layer_metrics_are_the_emitted_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == per_layer_schema()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "games_per_s", "game_ms_p50", "peak_rss_mb"
    }


def bench_copy(tmp_path: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    return tmp_path


def run_bench(checkout: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )


def test_run_fails_without_the_program(tmp_path):
    out = run_bench(bench_copy(tmp_path), "bundled-newton")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("workload", ["bundled-newton", "bundled-subgradient"])
@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_run_fails_when_bundled_games_are_not_solved(tmp_path, workload, code):
    """A stub ``mlfg solve`` that exits with ``code`` and writes no report."""
    checkout = bench_copy(tmp_path)
    pkg = checkout / "src" / "mlfg"
    (pkg / "data").mkdir(parents=True)
    (pkg / "__init__.py").write_text("def load_game(path):\n    return None\n")
    (pkg / "cli.py").write_text(f"def main(argv):\n    return {code}\n")
    for name in ("dataset1", "dataset2"):
        (pkg / "data" / f"{name}.json").write_text("{}")
    out = run_bench(checkout, workload)
    assert out.returncode == 1, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == (0 if code == 0 else result["attempted"])
