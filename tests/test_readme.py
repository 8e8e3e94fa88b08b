"""The README's Quick start example runs against the current public API, and
the module constants it names exist."""
import os
import re
import subprocess
import sys
from pathlib import Path

import mlfg.homotopy
import mlfg.solvers
import mlfg.verify

ROOT = Path(__file__).resolve().parents[1]


def quick_start_code() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block in the README's Quick start section"
    return match.group(1)


def test_quick_start_runs(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", quick_start_code()],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("True")


def test_named_constants_exist():
    # a backticked ALL_CAPS name in the README is a constant of mlfg.solvers,
    # mlfg.verify or mlfg.homotopy; a rename must not leave the old name in
    # the docs
    names = set(re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`", (ROOT / "README.md").read_text()))
    assert names, "no backticked constant names in the README"
    modules = (mlfg.solvers, mlfg.verify, mlfg.homotopy)
    missing = {n for n in names if not any(hasattr(m, n) for m in modules)}
    assert missing == set()
