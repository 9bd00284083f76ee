"""Every demo the README lists runs to completion and leaves no files behind."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = re.findall(r"^python (demos/\S+\.py)$",
                   (ROOT / "README.md").read_text(), flags=re.MULTILINE)
SLOW = {"demos/04_train_and_propose.py"}    # trains for 40 epochs, ~20 s


def repo_files() -> set[Path]:
    """Files under the repository, less caches and top-level dot folders."""
    found = set()
    for folder, dirs, files in os.walk(ROOT):
        here = Path(folder)
        dirs[:] = [d for d in dirs if d != "__pycache__"
                   and not (here == ROOT and d.startswith("."))]
        found.update(here / f for f in files)
    return found


def test_readme_lists_every_demo():
    assert sorted(DEMOS) == sorted(
        f"demos/{p.name}" for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", [
    pytest.param(d, marks=pytest.mark.slow) if d in SLOW else d for d in DEMOS])
def test_demo_runs_clean(demo):
    before = repo_files()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, demo], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert repo_files() - before == set()
