"""Smoke runs of the experiment scripts, so a changed library signature
breaks a test rather than only the scripts.  Each script runs twice into
fresh directories, and the two output trees must be byte-identical: the
battery's four-worker pool and the shared coefficient caches must not make
its results depend on timing."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["run_experiments.py", "--quick"],
    ["torus_gallery.py", "--samples", "8", "--n", "60"],
])
def test_script_runs(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    trees = []
    for run in ("first", "second"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:],
             "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert trees[0] and trees[0] == trees[1]
