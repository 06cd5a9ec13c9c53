"""The import contract: `import finitegap` loads numpy only, and each route
loads the SciPy submodule it uses at its first call.  Every check runs in a
fresh interpreter, because a module once imported stays in sys.modules."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def benchmark_configs() -> dict:
    """The benchmark's CLI configs, command -> config, at seed 43."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import cli_configs
    return dict(cli_configs(43, tiny=False))


def fresh(code: str) -> tuple[set, str]:
    """Run code in a fresh interpreter with src/ on the path; return the
    SciPy modules it loaded, to the second name (scipy.linalg, ...), and
    its stdout before that."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code += ("\nimport json, sys\nprint(json.dumps(sorted({'.'.join(k.split('.')[:2])"
             " for k in sys.modules if k == 'scipy' or k.startswith('scipy.')})))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *out, loaded = proc.stdout.strip().splitlines()
    return set(json.loads(loaded)), "\n".join(out)


def cli_run(tmp_path, command, config) -> set:
    """The SciPy modules that one fresh `cli.main` of command loads."""
    argv = [command, "--out", str(tmp_path / "out"), "--quiet", "--seed", "43"]
    if config is not None:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    loaded, _ = fresh(f"from finitegap import cli\nassert cli.main({argv!r}) == 0")
    return loaded


def test_import_loads_no_scipy():
    loaded, _ = fresh("import finitegap")
    assert loaded == set()


def test_cli_commands_without_scipy(tmp_path):
    # report aggregates what the three commands before it wrote
    configs = benchmark_configs()
    for command in ("oprl", "perturb", "distance", "report"):
        assert cli_run(tmp_path, command, configs[command]) == set(), command


def test_lt_free_loads_only_linalg(tmp_path):
    config = benchmark_configs()["sumrule"]
    assert config["experiment"] == "lt_free"
    loaded = cli_run(tmp_path, "sumrule", config)
    assert "scipy.linalg" in loaded
    assert not loaded & {"scipy.optimize", "scipy.fft"}, loaded


def test_first_use_from_two_workers_matches_serial():
    # both workers reach scipy.linalg's first import at once
    _, out = fresh("""
import sys
import numpy as np
import finitegap as fg
from finitegap.sumrules import PerturbationSpec, RandomDecay, run_experiments
jobs = {s: (lambda s=s: fg.lt_free_bound(
    PerturbationSpec(RandomDecay(s, 1.2, 1.0), "both"), n_trunc=400)) for s in range(2)}
assert "scipy.linalg" not in sys.modules
sys.setswitchinterval(1e-6)
pooled = run_experiments(jobs, workers=2)
for k, job in jobs.items():
    print(len(pooled[k].eigenvalues),
          np.array(pooled[k].eigenvalues).tobytes() == np.array(job().eigenvalues).tobytes())
""")
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 2 and all(same == "True" for _, same in rows), out
    assert all(int(n) > 0 for n, _ in rows), out
