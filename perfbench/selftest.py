"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks, for every workload: the launcher prints every end-to-end and
per-layer metric of BENCHMARK.json with its unit; a corrupted result counts
toward failed_frac; traced child spans lie inside their parents; layers the
workload does not use read 0 calls where the benchmark says they must.  Also
checks that the launcher fails without the package sources.  Exits non-zero
on the first failed check.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


class SelfTestError(Exception):
    pass


def require(cond, what):
    if not cond:
        raise SelfTestError(what)


def launch(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_printed_metrics(spec: dict, workload: str):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = launch(ROOT, "--workload", workload, "--seed", "3",
                      "--seconds", "1", "--trace", str(trace), "--tiny")
        require(proc.returncode == 0, f"{workload} trace {trace} exited "
                f"{proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"},
                f"result keys {sorted(result)}")
        require(result["correct"] and result["failed"] == 0,
                f"{workload} trace {trace} failed units: {proc.stdout[-2000:]}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        require(got == want, f"{workload} {key} metrics differ: {got} vs {want}")
        printed = {line.split()[0]: line.split()[2]
                   for line in proc.stdout.splitlines()[:-1]
                   if len(line.split()) >= 3 and line.startswith("  ")}
        for name, unit in want.items():
            require(printed.get(name) == unit, f"{name} not printed with {unit}")


def corrupt_one(workload):
    """A hook that damages one result per round in a way its gate must catch."""
    target = {"lt_family": "anchor", "three_condition": "arcsine_atom",
              "cli_artifacts": "report"}[workload]

    def hook(units, outcomes):
        kinds = [u.kind for u in units]
        if target not in kinds:
            return
        i = kinds.index(target)
        o = outcomes[i]
        if workload == "lt_family":
            o.result = dataclasses.replace(o.result, lhs=o.result.lhs + 1e-3)
        elif workload == "three_condition":
            q = o.result[0].quantities["szego_integral"]
            q["value"] += 1e-6 * abs(q["value"])
        else:
            victim = units[i].data["out"] / "summary.csv"
            victim.write_bytes(victim.read_bytes() + b"#")
    return hook


def check_gates(workload):
    import bench
    rec = bench.measure(workload, 3, 0.5, False, tiny=True, scratch=OUT,
                        corrupt=corrupt_one(workload))
    require(rec["failed"] > 0 and rec["failed"] / rec["attempted"] > 0,
            f"{workload}: corrupted results were not counted as failures")


def check_spans(workload):
    import bench
    rec = bench.measure(workload, 3, 0.5, True, tiny=True, scratch=OUT)
    require(rec["failed"] == 0, f"{workload} traced run failed: {rec['errors']}")
    spans = {s[0]: s for s in rec["spans"].spans}
    require(spans, f"{workload}: no spans recorded")
    for sid, name, t0, t1, parent, _unit, _info in spans.values():
        if parent is None:
            continue
        require(parent in spans, f"{name}: parent span {parent} never closed")
        p = spans[parent]
        require(p[2] <= t0 <= t1 <= p[3],
                f"{name} [{t0}, {t1}] outside parent {p[1]} [{p[2]}, {p[3]}]")
    m = {k: v["value"] for k, v in rec["metrics"].items()}
    if workload == "lt_family":
        for name in ("jacobi.strip_coefficients.calls", "jacobi.discretize.calls",
                     "isotorus.torus_jacobi.calls", "isotorus.dist_to_torus.calls"):
            require(m[name] == 0, f"lt_family: {name} = {m[name]}")
        require(m["sumrules.run_experiments.busy_s"] > 0, "lt_family: no pool jobs")
    if workload == "three_condition":
        require(m["quadrature.de_quad.evals"] > 0
                and m["jacobi.truncation_eigenvalues_outside.calls"] > 0,
                "three_condition: no Szego quadrature or truncation eigenvalues")
    if workload == "cli_artifacts":
        require(m["cli.bytes_written"] > 0 and m["bandset.eval.calls"] > 0,
                "cli_artifacts: no bytes written or no bandset evaluations")
        require(m["isotorus.dist_to_torus.evals_per_call"] > 0,
                "cli_artifacts: no objective evaluations under dist_to_torus")


def check_fails_without_sources():
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = launch(bare, "--workload", "lt_family", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
        require(proc.returncode != 0, "launcher succeeded without src/")
        require(not proc.stdout.strip(), "launcher printed a result without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_fails_without_sources()
        for w in spec["workloads"]:
            name = w["name"]
            check_printed_metrics(spec, name)
            check_gates(name)
            check_spans(name)
            print(f"selftest {name}: ok", flush=True)
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}")
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
