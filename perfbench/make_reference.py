"""Record the values the correctness gate compares against.

Run at the commit whose outputs define the benchmark, from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

It runs every pool input of three_condition once, at the full and the tiny
size, and writes perfbench/reference.json with the git sha and source hash it
came from.  Regenerate it only with a change that redefines the benchmark.
"""
from __future__ import annotations

import json
import time
from pathlib import Path

import provenance
from workloads import ThreeCondition


def main():
    ref = {"git_sha": provenance.git_sha(), "src_sha256": provenance.src_sha256()}
    for cls in (ThreeCondition,):
        entries = {}
        for tiny in (False, True):
            wl = cls(0, {}, tiny)
            for unit in wl.pool():
                t0 = time.perf_counter()
                summary = wl.summary(unit.fn())
                key = unit.key + (":tiny" if tiny else "")
                print(f"{cls.name} {key}: {time.perf_counter() - t0:.3f} s",
                      flush=True)
                entries[key] = summary
        ref[cls.name] = entries
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
