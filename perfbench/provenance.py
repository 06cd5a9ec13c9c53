"""Where a result came from: source revision, library versions, threads."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_sha256() -> str:
    """Hash of the package sources, which also identifies a plain checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "finitegap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas_threads(package) -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy or scipy."""
    libdir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_version(package):
    try:
        deps = package.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def collect() -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(), "src_sha256": src_sha256(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_openblas": _blas_version(numpy),
            "scipy_openblas": _blas_version(scipy),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy_blas_threads": _blas_threads(numpy),
            "scipy_blas_threads": _blas_threads(scipy)}
