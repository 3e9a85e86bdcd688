"""Where a result came from: code, library versions, BLAS threads and configs."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git_commit() -> str | None:
    import subprocess
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30, check=False)
    return out.stdout.strip() or None


def _source_digest() -> str:
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((SRC / "subheat").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process (name -> threads)."""
    import ctypes
    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in Path(line.split()[-1]).name}
    except OSError:
        return {}
    threads = {}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in getters:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "configs": {c: workload.config(c, seed) for c in workload.commands},
    }
