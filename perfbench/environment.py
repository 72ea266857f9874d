"""The machine and library versions a benchmark result was measured with."""

import os
import platform
from pathlib import Path

import numpy as np
import scipy

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _cache_sizes():
    """Unified cache sizes by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"l{level}_cache"] = size
    return sizes


def _blas_version(config):
    try:
        return config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def describe(blas_threads):
    """Environment record stored with every result."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np.show_config),
        "scipy_openblas": _blas_version(scipy.show_config),
        "blas_threads": blas_threads,
    }
