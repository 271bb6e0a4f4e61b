"""Machine and environment facts recorded with every benchmark result.

The BLAS thread count is read from the loaded OpenBLAS libraries through
ctypes, so it is the count the process actually got, whatever the
environment asked for.  Nothing here changes the BLAS settings.
"""

import ctypes
import os
import platform
import subprocess

THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)
CONFIG_SYMBOLS = (
    "openblas_get_config",
    "openblas_get_config64_",
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def openblas_libraries():
    """One entry per OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted(
                {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
            )
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = _symbol(lib, THREAD_SYMBOLS, ctypes.c_int)
        config = _symbol(lib, CONFIG_SYMBOLS, ctypes.c_char_p)
        found.append({
            "library": os.path.basename(path),
            "bundled_with": os.path.basename(os.path.dirname(path)),
            "threads": threads() if threads else None,
            "config": config().decode("ascii", "replace") if config else None,
        })
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """HEAD of `root` when it is itself the top of a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def machine_info(root):
    import numpy
    import scipy

    libs = openblas_libraries()
    numpy_blas = [lib for lib in libs if lib["bundled_with"] == "numpy.libs"] or libs
    config = numpy_blas[0]["config"] if numpy_blas else None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config.split()[1] if config and config.startswith("OpenBLAS") else config,
        "blas_threads": numpy_blas[0]["threads"] if numpy_blas else None,
        "blas_libraries": libs,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": git_commit(root),
    }
