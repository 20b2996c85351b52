"""What a result was measured on, and the store of counts that must repeat."""

import ctypes
import glob
import hashlib
import json
import os
import platform

import numpy as np

# Symbol prefixes of the OpenBLAS builds numpy ships or links against.
_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "_64_", "")


def _openblas():
    """(version string, thread count) of the OpenBLAS loaded by numpy, or Nones."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()
                     and line.split()[-1].startswith("/")}
    except OSError:
        return None, None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return config().decode("ascii", "replace").strip(), threads()
    return None, None


def _git_sha(root):
    """HEAD of a git checkout at `root`, read from .git; None elsewhere."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def code_sha256(root):
    """Digest of the package and benchmark sources: identifies "the same code"."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)
                   + glob.glob(os.path.join(root, "bench", "*.py")))
    for path in files:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def record(root):
    blas_config, blas_threads = _openblas()
    return {
        "git_sha": _git_sha(root),
        "code_sha256": code_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def compare_exact(path, key, values):
    """Names in `values` that differ from an earlier run stored under `key`.

    New names are added to the store, so the first run of some code sets the
    values every later run of that code must repeat.
    """
    store = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    seen = store.setdefault(key, {})
    mismatched = [f"{name}: {seen[name]} then {value}" for name, value in values.items()
                  if name in seen and seen[name] != value]
    for name, value in values.items():
        seen.setdefault(name, value)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return mismatched
