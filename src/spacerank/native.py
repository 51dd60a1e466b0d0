"""The compiled SGD passes and ranker scores (``_kernels.c``), built on first use.

The system ``cc`` builds them once into ``$XDG_CACHE_HOME/spacerank`` (default
``~/.cache/spacerank``), named by the sha256 of the source and the compile
command, written whole and ending in the sha256 of its own bytes: a damaged file
is rebuilt. A cache that cannot be resolved or written, or a checksummed file
there that will not load (left as it is), means a private build in a temporary
directory made only then: a warm cache makes none, and a missing temporary
directory fails only that attempt. A missing ``_kernels.c`` falls back like a
missing ``cc``. Only `train_space` and `ranker` call the library; ctypes
releases the GIL for each call, so they run on threads in parallel.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_F32, _F64, _I8, _I32, _I64, _U8 = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                                    for t in (np.float32, np.float64, np.int8, np.int32, np.int64, np.uint8))
_INT, _REAL = ctypes.c_int64, ctypes.c_double
_ARGTYPES = {
    "hs_pass": [_F32, _F32, _INT, _I64, _INT, _INT, _I64, _I32, _I64, _I32, _U8, _INT, _INT, _REAL, _REAL, _F32],
    "hyperplane_pass_float32": [_F64, _INT, _F32, _I32, _INT, _REAL],
    "hyperplane_pass_int8": [_F64, _INT, _I8, _F64, _I32, _INT, _REAL, _F64],
    "scores_float32": [_F64, _F64, _INT, _F32, _INT],
    "scores_int8": [_F64, _F64, _INT, _I8, _F64, _INT],
}


def flat_paths(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every token's path as one array: offsets (V + 1), node ids and code bits."""
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in tree.paths])]).astype(np.int64)
    return offsets, np.concatenate(tree.paths).astype(np.int32), np.concatenate(tree.codes)


def _load(target: Path, cc: str, source: bytes):
    data = target.read_bytes() if target.is_file() else b""  # dlopen of a truncated library can crash the process
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        import subprocess  # only a build needs it

        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target.parent) as tmp:  # relative names: same bytes
            Path(tmp, "_kernels.c").write_bytes(source)
            subprocess.run([cc, *FLAGS, "-o", "kernels.so", "_kernels.c", "-lm"],
                           cwd=tmp, check=True, capture_output=True)
            body = Path(tmp, "kernels.so").read_bytes()
            Path(tmp, "kernels.so").write_bytes(body + hashlib.sha256(body).digest())
            os.replace(Path(tmp, "kernels.so"), target)
    library = ctypes.CDLL(str(target))
    for name, argtypes in _ARGTYPES.items():
        function = getattr(library, name)
        function.argtypes, function.restype = argtypes, None
    return library


@functools.cache
def kernels():
    """``(library, description)`` for the manifest, or ``(None, "numpy")`` with one warning.

    The library holds ``hs_pass`` and, for a space's float32 rows or int8 levels,
    ``hyperplane_pass_<dtype>`` and ``scores_<dtype>``; the description names the
    compiler, the flags and the source digest. Without a library the numpy references
    run: `hsoftmax.hs_train_step`, and `ranker`'s per-pair loop and ``np.einsum``
    scores. Call it once before starting threads: the cache is not a lock.
    """
    cc, problem = shutil.which("cc"), "no cc on PATH"
    for private in (False, True) if cc is not None else ():  # the shared cache, then this process's own
        try:
            source = resources.files(__package__).joinpath("_kernels.c").read_bytes()
            key = hashlib.sha256(b"\0".join([source, cc.encode(), *map(str.encode, FLAGS)])).hexdigest()
            with (tempfile.TemporaryDirectory() if private  # a loaded library outlives its file
                  else contextlib.nullcontext(Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache",
                                                   "spacerank"))) as directory:
                library = _load(Path(directory, f"kernels-{key[:16]}.so"), cc, source)
        except Exception as exc:  # a failed attempt falls through to the next
            problem = f"{type(exc).__name__}: {exc}"
            continue
        return library, {"compiler": cc, "flags": list(FLAGS), "source_sha256": hashlib.sha256(source).hexdigest()}
    warnings.warn(f"the compiled kernels are unavailable ({problem}); the numpy passes run",
                  RuntimeWarning, stacklevel=2)
    return None, "numpy"
