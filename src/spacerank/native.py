"""The compiled hierarchical-softmax pass (``_hs_pass.c``), built on first use.

The system ``cc`` builds it once into ``$XDG_CACHE_HOME/spacerank`` (default
``~/.cache/spacerank``), named by the sha256 of the source and the compile
command, written whole with ``os.replace`` and ending in the sha256 of its
own bytes, so a damaged file is rebuilt rather than loaded. If that
directory cannot be written it is built privately for this process. Only
`train_space` calls `hs_pass`: no other command compiles or loads it.
"""

from __future__ import annotations

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
_F32, _I32, _I64, _U8 = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS")
                         for t in (np.float32, np.int32, np.int64, np.uint8))
_INT, _REAL = ctypes.c_int64, ctypes.c_double
_ARGTYPES = [_F32, _F32, _INT, _I64, _INT, _INT, _I64, _I32, _I64, _I32, _U8, _INT, _INT, _REAL, _REAL, _F32]


def flat_paths(tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every token's path as one array: offsets (V + 1), node ids and code bits."""
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in tree.paths])]).astype(np.int64)
    return offsets, np.concatenate(tree.paths).astype(np.int32), np.concatenate(tree.codes)


def _load(target: Path, cc: str, source: bytes, build: bool):
    if build:
        import subprocess  # only a build needs it

        target.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=target.parent) as tmp:  # relative names: same bytes
            Path(tmp, "_hs_pass.c").write_bytes(source)
            subprocess.run([cc, *FLAGS, "-o", "hs_pass.so", "_hs_pass.c", "-lm"],
                           cwd=tmp, check=True, capture_output=True)
            body = Path(tmp, "hs_pass.so").read_bytes()
            Path(tmp, "hs_pass.so").write_bytes(body + hashlib.sha256(body).digest())
            os.replace(Path(tmp, "hs_pass.so"), target)
    data = target.read_bytes()  # dlopen of a truncated library can crash the process
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        raise OSError(f"{target} is damaged")
    kernel = ctypes.CDLL(str(target)).hs_pass
    kernel.argtypes, kernel.restype = _ARGTYPES, None
    return kernel


@functools.cache
def hs_pass():
    """``(kernel, description)`` for the manifest, or ``(None, "numpy")`` with one warning.

    The description names the compiler, the flags and the source digest.
    Without a kernel, training runs `hsoftmax.hs_train_step`, the reference.
    """
    source = resources.files(__package__).joinpath("_hs_pass.c").read_bytes()
    cc, problem = shutil.which("cc"), "no cc on PATH"
    if cc is not None:
        key = hashlib.sha256(b"\0".join([source, cc.encode(), *map(str.encode, FLAGS)])).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "spacerank")
        with tempfile.TemporaryDirectory() as private:  # a loaded library outlives its file
            for directory, build in ((cache, False), (cache, True), (Path(private), True)):
                try:
                    kernel = _load(directory / f"hs_pass-{key[:16]}.so", cc, source, build)
                except Exception as exc:  # a failed attempt falls through to the next
                    problem = f"{type(exc).__name__}: {exc}"
                    continue
                digest = hashlib.sha256(source).hexdigest()
                return kernel, {"compiler": cc, "flags": list(FLAGS), "source_sha256": digest}
    warnings.warn(f"the HS kernel is unavailable ({problem}); training runs the numpy step",
                  RuntimeWarning, stacklevel=2)
    return None, "numpy"
