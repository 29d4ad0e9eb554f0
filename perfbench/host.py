"""Host block recorded with every result: cores, L3, interpreter, numpy, BLAS.

The BLAS build string and thread count are read from numpy's bundled
OpenBLAS through ctypes.  They are only read, never set: the benchmark runs
the program with the BLAS threading it would get on this host.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path
from typing import Dict, Optional

import numpy as np


def _l3_bytes() -> Optional[int]:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() != "3":
                continue
            text = Path(index, "size").read_text().strip().upper()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        return int(text.rstrip("KMG")) * scale
    return None


def _openblas() -> Dict[str, object]:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    candidates = sorted(libs.glob("libscipy_openblas*.so*"))
    if not candidates:
        return {"config": None, "threads": None}
    lib = ctypes.CDLL(str(candidates[0]))
    config = lib.scipy_openblas_get_config64_
    config.argtypes = []
    config.restype = ctypes.c_char_p
    threads = lib.scipy_openblas_get_num_threads64_
    threads.argtypes = []
    threads.restype = ctypes.c_int
    return {"config": config().decode("ascii", "replace"), "threads": int(threads())}


def host_block() -> Dict[str, object]:
    blas = _openblas()
    return {
        "cores": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_config": blas["config"],
        "blas_threads": blas["threads"],
    }
