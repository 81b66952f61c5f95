"""numpy's BLAS: which library it is, and how many threads it runs.

numpy's wheels bundle scipy-openblas; its thread count can be read and set
through ``ctypes`` with no extra dependency.  Importing this module touches
nothing: the library is looked up on the first call.  Every function is a
no-op (``False`` / ``None``) when numpy links another BLAS.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional

import numpy as np


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled scipy-openblas, or ``None`` when numpy links another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            library = ctypes.CDLL(str(path))
            set_threads = library.scipy_openblas_set_num_threads64_
            get_threads = library.scipy_openblas_get_num_threads64_
            get_config = library.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return library
    return None


def set_blas_threads(threads: int) -> bool:
    """Pin numpy's OpenBLAS to ``threads`` threads; ``False`` if it cannot be reached."""
    library = _openblas()
    if library is None:
        return False
    library.scipy_openblas_set_num_threads64_(threads)
    return True


def blas_fingerprint() -> Dict[str, object]:
    """The BLAS library numpy runs on and its current thread count.

    Both are ``None`` when numpy does not bundle scipy-openblas (another
    BLAS, or an older wheel): the run is then not pinned either.
    """
    library = _openblas()
    if library is None:
        return {"blas": None, "blas_threads": None}
    return {"blas": library.scipy_openblas_get_config64_().decode().strip(),
            "blas_threads": int(library.scipy_openblas_get_num_threads64_())}


@contextmanager
def blas_threads(threads: int) -> Iterator[bool]:
    """Hold OpenBLAS at ``threads`` threads inside the block.

    The previous count comes back on exit, also when the block raises.
    Yields whether the count could be set.  The count is process-wide, so
    BLAS calls on other threads run at it too while the block is open.
    """
    library = _openblas()
    if library is None:
        yield False
        return
    previous = library.scipy_openblas_get_num_threads64_()
    library.scipy_openblas_set_num_threads64_(threads)
    try:
        yield True
    finally:
        library.scipy_openblas_set_num_threads64_(previous)
