"""One OpenBLAS thread in every process that computes.

Every process that runs characterizations — the ``repro serve``
coordinator on the inline and thread executors, and each process shard —
already runs about one of them per core: the thread executor's
explorers share the coordinator, and process shards are one
characterization each.  An OpenBLAS call that wakes helper threads
takes the cores another characterization is running on, so two shards'
thread pools plus the coordinator oversubscribe a small machine.
``repro serve`` therefore pins its own process, and each shard pins
itself when it starts.

``OPENBLAS_NUM_THREADS`` is read only when numpy loads, which
``import repro`` has already done, so OpenBLAS's setter is called
directly.  Builds that do not export it are left alone.
"""

from __future__ import annotations

import ctypes


def pin_blas_to_one_thread() -> None:
    """Hold numpy's OpenBLAS to one thread in this process."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
