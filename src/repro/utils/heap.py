"""The process keeps its heap: fixed glibc malloc thresholds."""

import ctypes

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # <malloc.h>


def keep_heap() -> bool:
    """Serve allocations under 4 MiB from the heap, trimmed only past 32 MiB free: glibc's dynamic
    thresholds return the freed working set to the OS after each physics call, ≈ 1 000 minor faults
    per level-4 ``ConventionalPhysics.compute``.  Whether both were set; no-op without ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, 4 << 20)) and bool(mallopt(M_TRIM_THRESHOLD, 32 << 20))
