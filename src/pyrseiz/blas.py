"""One BLAS thread for the command line and the cross-validation workers.

A second OpenBLAS thread busy-waits between the small matrix products of a
training step: it doubles the CPU time of a run for no gain in wall time,
and every ``--jobs`` worker would run its own. The traditional family's FC1
product also changes its last bits with the thread count. This module uses
the standard library only, so importing it loads no numpy.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import ctypes

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# OpenBLAS's thread-count setter, as numpy >= 2 wheels, numpy 1.24-1.26
# wheels and a system OpenBLAS export it, in the order they are tried.
OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def find_openblas() -> tuple[ctypes.CDLL, str] | None:
    """The OpenBLAS library this process has loaded, as a ``ctypes.CDLL``,
    and the name of its thread-count setter; None when there is none (numpy
    built on MKL or Accelerate). It looks in numpy's bundled-libs directory
    and in the files the process has mapped; numpy must be loaded."""
    import ctypes

    package = Path(sys.modules["numpy"].__file__).parent
    paths = [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".*libs/*openblas*")]
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        # address, permissions, offset, device, inode, then the file's path
        mapped = (line.split(maxsplit=5) for line in maps if "openblas" in line)
        paths += [fields[5].rstrip("\n") for fields in mapped if len(fields) == 6]
    for path in dict.fromkeys(map(str, paths)):
        try:
            # only a library that is already loaded: a second copy would
            # run its own threads
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in OPENBLAS_SETTERS:
            if hasattr(library, name):
                return library, name
    return None


@functools.cache
def pin_one_thread() -> None:
    """Run numpy's BLAS on one thread, unless the user has set any of
    ``THREAD_VARIABLES``, even to an empty value. Before numpy loads, it
    sets all three to 1; once numpy is loaded, it calls the loaded
    OpenBLAS's setter through ``ctypes``, and with no OpenBLAS found it does
    nothing. It acts once per process (a forked child inherits that), so a
    later call costs nothing."""
    if any(name in os.environ for name in THREAD_VARIABLES):
        return
    if "numpy" not in sys.modules:
        os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))
        return
    found = find_openblas()
    if found is not None:
        import ctypes

        library, name = found
        setter = getattr(library, name)
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        setter(1)
