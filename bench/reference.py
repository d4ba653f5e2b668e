"""The reference kernel that times are scaled by (see ``run.py``).

``reference()`` is one product of two 25-term polynomials held as exponent
-> Fraction dicts, the kind of work the library does, written here so that
no change to the library changes it.  Its CPU time tracks how fast the host
runs the calling process at the moment.
"""

import gc
from fractions import Fraction
from time import process_time

_REF_POLY = {(i, j): Fraction(i + 2 * j + 1, 3 + i) for i in range(5) for j in range(5)}


def reference():
    out = {}
    for (i, j), a in _REF_POLY.items():
        for (k, m), b in _REF_POLY.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + a * b
    return out


def reference_times(n):
    """CPU seconds of n reference runs, with the garbage collector off so
    that a collection of the library's objects does not land in them."""
    times = []
    gc.disable()
    for _ in range(n):
        t0 = process_time()
        reference()
        times.append(process_time() - t0)
    gc.enable()
    return times
