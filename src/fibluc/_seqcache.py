"""F_n(x, y) and L_n(x, y) under the names ``fib_poly`` and ``luc_poly``.

They are :func:`~fibluc.sequences.fib` and :func:`~fibluc.sequences.luc`
themselves, re-exported for the benchmark's tracer (``bench/tracer.py``),
which counts cache calls and misses by patching these names here and where
they are imported.
"""

from .sequences import fib as fib_poly, luc as luc_poly
