"""Straight-line functions compiled from generated source.

The flows' fields on arrays (``graphs._array_field``) and on a small graph's floats
(``graphs._float_kernel``) and the float RK4 and Euler steps (``integrate._float_stepper``)
are written out as Python source, one line per template line, edge, vertex or entry, and
``compiled`` turns that source into a function.  Only indices, slice bounds, the ``literal``
of a finite float, which round-trips, and the library's own templates enter such source; the
flows' ``graphs._FieldTemplate`` is private, so no caller's string does.  The function runs
in a namespace of the names it is given, with no builtins.
"""
import math

from .errors import DomainError


def literal(value) -> str:
    """The source of ``value`` as a finite float, which evaluates to it bit for bit."""
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"generated source takes finite floats only, got {value!r}")
    return repr(value)


def compiled(name: str, lines, filename: str, **names):
    """The function ``name`` that ``lines`` define: its ``def`` line, then its body."""
    source = "\n    ".join(lines) + "\n"
    namespace = {"__builtins__": {}, **names}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]
