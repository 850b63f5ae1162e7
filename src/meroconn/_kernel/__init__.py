"""The exact arithmetic kernel.

The functions live in ``_pykernel`` and are re-exported here; callers
use them through this package (``from . import _kernel as K``), so a
profiler that rebinds the package attributes sees every call from the
rest of the library while calls between kernel functions stay inside
the kernel.
"""

from ._pykernel import (ONE, ZERO, qadd, qconv, qconvat, qconvsum, qdiv, qdot,
                        qinv, qmul, qneg, qnormalize, qsub, qvadd, qvscale)

__all__ = [
    "qnormalize", "qadd", "qsub", "qneg", "qmul", "qinv", "qdiv",
    "qconv", "qconvsum", "qconvat", "qdot", "qvadd", "qvscale", "ZERO", "ONE", "active_backend",
]


def active_backend():
    """The kernel in use; there is one, in pure Python."""
    return "python"
