"""The exception for a broken internal invariant.

Input errors have one ``ValueError`` subclass per module (CLI exit 2).
``InternalError`` marks a guarantee of the algorithms themselves that
did not hold, a bug rather than bad input; the CLI reports it as a JSON
error document with exit 1.
"""


class InternalError(RuntimeError):
    pass
