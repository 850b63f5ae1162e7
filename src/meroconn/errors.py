"""Exceptions shared across modules.

Input errors have one ``ValueError`` subclass per module (CLI exit 2).
``PrecisionError`` says that an angle decision did not resolve at the
maximum interval precision; the CLI reports it as an input error too.
``InternalError`` marks a guarantee of the algorithms themselves that
did not hold, a bug rather than bad input; the CLI reports it as a JSON
error document with exit 1.
"""


class InternalError(RuntimeError):
    pass


class PrecisionError(RuntimeError):
    pass
