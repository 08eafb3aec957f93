"""The two exceptions the CLI maps to an exit status of their own.

`UsageError` refuses an input the theory does not define (exit 2), and
`IdentityViolation` reports an asserted identity that fails (exit 1).  Any
other exception from a command, a builtin `ValueError` included, is an
internal error (exit 3)."""


class UsageError(ValueError):
    """An input outside the domain of the computation asked for, such as a
    denominator m < 2 or a flag that is not a plain decimal integer."""


class IdentityViolation(RuntimeError):
    """An asserted identity does not hold."""
