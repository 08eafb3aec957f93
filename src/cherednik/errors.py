"""The exception the library raises when an identity it asserts fails."""


class IdentityViolation(RuntimeError):
    """An asserted identity does not hold.  The CLI reports it with exit
    status 1; every other exception from a command is an internal error."""
