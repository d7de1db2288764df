"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input is well-formed but outside the mathematical domain of the operation.

    The command line maps these to exit code 1; malformed invocations
    (unknown flags, missing arguments) exit with 2 via argparse.
    """


class ParseError(DomainError):
    """A serialized object (complex file, barcode type string) does not parse."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a fault in phfiber, not in its input.

    It is deliberately not a DomainError: the command line reports it as an
    internal error with exit code 3, not as an out-of-domain input with exit
    code 1. The checks raise it explicitly instead of using `assert`, so they
    also run under `python -O`.
    """
