"""Exception hierarchy shared by the library and the command line front end.

The three concrete classes map onto the CLI exit codes: parse errors exit 2,
validation errors exit 3, precondition errors exit 4.
"""

__all__ = ["SmithfactError", "ParseError", "ValidationError",
           "PreconditionError"]


class SmithfactError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SmithfactError, ValueError):
    """Malformed textual or JSON input."""


class ValidationError(SmithfactError, ValueError):
    """Structurally well-formed data that violates an object invariant."""


class PreconditionError(SmithfactError, ValueError):
    """An operation was called outside its stated domain."""
