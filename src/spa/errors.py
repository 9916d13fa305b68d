"""Exception types shared across the package."""


class SpaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SpaError):
    """Malformed protocol source."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UndeclaredIdentifier(ParseError):
    """An identifier is used without being declared."""


class DuplicateDeclaration(ParseError):
    """The same identifier is declared twice."""


class SelfMessage(ParseError):
    """A message whose sender and recipient are the same role."""


class KindMismatch(ParseError):
    """An atom is used in a position its kind does not allow."""


class Ungeneratable(SpaError):
    """A participant or user-data atom must be produced but cannot be
    generated or recovered."""


class Unrecoverable(SpaError):
    """A needed subterm is locked inside a term that cannot be opened."""


class ShapeViolation(SpaError, ValueError):
    """An operation strand does not match its classifier's shape."""


class ConfigError(SpaError):
    """Malformed cost-model configuration."""
