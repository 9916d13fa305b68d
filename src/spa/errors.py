"""Exception types shared across the package.  Each class fixes `code`, the
exit status `spa` ends with when it reports the error."""


class SpaError(Exception):
    """Base class for all errors raised by this package; `role`, when set,
    names the role whose model failed."""

    code: int

    def __init__(self, message, role=None):
        super().__init__(message)
        self.role = role


class ParseError(SpaError):
    """Malformed protocol source."""

    code = 2

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
    """A role sends an atom that it holds nowhere and may not create: a
    participant or user-data atom, or a nonce or key its strand does not
    mark fresh.  The parser refuses the first and marks the second, so
    extraction raises it only for a strand built by hand."""

    code = 2


class UnknownRole(SpaError):
    """A request names a role the protocol does not declare."""

    code = 2


class Unrecoverable(SpaError):
    """A role sends an atom, of any kind, that it holds only inside terms it
    cannot open, or only as the key of ciphers it did not make."""

    code = 3


class ShapeViolation(SpaError, ValueError):
    """An operation strand does not match its classifier's shape."""

    code = 3


class ConfigError(SpaError):
    """Malformed cost-model configuration, or a cost it cannot evaluate."""

    code = 4
