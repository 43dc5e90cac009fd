"""Exception types shared across the package."""


class ClosureKbError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ClosureKbError):
    """Source text violates the MiniModel grammar."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        detail = f"{message} at line {line}, column {column}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class DuplicateDeclaration(ClosureKbError):
    """A declaration name is reused within one model."""

    def __init__(self, name, line=None):
        self.name = name
        self.line = line
        loc = f" at line {line}" if line is not None else ""
        super().__init__(f"duplicate declaration of '{name}'{loc}")


class UnsupportedConstruct(ClosureKbError):
    """An AST form has no rendering in the requested dialect."""


class ConflictingEntity(ClosureKbError):
    """An id already names a different entity; `reason` says how it differs."""

    def __init__(self, name, reason):
        self.name = name
        super().__init__(f"entity '{name}' {reason}")


class DanglingRelation(ClosureKbError):
    """A concept card names a relation target that does not exist."""


class UnknownEntity(ClosureKbError):
    """An entity id was requested that is not in the graph."""


class SchemaViolation(ClosureKbError):
    """A knowledge-unit document does not match the expected schema."""


class FrozenGraphError(ClosureKbError):
    """A write was attempted on a frozen knowledge graph."""


class EmptyQuery(ClosureKbError):
    """The query text was empty."""


class NotClosed(ClosureKbError):
    """A structural entity set is not dependency-closed."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"context set is not dependency-closed: {self.violations}")


class GeneratorUnavailable(ClosureKbError):
    """The external generator endpoint could not be reached."""


class MissingExpression(ClosureKbError):
    """A target entity lacks a stored expression the template generator needs."""

    def __init__(self, entity_id):
        self.entity_id = entity_id
        super().__init__(f"entity '{entity_id}' has no stored expression")


class DimensionMismatch(ClosureKbError):
    """Schedule or event dimensions do not match the case data."""


class MissingBufferSeries(ClosureKbError):
    """A starvation or quantity check needs a buffer series that was not supplied."""


class TooLarge(ClosureKbError):
    """The instance exceeds the brute-force enumeration bound."""


class MalformedInstance(ClosureKbError):
    """A `.fjs` instance file is malformed."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"{message} at line {line}")


class MissingWindows(ClosureKbError):
    """The unavailability variant was requested without window data."""
