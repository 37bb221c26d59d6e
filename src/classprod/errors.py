"""Exception types with stable machine-readable codes.

The CLI surfaces every failure as a ``{"error": <code>, "message": ...}``
record on stderr; the ``code`` attribute below is that stable identifier.
An ``OSError`` that reaches the CLI, such as an unwritable ``--out``,
reports ``IO_ERROR``.
"""

IO_ERROR = "io-error"


class ClassprodError(Exception):
    code = "error"


class ForeignElementError(ClassprodError):
    """An encoding is not a valid element of the backend it was given to."""

    code = "foreign-element"


class EnumerationCapError(ClassprodError):
    """A full-enumeration operation was asked to exceed the configured cap."""

    code = "enumeration-too-large"


class NotNormalError(ClassprodError):
    code = "not-normal"


class InvalidParameterError(ClassprodError):
    code = "invalid-parameter"


class InvalidPrimeError(InvalidParameterError):
    code = "invalid-prime"


class EvenPrimeError(InvalidPrimeError):
    """p = 2 where an odd prime is required."""

    code = "even-p"


class NotAPGroupError(InvalidParameterError):
    code = "not-a-p-group"


class UnsupportedRoleError(ClassprodError):
    code = "unsupported-role"


class GroupMismatchError(ClassprodError):
    """Two objects that must share one parent group do not."""

    code = "group-mismatch"


class PreconditionViolatedError(ClassprodError):
    """A stated hypothesis of a criterion does not hold for the inputs."""

    code = "precondition-violated"


class NotCentralError(ClassprodError):
    code = "not-central"


class FormatError(ClassprodError):
    """A group source file is malformed; the message names the defect."""

    code = "bad-file-format"


class WordParseError(ClassprodError):
    code = "parse-error"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownGeneratorError(WordParseError):
    code = "unknown-generator"


class TheoremViolationError(ClassprodError):
    """An exhaustive run contradicted a checked constraint.

    ``records`` carries the report records that document the counterexample.
    """

    code = "theorem-violation"

    def __init__(self, message: str, records: list | None = None):
        super().__init__(message)
        self.records = records if records is not None else []
