"""Exception types of the fuzzonto pipeline, each with its error code and exit status."""


class FuzzontoError(Exception):
    """Base class for all fuzzonto errors; error[parse] and exit 1 by default."""

    code, exit_status = "parse", 1


class MalformedDocument(FuzzontoError):
    """The input document is not well-formed in its declared format."""


class UnsupportedConstruct(FuzzontoError):
    """Strict mode: the document uses a construct outside the recognized subset."""

    code, exit_status = "unsupported-construct", 3


class DuplicateIdentifier(FuzzontoError):
    """The same identifier is declared twice with conflicting kinds."""


class FixpointOverflow(FuzzontoError):
    """Normalization exceeded the configured element bound (pathological input)."""

    code, exit_status = "fixpoint-overflow", 4

    def __init__(self, count, bound):
        super().__init__(f"element count {count} exceeds bound {bound}")
        self.count = count
        self.bound = bound


class NotNormalized(FuzzontoError):
    """An operation requiring a normalized model received a raw one."""

    code = "not-normalized"


class UnwritableName(FuzzontoError):
    """A name holds a character that XML 1.0 cannot carry, even escaped."""

    code = "unwritable-name"


class IOFailure(FuzzontoError):
    """The input cannot be read, or an output cannot be written."""

    code = "io"
