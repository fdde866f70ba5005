"""Exception types raised by the fuzzonto pipeline."""


class FuzzontoError(Exception):
    """Base class for all fuzzonto errors."""


class MalformedDocument(FuzzontoError):
    """The input document is not well-formed in its declared format."""


class UnsupportedConstruct(FuzzontoError):
    """Strict mode: the document uses a construct outside the recognized subset."""


class DuplicateIdentifier(FuzzontoError):
    """The same identifier is declared twice with conflicting kinds."""


class FixpointOverflow(FuzzontoError):
    """Normalization exceeded the configured element bound (pathological input)."""

    def __init__(self, count, bound):
        super().__init__(f"element count {count} exceeds bound {bound}")
        self.count = count
        self.bound = bound


class NotNormalized(FuzzontoError):
    """An operation requiring a normalized model received a raw one."""


class UnwritableName(FuzzontoError):
    """A name holds a character that XML 1.0 cannot carry, even escaped."""
