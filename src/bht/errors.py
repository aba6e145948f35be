"""Exception types shared across the package."""


class DomainError(ValueError):
    """A precondition on mathematical input was violated."""


class SpaceMismatchError(DomainError):
    """Two values built over different space shapes were combined."""


class ClassMismatchError(DomainError):
    """An exact bisection was requested between clopens of different class."""

    def __init__(self, left: int, right: int, modulus: int):
        self.left = left
        self.right = right
        self.modulus = modulus
        super().__init__(
            "class mismatch: %d != %d (mod %d)" % (left, right, modulus)
        )


class OverlapError(DomainError):
    """Two source or two target bricks of a bisection meet."""

    def __init__(self, side: str, first, second):
        self.side, self.first, self.second = side, first, second
        super().__init__("%s bricks overlap: %r, %r" % (side, first, second))


class UnsatisfiableError(DomainError):
    """The requested witness cannot exist for the given inputs."""


class NotDeterminedError(DomainError):
    """The requested value is not pinned down by the supported closed forms."""


class ParseError(ValueError):
    """A text input could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
