"""Exception types shared across the package."""


class NotOddPrimeError(ValueError):
    """p is not an odd prime."""


class SizeLimitError(ValueError):
    """Requested field exceeds the configured size limit."""


class BadDivisorError(ValueError):
    """A divisibility precondition (m | q-1, t | n, ...) fails."""


class NotUndirectedError(ValueError):
    """2m does not divide q-1, so the difference set is not symmetric."""


class DegenerateMError(ValueError):
    """m < 2 would give the complete graph; rejected for graph construction."""


class EmptySubsetError(ValueError):
    """An orbital-union subset must be nonempty."""


class InvalidWitnessError(ValueError):
    """A clique / independent-set / coloring witness fails its defining condition."""


class TooLargeError(ValueError):
    """Input exceeds the hard cap of a brute-force oracle."""


class BadInputError(ValueError):
    """Invalid argument (q not an odd prime power, index out of range, ...)."""


class OracleMismatchError(RuntimeError):
    """An independent oracle or a self-check disagrees with a computed result."""
