"""Exception types shared across the toolkit.

Input problems raise ValueError (or a subclass); a PrecisionError means
the requested quantity cannot be certified at the supplied truncation or
coefficient precision and the caller should retry with more digits.  An
InvariantError means a mathematical cross-check inside the toolkit failed:
the answer is not to be trusted, whatever the input.
"""


class RamforgeError(Exception):
    """Base class for toolkit-specific errors."""


class PrecisionError(RamforgeError):
    """A result exists but cannot be certified at the working precision.

    Attributes:
        quantity: short name of the quantity that failed certification.
        level: index (iterate level, coefficient index, ...) when known.
        partial: any partial data certified before the failure.
    """

    def __init__(self, message, *, quantity=None, level=None, partial=None):
        super().__init__(message)
        self.quantity = quantity
        self.level = level
        self.partial = partial


class SenViolationError(RamforgeError, ValueError):
    """A lower-break sequence is not consistent with any Z_p-action."""


class InvariantError(RamforgeError):
    """Two independent computations of one quantity disagree.

    Raised by the explicit cross-checks, which, unlike ``assert``, also run
    under ``python -O``.  It signals a defect in the toolkit, not in the input.
    """
