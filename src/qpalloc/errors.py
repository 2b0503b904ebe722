"""Exception types shared across the package.

The CLI maps these onto its exit-code taxonomy, so raising the right
class matters more than the message text.
"""


class FormatError(ValueError):
    """A file does not conform to its declared format."""


class CurveError(ValueError):
    """A rate-quality curve violates the preconditions for BD fitting."""


class OverlapError(CurveError):
    """Two curves share no quality (or rate) range to integrate over."""


class GridMismatchError(ValueError):
    """Block-grid geometry disagrees between two artifacts."""


class InferenceError(RuntimeError):
    """Model weights cannot be run against the given input."""


class OutputIOError(Exception):
    """An output file could not be written; wraps the OS-level cause."""
