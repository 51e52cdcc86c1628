"""Exception types shared across the package.

The CLI maps these onto process exit codes: parse failures exit 2, guard
violations exit 3, degenerate-function errors exit 4.
"""


class CluekitError(Exception):
    """Base class for all cluekit errors."""


class ParseError(CluekitError):
    """Malformed function spec, subset spec, or input file."""


class GuardError(CluekitError):
    """An array would exceed the byte budget (refused before allocation), a
    time gate was exceeded, or an operation was called outside its supported
    regime (e.g. Walsh transform on a biased measure)."""


class DegenerateError(CluekitError):
    """A ratio whose denominator vanishes (constant function, zero
    entropy): callers must handle this explicitly, never read a silent 0."""
