"""Exception types shared across the package."""


class ChowkitError(Exception):
    """Base class for all package-specific errors."""


class FieldInputError(ChowkitError, ValueError):
    """Invalid field data, e.g. a non-fundamental discriminant."""


class PlaceResolutionError(ChowkitError, ValueError):
    """A place or prime label does not resolve in the given context."""


class BackendError(ChowkitError):
    """Operation is not available on this order backend."""


class NotConductorIdealError(ChowkitError):
    """The given ideal fails Furtwaengler's conductor criterion."""


class SearchBoundExceeded(ChowkitError):
    """A step budget ran out before reaching a verdict."""


class DeclaredDataError(ChowkitError, ValueError):
    """A declared-data document is malformed or violates an invariant."""

    def __init__(self, message, path=None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
