"""Exception types shared across the package; cli.main maps each to an exit code."""


class InputError(ValueError):
    """Outside input that fails validation: a config key or keys that do not fit
    together, a dataset, weights or model file (exit code 2).  It stays a ValueError
    because the loaders' public contract is a ValueError for a malformed file."""


class DomainError(Exception):
    """An evaluation left the validated domain of a series or closed form.

    ``layer`` (when set) is the index of the offending network layer;
    ``location`` (when set) is an extra coordinate such as a Gram entry (i, j)
    or a sample index.
    """

    def __init__(self, message, *, layer=None, location=None):
        super().__init__(message)
        self.layer = layer
        self.location = location


class DivergenceError(RuntimeError):
    """An iterative optimizer produced a non-finite objective or iterate."""


class NearSingularError(RuntimeError):
    """A linear solve was requested too close to a singular operator."""


class SizeLimitError(Exception):
    """A flattening request would materialize more entries than the guard allows."""

    def __init__(self, message, *, requested=None, limit=None):
        super().__init__(message)
        self.requested = requested
        self.limit = limit
