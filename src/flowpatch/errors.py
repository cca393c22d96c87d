"""Exception types shared across the package."""


class FormatError(ValueError):
    """A file does not conform to the expected binary layout."""


class NoFramesError(ValueError):
    """A dataset directory holds no loadable frame pair."""


class PlacementError(ValueError):
    """A patch footprint does not fit inside the target frame."""


class DivergenceError(RuntimeError):
    """Patch optimization produced a non-finite loss or gradient."""
