"""Exception types and the integer check shared across the package."""

import numbers


def check_int(name: str, value) -> None:
    """TypeError, naming `name`, unless `value` is an integer; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


class FormatError(ValueError):
    """A file does not conform to the expected binary layout."""


class NoFramesError(ValueError):
    """A dataset directory holds no loadable frame pair."""


class PlacementError(ValueError):
    """A patch footprint or a defense block does not fit inside the target frame."""


class DivergenceError(RuntimeError):
    """Patch optimization produced a non-finite loss or gradient."""
