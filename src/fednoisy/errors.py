"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array or layer shapes are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class NonFiniteLogits(NumericError):
    """A forward pass produced non-finite logits. ``first_slice`` is the
    first slice of a stacked (k, B, classes) pass that holds one, 0 for an
    unstacked pass."""

    def __init__(self, message: str, first_slice: int):
        super().__init__(message)
        self.first_slice = first_slice


class DataFormatError(ValueError):
    """An input file does not match its expected binary/text format."""


class ConfigError(ValueError):
    """A configuration value violates an invariant; message names the key."""
