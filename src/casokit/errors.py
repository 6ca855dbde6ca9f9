"""Shared exception and warning types."""


class DimensionError(ValueError):
    """Array shapes do not line up with a network, image, or operator."""


class NonFiniteError(ValueError):
    """An evaluation produced NaN or infinity."""


class FormatError(ValueError):
    """Malformed model or dataset file.

    Carries position information (path, line, byte offset) so the caller
    can point at the offending spot. Any of the fields may be None when
    the position is unknown or meaningless for that failure.
    """

    def __init__(self, message, path=None, line=None, offset=None):
        self.path = path
        self.line = line
        self.offset = offset
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte {offset}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class KinkWarning(UserWarning):
    """A relu pre-activation sat close to zero inside a finite-difference
    stencil, so the locally-linear assumption may not hold."""
