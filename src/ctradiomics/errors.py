"""Exception types shared across the toolkit, and how a failure reads in an
error line."""


class NiftiFormatError(ValueError):
    """Raised when a file is not a readable single-file NIfTI-1 image."""


class UnsupportedDataTypeError(NiftiFormatError):
    """Raised when a NIfTI datatype code is outside the supported set."""


class MaskError(ValueError):
    """Raised when a mask file violates the label contract (e.g. non-integer voxels)."""


class ClassMapError(ValueError):
    """Raised when a mask label has no entry in the label-to-class map."""


class GeometryError(ValueError):
    """Raised when a volume/mask pair disagrees on dims, spacing or origin."""


class LesionSizeError(ValueError):
    """Raised when a lesion's box on the resampled grid would hold more voxels
    than ``volume_io.MAX_BOX_VOXELS``."""


class FeatureRangeError(ValueError):
    """Raised when a lesion's feature arithmetic leaves the float64 range: an
    overflow, an invalid operation, a division by zero or a non-finite
    feature value."""


class SelectionError(ValueError):
    """Raised when VIP pruning retains no features; review the threshold."""


class UndefinedModelError(ValueError):
    """Raised when a fitted model explains no response variance at all."""


class DegenerateDataError(ValueError):
    """Raised by rank statistics when every observation is identical."""


def failure_message(exc: BaseException) -> str:
    """A failed scan's or experiment's message as its error line and report
    show it: a ValueError's or OSError's own message, which names its cause,
    and any other exception's prefixed by its type name."""
    return str(exc) if isinstance(exc, (ValueError, OSError)) else f"{type(exc).__name__}: {exc}"
