"""Exception types shared across the toolkit."""


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


class SelectionError(ValueError):
    """Raised when VIP pruning retains no features; review the threshold."""


class UndefinedModelError(ValueError):
    """Raised when a fitted model explains no response variance at all."""


class DegenerateDataError(ValueError):
    """Raised by rank statistics when every observation is identical."""
