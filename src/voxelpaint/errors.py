"""Exception types shared across the toolkit."""


class VoxelPaintError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(VoxelPaintError):
    """Operand shapes are incompatible with an operation's contract."""


class ConfigError(VoxelPaintError):
    """Invalid, missing, or unknown configuration values."""


class DataError(VoxelPaintError):
    """Input data violates a precondition (empty region, mismatched dims, ...)."""


class MaskPlacementError(VoxelPaintError):
    """No valid healthy-mask placement could be found for a case."""


class NumericError(VoxelPaintError):
    """A numeric failure (non-finite loss) aborted a run."""


class NiftiError(VoxelPaintError):
    """NIfTI-1 parse or serialize failure.

    ``code`` is one of: bad_gzip, bad_header, bad_magic, bad_datatype,
    bad_dims, truncated, non_finite.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class CheckpointError(VoxelPaintError):
    """Checkpoint parse failure.

    ``code`` is one of: bad_magic, version, truncated, mismatch.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
