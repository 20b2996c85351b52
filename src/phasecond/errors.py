"""Exception types shared across the package."""


class PhaseCondError(Exception):
    """Base class for all package errors."""


class ShapeError(PhaseCondError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GraphError(PhaseCondError, ValueError):
    """Autodiff contract violation (e.g. backward from a non-scalar)."""


class NumericsError(PhaseCondError, ArithmeticError):
    """Non-finite values encountered where finite ones are required."""


class ConfigError(PhaseCondError, ValueError):
    """Invalid or inconsistent run configuration."""


class PathSyntaxError(ConfigError):
    """Phase path expression could not be parsed."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PathValidationError(ConfigError):
    """Phase path parsed but violates a structural rule."""


class BuildError(PhaseCondError, ValueError):
    """Model assembly failed: a duplicate parameter name or a misshapen given array."""


class DataFormatError(PhaseCondError, ValueError):
    """Input file malformed: bad vector line, JSON schema violation, etc."""


class DataError(PhaseCondError, ValueError):
    """Example-level data problem (e.g. gold span out of range)."""


class CheckpointError(PhaseCondError, ValueError):
    """Checkpoint unreadable, truncated, or incompatible with the model."""
