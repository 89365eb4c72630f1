"""Exception hierarchy shared across the package.

Errors are semantic: callers are expected to catch the specific class, not
parse messages.
"""

from __future__ import annotations

__all__ = [
    "PackdimError",
    "InvalidArgumentError",
    "NotPositiveSemidefiniteError",
    "GeometryError",
    "ScaleUnrepresentableError",
    "DepthExhaustedError",
    "ResolutionError",
    "InsufficientScalesError",
    "DegenerateRegimeError",
    "ConfigError",
]


class PackdimError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgumentError(PackdimError, ValueError):
    """An argument is outside its documented domain."""


class NotPositiveSemidefiniteError(PackdimError):
    """A matrix required to be positive semidefinite is not, even after the
    documented jitter schedule.  Carries the failing pivot index (0-based)."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive semidefinite (pivot {pivot})")


class GeometryError(PackdimError):
    """Interval geometry is inconsistent (overlap, escape from parent,
    negative gaps)."""


class ScaleUnrepresentableError(PackdimError):
    """A requested scale underflows double precision.  Carries the first
    offending level."""

    def __init__(self, level: int, log_inv_scale: float):
        self.level = level
        self.log_inv_scale = log_inv_scale
        super().__init__(
            f"scale at level {level} is not representable as a normal double "
            f"(log(1/delta) = {log_inv_scale:.3g} exceeds 700)"
        )


class DepthExhaustedError(PackdimError):
    """A construction ran out of levels before meeting its target."""


class ResolutionError(PackdimError):
    """A scale grid probes below the resolution supported by the data.
    Carries the offending scale."""

    def __init__(self, scale: float, limit: float):
        self.scale = scale
        self.limit = limit
        super().__init__(f"finest scale {scale:.3g} is below the resolution guard {limit:.3g}")


class InsufficientScalesError(PackdimError):
    """Fewer than four usable scales remain after dropping empty entries."""


class DegenerateRegimeError(PackdimError):
    """A closed-form solver found no consistent branch for the regime."""


class ConfigError(PackdimError, ValueError):
    """An experiment configuration is malformed."""
