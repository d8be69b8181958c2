"""Exception types shared across the package."""


class DexRetargetError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(DexRetargetError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateGeometryError(DexRetargetError):
    """Point configuration is rank deficient (collinear or coincident)."""


class LossUndefinedError(DexRetargetError):
    """A loss has an empty support (no correspondences / empty pixel set)."""


class RegistrationError(DexRetargetError):
    """Registration failed; carries the best report obtained so far."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class AlignmentError(DexRetargetError):
    """Per-frame hand alignment failed; carries diagnostics."""

    def __init__(self, message, frame_index=None, diagnostics=None):
        super().__init__(message)
        self.frame_index = frame_index
        self.diagnostics = diagnostics or {}


class RetargetError(DexRetargetError):
    """Per-frame retargeting solve failed."""


class RefineError(DexRetargetError):
    """Contact refinement failed."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SolverStartError(DexRetargetError):
    """Objective is non-finite at the (projected) starting point."""


class LineSearchError(DexRetargetError):
    """No finite step exists along the search direction."""


class FormatError(DexRetargetError, ValueError):
    """File is in an unsupported format variant."""


class DataParseError(DexRetargetError, ValueError):
    """File content violates the documented schema.

    ``location`` names the offending element (frame index, field, line).
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class UrdfStructureError(DexRetargetError, ValueError):
    """Kinematic graph is not a tree (cycle, orphan, missing link)."""


class UrdfValidationError(DexRetargetError, ValueError):
    """URDF element is present but invalid (missing limits, bad mimic)."""


class ConfigError(DexRetargetError, ValueError):
    """Pipeline configuration is invalid."""
