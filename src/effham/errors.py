"""Exception types shared across the package."""


class EffhamError(Exception):
    """Base class for all package errors."""


class SpaceMismatchError(EffhamError):
    """Operands live on different Hilbert spaces."""


class DimensionCapError(EffhamError):
    """Requested space exceeds the dimension cap."""


class LadderRelationError(EffhamError):
    """Generators do not satisfy the required ladder commutation relation."""


class GuardViolationError(EffhamError):
    """A validity guard (dispersive or smallness condition) is violated."""


class ResonanceError(EffhamError):
    """A required resonance condition fails, or a forbidden one holds."""


class AnalysisError(EffhamError):
    """Input data does not support the requested analysis."""


class ConfigError(EffhamError):
    """Run configuration is missing, malformed, or inconsistent."""
