"""Exception types shared across the package."""


class SpectralDefectError(Exception):
    """Base class for all package errors."""


class DomainError(SpectralDefectError):
    """An argument lies outside the mathematical domain of an operation."""


class ThresholdError(SpectralDefectError):
    """An energy is not below the tail threshold required by the operation."""


class IntegrationError(SpectralDefectError):
    """The ODE integrator failed; carries the last time reached."""

    def __init__(self, message, t_reached=None):
        super().__init__(message)
        self.t_reached = t_reached


class IntervalSelectionError(SpectralDefectError):
    """No working interval satisfies the cue-residual and tail conditions."""


class MonotonicityError(SpectralDefectError):
    """The defect-angle scan decreased beyond numerical jitter, or a cue
    starts off the branch that decays outward, on which the increase rests.

    This signals a misconfigured integrator or cue, not a property of the
    problem: the defect angle is strictly increasing in E.
    """


class ConfigError(SpectralDefectError):
    """Invalid run configuration; carries the offending key when known."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
