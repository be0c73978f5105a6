"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the physical or numerical validity of a model."""


class PoleError(DomainError):
    """Evaluation exactly on a resonance pole.

    Carries the pole location (same units as the offending coordinate).
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConfigError(ValueError):
    """Malformed configuration or data file."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc += f"line {line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class ConvergenceError(RuntimeError):
    """Iterative solver failed to converge.

    ``last`` holds the last iterate (a fit's parameter vector) so callers can
    report partial results; ``diagnostics`` is a free-form dict.
    """

    def __init__(self, message, last=None, diagnostics=None):
        super().__init__(message)
        self.last = last
        self.diagnostics = diagnostics if diagnostics is not None else {}
