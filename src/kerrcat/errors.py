"""Exception types shared across the package; a rejected input value is a plain ValueError."""


class KerrcatError(Exception):
    """Base class for all package-specific errors."""


class SeriesNotConverged(KerrcatError):
    """A phase-space value cannot be computed to tolerance (probe weight underflow)."""


class InvariantViolation(KerrcatError):
    """A computed value broke a bound that the closed form guarantees."""


class InsufficientDecay(KerrcatError):
    """Coherence never dropped below 1/e; ``lower_bound``, always given, bounds the decay time."""

    def __init__(self, message, lower_bound):
        super().__init__(message)
        self.lower_bound = lower_bound
