"""Exception types shared across the package."""


class KerrcatError(Exception):
    """Base class for all package-specific errors."""


class CutoffTooSmall(KerrcatError):
    """A truncated Fock basis cannot represent the requested state."""


class DimensionMismatch(KerrcatError):
    """Operands live in Fock spaces of different cutoff."""


class NonPositiveInput(KerrcatError):
    """A physical input that must be positive (or non-negative) is not."""


class SeriesNotConverged(KerrcatError):
    """A phase-space value cannot be computed to tolerance (probe weight underflow)."""


class InvariantViolation(KerrcatError):
    """A computed value broke a bound that the closed form guarantees."""


class CutoffLeak(KerrcatError):
    """Population reached the truncation boundary during evolution."""


class DegenerateBranches(KerrcatError):
    """Cat-branch probes overlap too much for the coherence metric."""


class InsufficientDecay(KerrcatError):
    """Coherence never dropped below 1/e; only a lower bound is known.

    The ``lower_bound`` attribute carries the largest time for which the
    supplied samples still show coherence above 1/e.
    """

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class ConfigError(KerrcatError):
    """A run configuration failed validation."""
