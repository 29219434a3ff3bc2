"""The exception types that cli.main maps to exit codes.

SeriesNotConverged exits 4 and InvariantViolation exits 3. A rejected input
value is a plain ValueError, which exits 2 with OSError and MemoryError. No
type here is caught anywhere else, so none is raised only to become data.
"""


class SeriesNotConverged(Exception):
    """A phase-space value cannot be computed to tolerance (probe weight underflow)."""


class InvariantViolation(Exception):
    """A computed value broke a bound that the closed form guarantees."""
