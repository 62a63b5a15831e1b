"""Shared exception types; the CLI maps them to exit codes."""


class InputError(ValueError):
    """Malformed or out-of-range input (CLI exit code 2)."""


class CapacityError(InputError):
    """Request exceeds the supported enumeration bounds."""


class PurityViolation(Exception):
    """An automorphism eigenvalue falls outside the certified spectrum."""

    def __init__(self, message, spot=None, factor=None):
        super().__init__(message)
        self.spot = spot        # (-i, j) bidegree when raised from a page check
        self.factor = factor    # offending characteristic-polynomial factor, printable


class WitnessError(Exception):
    """No strict chain-level witness exists for the given complex."""
