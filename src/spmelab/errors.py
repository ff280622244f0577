"""Exception hierarchy shared across the package."""
from __future__ import annotations


class SpmeError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SpmeError, ValueError):
    """An argument violates a documented precondition."""


class OutOfRangeError(SpmeError):
    """A query lies outside the representable range (horizon, clock, table)."""


class BlowUpError(OutOfRangeError):
    """The random clock has reached the base solution's blow-up instant.

    Attributes:
        base_time: blow-up instant of the deterministic base solution.
        hitting_time: first real time at which the clock reaches ``base_time``,
            or None when the clock never reaches it on the sampled horizon.
    """

    def __init__(self, message: str, base_time: float, hitting_time: float | None):
        super().__init__(message)
        self.base_time = base_time
        self.hitting_time = hitting_time


class StabilityError(SpmeError):
    """The march cannot reach its horizon within the step budget."""


class UnsupportedInputError(SpmeError):
    """The request is outside what this implementation supports."""


class ConfigError(SpmeError):
    """A configuration file failed to parse or validate.

    ``line`` is 1-based (0 when the failure is not tied to a single line)
    and ``key`` names the offending option when one is known.
    """

    def __init__(self, message: str, line: int = 0, key: str = ""):
        super().__init__(message)
        self.line = line
        self.key = key
