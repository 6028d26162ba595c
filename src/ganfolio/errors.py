"""Exception types shared across the package.

Two failure families matter to callers: bad inputs (files, shapes, config
values) and numeric faults (non-finite values appearing mid-computation).
The CLI maps them to exit codes 2 and 3 respectively.
"""


class GanfolioError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GanfolioError):
    """Invalid input data, configuration, or preconditions."""


class NumericFault(GanfolioError):
    """A computation produced NaN or infinity."""
