"""Exception types shared across the package.

Two failure families matter to callers: bad inputs (files, shapes, config
values) and numeric faults (non-finite values appearing mid-computation).
The CLI maps them to exit codes 2 and 3 respectively.  :func:`opened`
turns the ways an input file cannot be read into the first family.
"""

import csv
from contextlib import contextmanager
from pathlib import Path


class GanfolioError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GanfolioError):
    """Invalid input data, configuration, or preconditions."""


class NumericFault(GanfolioError):
    """A computation produced NaN or infinity."""


@contextmanager
def opened(path, what: str, binary: bool = False):
    """The input file ``path``, open for reading as bytes or as UTF-8 text.

    A missing file raises ValidationError "<what> not found: <path>".  A
    directory, a file that cannot be read, text that is not UTF-8, or CSV that
    ``csv.reader`` refuses (a cell longer than ``csv.field_size_limit()``)
    raises ValidationError naming the file, including when the caller's reads
    hit it.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{what} not found: {path}")
    try:
        with (path.open("rb") if binary else path.open(encoding="utf-8", newline="")) as handle:
            yield handle
    except OSError as err:
        raise ValidationError(f"{path}: cannot read {what}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path}: {what} is not UTF-8 text ({err.reason})") from None
    except csv.Error as err:
        raise ValidationError(f"{path}: cannot parse {what}: {err}") from None
