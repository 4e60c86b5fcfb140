"""Exception hierarchy. Exit codes used by the CLI hang off the classes.

``transforms.unit_rows`` names a vector, centroid or prototype at its
centering point by its row and, in a chunk of several episodes, its
episode; ``transforms.normalize_chunk`` names a non-finite input vector
the same way. Other batched errors carry no position; ``runner`` replays a
failing chunk one episode at a time to name the episode and method.
``integer`` and ``number`` are the one type rule of config values.
"""

from __future__ import annotations

import math
import numbers


class FsosrError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ConfigError(FsosrError, ValueError):
    """Invalid configuration: unknown key, bad value, unsatisfiable request.
    Also a ValueError, so code catching one from a config class still does."""

    exit_code = 2


class DataError(FsosrError):
    """Invalid or unusable data (files, labels, splits)."""

    exit_code = 3


class StoreError(DataError):
    """Malformed or corrupt feature-store file."""


class SamplingError(DataError):
    """The requested episode cannot be drawn from the available split."""


class DegenerateFeatureError(FsosrError):
    """A vector, centroid or prototype coincides with its centering point and
    cannot be normalized."""

    exit_code = 4


class DivergenceError(FsosrError):
    """A non-finite loss or gradient in refinement, or a distance from the
    centering point that overflows float64."""

    exit_code = 4


def integer(value, key: str) -> int:
    """``value`` as an int if it is a whole number (``3`` or ``3.0``) other
    than a bool, else ConfigError naming ``key``."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def number(value, key: str, finite: bool = True):
    """``value`` as it is if it is a real number other than a bool, and
    finite unless ``finite`` is false; else ConfigError naming ``key``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or finite and not math.isfinite(value)):
        raise ConfigError(f"{key} must be a {'finite ' if finite else ''}number, got {value!r}")
    return value
