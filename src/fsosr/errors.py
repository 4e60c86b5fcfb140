"""Exception hierarchy. Exit codes used by the CLI hang off the classes.

Batched code raises these errors as they are, without the position of the
failing item; ``runner`` finds the failing episode by replaying its chunk
one episode at a time.
"""

from __future__ import annotations


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
    """A vector coincides with the centering point and cannot be normalized."""

    exit_code = 4


class DivergenceError(FsosrError):
    """Non-finite loss or gradient encountered during prototype refinement."""

    exit_code = 4

