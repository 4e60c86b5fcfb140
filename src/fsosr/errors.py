"""Exception hierarchy. Exit codes used by the CLI hang off the classes."""

from __future__ import annotations


class FsosrError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ConfigError(FsosrError):
    """Invalid configuration: unknown key, bad value, unsatisfiable request."""

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


class SliceError(Exception):
    """Item ``index`` of a batched computation failed with ``error``.

    Batched code raises it so the caller can tell which episode of a chunk
    failed. Items before ``index`` had not failed when it was raised; items
    after it were not checked. ``run`` and the one-episode refinement
    functions raise ``error`` in its place.
    """

    def __init__(self, index: int, error: Exception) -> None:
        super().__init__(f"item {index}: {error}")
        self.index = index
        self.error = error
