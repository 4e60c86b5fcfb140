"""Center-normalize transform and ``normalize_chunk``, the one place that
picks a chunk's centering (task mean, base mean or origin) and builds its
normalized view, the only input of every method. ``unit_rows`` is the one
projection onto the unit sphere: every normalized vector, centroid and
prototype goes through it."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DegenerateFeatureError, DivergenceError
from .episodes import Episode

CENTERING_KINDS = ("none", "base", "task")


def check_centering(kind: str) -> None:
    """ConfigError unless ``kind`` names a centering."""
    if kind not in CENTERING_KINDS:
        raise ConfigError(f"unknown centering {kind!r}; expected one of {CENTERING_KINDS}")


def unit_rows(shifted: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """A D-vector, (n, D) batch or (E, n, D) chunk of rows ``shifted`` by
    their centering point, projected onto the unit sphere, and its lengths
    (last axis kept). A length that overflows float64 or is NaN raises
    DivergenceError; a row within 1e-12 of its centering point raises
    DegenerateFeatureError naming it as ``name``, with its row in a batch
    and its episode in a chunk of several: ``query vector 5 of episode 2``."""
    with np.errstate(over="ignore"):  # an overflow raises below, with the run's own message
        lengths = np.sqrt(np.add.reduce(shifted * shifted, axis=-1, keepdims=True))
    # ``initial`` lets a batch of no rows through; NaN fails the first test.
    if not lengths.max(initial=0.0) < np.inf:
        raise DivergenceError(f"a {name}'s distance from the centering point overflows")
    if lengths.min(initial=np.inf) < 1e-12:
        index = np.argwhere(lengths < 1e-12)[0][:-1]  # (), (row,) or (episode, row)
        label = _label(name, index, len(shifted) > 1)
        raise DegenerateFeatureError(f"{label} coincides with the centering point")
    return shifted / lengths, lengths


def _label(name: str, index, several: bool) -> str:
    """``name`` at ``index`` ((), (row,) or (episode, row)), with its episode
    only when the chunk holds ``several``: ``query vector 5 of episode 2``."""
    label = f"{name} {index[-1]}" if len(index) else name
    if len(index) == 2 and several:
        label += f" of episode {index[0]}"
    return label


def center_normalize(z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``unit_rows`` of a single D-vector or an (N, D) batch ``z`` less ``mu``."""
    return unit_rows(np.asarray(z, np.float64) - np.asarray(mu, np.float64), "vector")[0]


class NormalizedChunk(NamedTuple):
    """``raw_support``, ``support_labels`` and ``query_truth`` of E same-shape episodes,
    stacked, and ``support``/``query`` center-normalized at ``mu`` (E, D)."""

    mu: np.ndarray
    support: np.ndarray
    query: np.ndarray
    raw_support: np.ndarray
    support_labels: np.ndarray
    query_truth: np.ndarray


def normalize_chunk(
    episodes: Sequence[Episode], centering: str, base_mu: np.ndarray | None = None
) -> NormalizedChunk:
    """The one stacking of episodes and the one choice of their centering
    vectors: ``task`` centers each episode at the mean of its raw support
    and query rows, ``base`` every episode at the dataset mean ``base_mu``,
    and ``none`` at the origin. A vector at its centering point raises
    DegenerateFeatureError naming its set and its row in the episode,
    supports first, and the episode when the chunk has more than one. A NaN
    or infinite component, which only an ``Episode`` built in Python can
    hold, raises DataError naming its vector the same way; it is looked
    for only once a set has failed to normalize."""
    check_centering(centering)
    if base_mu is not None:
        base_mu = np.asarray(base_mu, dtype=np.float64)
        if not np.all(np.isfinite(base_mu)):
            raise ConfigError("centering vector must be finite")
    elif centering == "base":
        raise ConfigError("base centering requires a precomputed mean")
    raw_support = np.stack([ep.support_vectors for ep in episodes])
    raw_query = np.stack([ep.query_vectors for ep in episodes])
    sets = ((raw_support, "support vector"), (raw_query, "query vector"))
    try:
        with np.errstate(invalid="ignore", over="ignore"):  # a bad row raises below
            if centering == "task":
                mu = np.concatenate([raw_support, raw_query], axis=1).mean(axis=1)
            elif centering == "base":
                mu = np.tile(base_mu, (len(episodes), 1))
            else:
                mu = np.zeros((len(episodes), raw_support.shape[-1]))
            support, query = (unit_rows(np.subtract(raw, mu[:, None], dtype=np.float64), name)[0]
                              for raw, name in sets)
    except DivergenceError:
        for raw, name in sets:
            bad = np.argwhere(~np.isfinite(raw))
            if len(bad):
                e, row, j = bad[0]
                raise DataError(f"{_label(name, (e, row), len(episodes) > 1)} is not finite "
                                f"(component {j} is {raw[e, row, j]})") from None
        raise
    return NormalizedChunk(
        mu,
        support,
        query,
        raw_support,
        np.stack([ep.support_labels for ep in episodes]),
        np.stack([ep.query_truth for ep in episodes]),
    )


def class_means(rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-class means (E, K, D) of ``rows`` (E, n, D) under ``labels`` (E, n)
    in 0..K-1, in any order. Each class has the same number of rows in every
    episode; each mean sums its rows in order, as ``rows[mask].mean(axis=0)``."""
    n_episodes, dim = rows.shape[0], rows.shape[-1]
    means = []
    for k in range(int(labels.max()) + 1):
        mask = labels == k
        if np.ptp(mask.sum(axis=-1)):
            raise ValueError(f"class {k} has a different number of rows in some episode")
        means.append(rows[mask].reshape(n_episodes, -1, dim).mean(axis=1))
    return np.stack(means, axis=1)
