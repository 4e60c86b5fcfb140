"""Transductive prototype refinement by information maximization.

The classifier keeps one learnable prototype per closed-set class and scores
queries by temperature-scaled cosine similarity in a center-normalized
feature space. Three variants share the machinery:

* ``implicit``  —  a (K+1)-th outlier logit defined as the negative average
  of the K inlier logits, i.e. similarity to the diametrical opposite of the
  mean inlier prototype. No extra parameters. The (K+1)-th probability is
  the outlierness score.
* ``closed``    —  plain K-way classification; outlierness falls back to the
  negative maximum probability.
* ``explicit_dummy`` — the outlier logit comes from a free D-vector in the
  normalized space, initialized at the implicit value and optimized jointly
  with the prototypes.

Prototypes start at the raw support class means and are refined by
full-batch gradient descent on

    cross-entropy(support)  -  marginal entropy(queries)
                            +  alpha * conditional entropy(queries)

which pushes query predictions to be individually confident while keeping
class usage spread out. Gradients are computed analytically, including the
chain rule through the prototype normalization; the centering vector stays
frozen throughout.

One kernel serves all three variants: it refines E same-shape episodes read
from their ``NormalizedChunk`` alone, and ``predict_chunk`` returns one
(E, n_query, C) sheet. A step keeps its logits, probabilities and logit
gradients as (E, C, N) arrays, with the C = K or K + 1 logit columns before
the N = support + query rows of each episode, so that both matmuls read the
normalized rows as they are: the logits are ``(tau v) @ rows^T`` and the
prototype and dummy gradients ``g @ rows``. Every operation is per episode,
so an episode's result does not depend on its chunk, bit for bit; the
one-episode functions call the same code with E = 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFeatureError, DivergenceError
from .episodes import Episode
from .predictions import PredictionSheet
from .transforms import (CenteringPolicy, NormalizedChunk, center_normalize, check_centering,
                         class_means, normalize_chunk, row_norms)

_EPS = 1e-12
_PLOGP_FLOOR = 1e-30


class Variant(str, Enum):
    IMPLICIT = "implicit"
    CLOSED = "closed"
    EXPLICIT_DUMMY = "explicit_dummy"


@dataclass(frozen=True)
class OstimConfig:
    """The run config's ``ostim`` section, which the three refinement
    methods share: the objective and its optimizer, the ``variant`` that the
    ``ostim`` method refines (``tim_closed`` and ``explicit_dummy`` fix their
    own) and the ``centering`` all three use."""

    alpha: float = 1.0
    n_steps: int = 200
    learning_rate: float = 1e-3
    temperature: float = 10.0
    variant: Variant = Variant.IMPLICIT
    centering: str = "task"

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", Variant(self.variant))
        check_centering(self.centering)
        # Comparisons with NaN are false, so these refuse NaN as well as inf.
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")


@dataclass(frozen=True)
class PrototypeSet:
    """Optimization state: K prototypes, the frozen centering vector, and
    (for the explicit_dummy variant) the free outlier vector."""

    w: np.ndarray
    mu: np.ndarray
    variant: Variant
    dummy: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "mu", mu)
        if w.ndim != 2 or w.shape[0] < 2:
            raise ValueError(f"need >= 2 prototypes, got shape {w.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu))):
            raise ValueError("prototypes and centering vector must be finite")
        if self.variant is Variant.EXPLICIT_DUMMY:
            if self.dummy is None:
                raise ValueError("explicit_dummy variant requires a dummy vector")
            dummy = np.asarray(self.dummy, dtype=np.float64)
            if not np.all(np.isfinite(dummy)):
                raise ValueError("dummy vector must be finite")
            object.__setattr__(self, "dummy", dummy)
        elif self.dummy is not None:
            raise ValueError(f"variant {self.variant.value} takes no dummy vector")

    @property
    def n_way(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    marginal_entropy: float
    conditional_entropy: float
    total: float


def _xlogx(p: np.ndarray) -> np.ndarray:
    return np.where(p > _PLOGP_FLOOR, p * np.log(np.maximum(p, _PLOGP_FLOOR)), 0.0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``: ``exp(x - max) / sum``."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - np.max(logits, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


class _Batch(NamedTuple):
    """E prototype sets of one variant, stacked: ``w`` (E, K, D), ``mu``
    (E, D) and ``dummy`` (E, D) or None."""

    w: np.ndarray
    mu: np.ndarray
    dummy: np.ndarray | None
    variant: Variant


def _batch(states: Sequence[PrototypeSet]) -> _Batch:
    variant = states[0].variant
    if any(ps.variant is not variant for ps in states):
        raise ValueError("a batch must hold a single variant")
    dummy = None
    if variant is Variant.EXPLICIT_DUMMY:
        dummy = np.stack([ps.dummy for ps in states])
    return _Batch(
        np.stack([ps.w for ps in states]), np.stack([ps.mu for ps in states]), dummy, variant
    )


def _unbatch(batch: _Batch) -> list[PrototypeSet]:
    dummies = [None] * len(batch.w) if batch.dummy is None else batch.dummy
    return [PrototypeSet(w, mu, batch.variant, d) for w, mu, d in zip(batch.w, batch.mu, dummies)]


def _init_batch(
    mu: np.ndarray, raw_support: np.ndarray, support_labels: np.ndarray, variant: Variant
) -> _Batch:
    """``init_prototypes`` of E episodes from their stacked ``mu``, raw supports and labels."""
    w = class_means(raw_support, support_labels)
    dummy = None
    if variant is Variant.EXPLICIT_DUMMY:
        dummy = -center_normalize(w, mu[:, None]).mean(axis=1)
    return _Batch(w, mu, dummy, variant)


class _Inputs(NamedTuple):
    """Frozen inputs of E same-shape episodes: ``rows`` (E, N, D) holds each
    episode's center-normalized support rows, then its query rows, and
    ``label_index`` (E, n_support) the flat index of each support row's label
    in an (E, C, N) array."""

    rows: np.ndarray
    n_support: int
    label_index: np.ndarray


def _n_cols(batch: _Batch) -> int:
    """C, the logit count: K, plus the outlier column of the two open variants."""
    return batch.w.shape[1] + (batch.variant is not Variant.CLOSED)


def _inputs(view: NormalizedChunk, batch: _Batch) -> _Inputs:
    """The kernel's inputs from the chunk ``view``, for ``batch``'s logit count."""
    rows = np.concatenate([view.support, view.query], axis=1)
    n_episodes, n_rows = rows.shape[:2]
    n_support = view.support.shape[1]
    label_index = (
        (np.arange(n_episodes)[:, None] * _n_cols(batch) + view.support_labels) * n_rows
        + np.arange(n_support)
    )
    return _Inputs(rows, n_support, label_index)


def _directions(w: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit prototype directions (E, K, D) and radii (E, K) about ``mu``.
    A radius too large for float64 would turn every direction into zeros,
    so it raises DivergenceError."""
    shifted = w - mu[:, None, :]
    with np.errstate(over="ignore"):  # an overflow raises below, with the run's own message
        radii = row_norms(shifted)
    if not radii.max() < np.inf:  # also catches NaN
        raise DivergenceError("a prototype's distance from the centering point overflows")
    if radii.min() < _EPS:
        k = int(np.argmax((radii < _EPS).any(axis=0)))
        raise DegenerateFeatureError(f"prototype {k} coincides with the centering point")
    return shifted / radii[..., None], radii


def _logits(rows: np.ndarray, v: np.ndarray, batch: _Batch, temperature: float) -> np.ndarray:
    """Logits (E, C, n) of normalized rows (E, n, D) against directions ``v``
    (E, K, D) and, for explicit_dummy, the dummy vector. The implicit
    outlier logit is the negated mean of the K inlier logits."""
    k_way = v.shape[1]
    directions = v if batch.dummy is None else np.concatenate([v, batch.dummy[:, None]], axis=1)
    out = np.empty((len(v), _n_cols(batch), rows.shape[1]))
    np.matmul(temperature * directions, rows.swapaxes(-1, -2), out=out[:, :directions.shape[1]])
    if batch.variant is Variant.IMPLICIT:
        np.divide(np.add.reduce(out[:, :k_way], axis=1), -k_way, out=out[:, k_way])
    return out


def _forward(
    inputs: _Inputs, batch: _Batch, temperature: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probabilities (E, C, N) of every row, with the prototype directions
    and radii they come from."""
    v, radii = _directions(batch.w, batch.mu)
    return softmax(_logits(inputs.rows, v, batch, temperature), axis=1), v, radii


def _loss_terms(probs: np.ndarray, inputs: _Inputs, alpha: float) -> list[LossBreakdown]:
    """One breakdown per episode."""
    p_query = probs[..., inputs.n_support:]
    n_query = p_query.shape[2]
    ce = -np.log(probs.take(inputs.label_index)).mean(axis=-1)
    marginal = -_xlogx(np.add.reduce(p_query, axis=2) / n_query).sum(axis=-1)
    conditional = -_xlogx(p_query).sum(axis=(1, 2)) / n_query
    total = ce - marginal + alpha * conditional
    return [
        LossBreakdown(float(c), float(m), float(h), float(t))
        for c, m, h, t in zip(ce, marginal, conditional, total)
    ]


def _gradient(
    inputs: _Inputs, probs: np.ndarray, v: np.ndarray, radii: np.ndarray, batch: _Batch,
    cfg: OstimConfig,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients w.r.t. the prototypes (E, K, D) and the dummy vector (E, D).

    The gradient flows through the softmax, both entropy terms, and the
    prototype normalization; inputs and the centering vector are constants.
    The logit gradient ``g`` is (E, C, N), as ``probs`` is.
    """
    k_way = v.shape[1]
    n_s = inputs.n_support
    n_q = probs.shape[2] - n_s

    # d(loss)/d(logit), support rows: softmax cross-entropy.
    g = probs.copy()
    g.reshape(-1)[inputs.label_index] -= 1.0
    g[..., :n_s] /= n_s

    # Query rows: the marginal-entropy and conditional-entropy terms. With
    # s = alpha log p - log p_hat, both are p (E_p[s] - s) / n_query.
    p_q = probs[..., n_s:]
    log_p_hat = np.log(np.add.reduce(p_q, axis=2, keepdims=True) / n_q)  # (E, C, 1)
    s = cfg.alpha * np.log(p_q) - log_p_hat
    g[..., n_s:] = p_q * (np.add.reduce(p_q * s, axis=1, keepdims=True) - s) / n_q

    # One matmul for every logit column's direction; the implicit outlier
    # column's direction is the negated mean of the K prototype directions.
    grad = cfg.temperature * (g @ inputs.rows)  # (E, C, D)
    v_grad, dummy_grad = grad[:, :k_way], None
    if batch.variant is Variant.IMPLICIT:
        v_grad = v_grad - grad[:, k_way:] / k_way
    elif batch.variant is Variant.EXPLICIT_DUMMY:
        dummy_grad = grad[:, k_way]
    w_grad = (v_grad - v * (v_grad * v).sum(axis=-1, keepdims=True)) / radii[..., None]
    return w_grad, dummy_grad


def _forward_and_grad(
    inputs: _Inputs, batch: _Batch, cfg: OstimConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One refinement step: the (E, C, N) probabilities and the gradients."""
    probs, v, radii = _forward(inputs, batch, cfg.temperature)
    return (probs, *_gradient(inputs, probs, v, radii, batch, cfg))


def _check_finite(
    step: int, label_p: np.ndarray, w_grad: np.ndarray, dummy_grad: np.ndarray | None
) -> None:
    """Raise if some episode's loss or gradient is not finite.

    The loss is finite exactly when every support row gives its label a
    nonzero probability: the gradients are finite only if all probabilities
    are, and then both entropy terms are too.
    """
    finite = (label_p > 0).all() and np.isfinite(w_grad).all()
    if not (finite and (dummy_grad is None or np.isfinite(dummy_grad).all())):
        raise DivergenceError(f"non-finite loss or gradient at step {step}")


def _refine(
    batch: _Batch, inputs: _Inputs, cfg: OstimConfig,
    traces: list[list[LossBreakdown]] | None = None,
) -> _Batch:
    """The refinement kernel: ``cfg.n_steps`` full-batch gradient-descent
    steps on every episode of ``batch`` at once. Appends each step's loss
    breakdowns to ``traces`` when given."""
    # numpy's warnings are silenced: a step that is not finite raises below,
    # with the run's own message.
    with np.errstate(all="ignore"):
        for step in range(cfg.n_steps):
            probs, w_grad, dummy_grad = _forward_and_grad(inputs, batch, cfg)
            _check_finite(step, probs.take(inputs.label_index), w_grad, dummy_grad)
            if traces is not None:
                for trace, breakdown in zip(traces, _loss_terms(probs, inputs, cfg.alpha)):
                    trace.append(breakdown)
            dummy = batch.dummy
            if dummy_grad is not None:
                dummy = dummy - cfg.learning_rate * dummy_grad
            batch = _Batch(batch.w - cfg.learning_rate * w_grad, batch.mu, dummy, batch.variant)
    return batch


def refine_batch(
    states: Sequence[PrototypeSet], episodes: Sequence[Episode], cfg: OstimConfig
) -> list[PrototypeSet]:
    """Refine E same-shape episodes of one variant in one kernel call.

    Item i of the result equals ``refine(states[i], episodes[i], cfg)[0]``
    bit for bit, so an episode that fails in a batch fails alone with the
    same error. A failure raises the plain error of some failing episode
    without saying which; a caller that needs to know refines the episodes
    one at a time.
    """
    if cfg.n_steps == 0 or not states:
        return list(states)
    batch = _batch(states)
    return _unbatch(_refine(batch, _inputs(normalize_chunk(episodes, batch.mu), batch), cfg))


def init_prototypes(
    episode: Episode, policy: CenteringPolicy, variant: Variant | str = Variant.IMPLICIT
) -> PrototypeSet:
    """Prototypes start at the per-class means of the raw support vectors.

    For the explicit_dummy variant the outlier vector starts at the implicit
    value, the negated average of the normalized prototypes, so its logits
    coincide with the implicit variant's before any refinement.
    """
    return _unbatch(_init_batch(policy.resolve(episode)[None], episode.support_vectors[None],
                                episode.support_labels[None], Variant(variant)))[0]


def predict_chunk(
    view: NormalizedChunk, variant: Variant | str, cfg: OstimConfig
) -> PredictionSheet:
    """One (E, n_query, C) sheet whose row e is ``predict`` of episode e's refined
    ``init_prototypes``, all refined in one kernel call; fails as ``refine_batch``."""
    batch = _init_batch(view.mu, view.raw_support, view.support_labels, Variant(variant))
    batch = _refine(batch, _inputs(view, batch), cfg)
    return PredictionSheet(_query_probs(batch, view.query, cfg.temperature), batch.w.shape[1])


def _query_probs(batch: _Batch, query: np.ndarray, temperature: float) -> np.ndarray:
    """Probabilities (E, n, C) of normalized queries (E, n, D)."""
    v = _directions(batch.w, batch.mu)[0]
    return softmax(_logits(query, v, batch, temperature), axis=1).swapaxes(1, 2)


def logits(ps: PrototypeSet, z: np.ndarray, temperature: float = 10.0) -> np.ndarray:
    """Logit vector(s) for raw feature input ``z`` (single vector or batch)."""
    z = np.asarray(z, dtype=np.float64)
    u = center_normalize(np.atleast_2d(z), ps.mu)
    batch = _batch([ps])
    v = _directions(batch.w, batch.mu)[0]
    out = _logits(u[None], v, batch, temperature)[0].T
    return out[0] if z.ndim == 1 else out


def compute_loss(ps: PrototypeSet, episode: Episode, cfg: OstimConfig) -> LossBreakdown:
    """Objective value split into its three terms.

    ``total = ce - marginal_entropy + alpha * conditional_entropy``; support
    labels are one-hot over the closed classes (the outlier column, when
    present, carries zero target mass).
    """
    batch = _batch([ps])
    inputs = _inputs(normalize_chunk([episode], batch.mu), batch)
    return _loss_terms(_forward(inputs, batch, cfg.temperature)[0], inputs, cfg.alpha)[0]


def loss_and_grad(
    ps: PrototypeSet, episode: Episode, cfg: OstimConfig
) -> tuple[LossBreakdown, np.ndarray, np.ndarray | None]:
    """Loss plus analytic gradients w.r.t. the prototypes (and dummy vector)."""
    batch = _batch([ps])
    inputs = _inputs(normalize_chunk([episode], batch.mu), batch)
    probs, w_grad, dummy_grad = _forward_and_grad(inputs, batch, cfg)
    breakdown = _loss_terms(probs, inputs, cfg.alpha)[0]
    return breakdown, w_grad[0], None if dummy_grad is None else dummy_grad[0]


def refine(
    ps: PrototypeSet, episode: Episode, cfg: OstimConfig
) -> tuple[PrototypeSet, list[LossBreakdown]]:
    """Run ``cfg.n_steps`` full-batch gradient-descent steps.

    Returns the refined state and the loss breakdown evaluated at each step
    before its update. Non-finite losses or gradients abort with the step
    index rather than silently propagating NaNs.
    """
    trace: list[LossBreakdown] = []
    if cfg.n_steps == 0:
        return ps, trace
    batch = _batch([ps])
    batch = _refine(batch, _inputs(normalize_chunk([episode], batch.mu), batch), cfg, [trace])
    return _unbatch(batch)[0], trace


def predict(ps: PrototypeSet, episode: Episode, cfg: OstimConfig) -> PredictionSheet:
    """Softmax predictions for the episode's queries. The sheet reads the
    outlierness score from the outlier column when the variant has one,
    otherwise it is the negative maximum closed-set probability."""
    query = center_normalize(episode.query_vectors, ps.mu)[None]
    return PredictionSheet(_query_probs(_batch([ps]), query, cfg.temperature)[0], ps.n_way)


def closed_set_entropy(sheet: PredictionSheet) -> np.ndarray:
    """Entropy of each query's distribution renormalized over the closed
    classes only. A diagnostic: it is not any variant's outlierness score."""
    head = sheet.probs[:, : sheet.n_closed]
    head = head / head.sum(axis=1, keepdims=True)
    return -_xlogx(head).sum(axis=1)
