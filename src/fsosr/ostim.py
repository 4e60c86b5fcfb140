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

One kernel serves all three variants: it refines E same-shape episodes as
(E, n, D) arrays from their ``NormalizedChunk``, which ``predict_chunk``
also predicts from. Every product is per episode, so an episode's result
does not depend on its chunk; the one-episode functions call the same code.
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
                         class_means, normalize_chunk)

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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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


def _init_batch(mu: np.ndarray, episodes: Sequence[Episode], variant: Variant) -> _Batch:
    """``init_prototypes`` of E episodes about their centering vectors ``mu``."""
    labels = np.stack([episode.support_labels for episode in episodes])
    w = class_means(np.stack([episode.support_vectors for episode in episodes]), labels)
    dummy = None
    if variant is Variant.EXPLICIT_DUMMY:
        dummy = -center_normalize(w, mu[:, None]).mean(axis=1)
    return _Batch(w, mu, dummy, variant)


class _Inputs(NamedTuple):
    """Frozen inputs of E same-shape episodes, center-normalized at each
    episode's centering vector. ``support`` and ``query`` are views of
    ``rows``; ``label_index`` holds the flat index of each support row's
    label column in an (E, n_support, C) array."""

    rows: np.ndarray  # (E, n_support + n_query, D)
    support: np.ndarray
    query: np.ndarray
    label_index: np.ndarray  # (E, n_support)


def _inputs(
    episodes: Sequence[Episode], batch: _Batch, view: NormalizedChunk | None = None
) -> _Inputs:
    """``view``, or the episodes normalized at the batch's centering vectors."""
    view = normalize_chunk(episodes, batch.mu) if view is None else view
    rows = np.concatenate([view.support, view.query], axis=1)
    labels = np.stack([episode.support_labels for episode in episodes])
    n_episodes, n_support = labels.shape
    n_cols = batch.w.shape[1] + (batch.variant is not Variant.CLOSED)
    label_index = (
        np.arange(n_episodes * n_support).reshape(n_episodes, n_support) * n_cols + labels
    )
    return _Inputs(rows, rows[:, :n_support], rows[:, n_support:], label_index)


def _directions(w: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit prototype directions (E, K, D) and radii (E, K) about ``mu``.
    A radius too large for float64 would turn every direction into zeros,
    so it raises DivergenceError."""
    shifted = w - mu[:, None, :]
    with np.errstate(over="ignore"):  # an overflow raises below, with the run's own message
        radii = np.linalg.norm(shifted, axis=-1)
    if not np.isfinite(radii).all():
        raise DivergenceError("a prototype's distance from the centering point overflows")
    if radii.min() < _EPS:
        k = int(np.argmax((radii < _EPS).any(axis=0)))
        raise DegenerateFeatureError(f"prototype {k} coincides with the centering point")
    return shifted / radii[..., None], radii


def _logits(u: np.ndarray, v: np.ndarray, batch: _Batch, temperature: float) -> np.ndarray:
    """Logits (E, n, C) of normalized inputs ``u`` against directions ``v``."""
    inlier = temperature * (u @ v.swapaxes(-1, -2))
    if batch.variant is Variant.CLOSED:
        return inlier
    if batch.variant is Variant.IMPLICIT:
        extra = -inlier.mean(axis=-1)
    else:
        extra = temperature * (u @ batch.dummy[..., None])[..., 0]
    return np.concatenate([inlier, extra[..., None]], axis=-1)


class _Forward(NamedTuple):
    v: np.ndarray
    radii: np.ndarray
    p_support: np.ndarray  # (E, n_support, C)
    p_query: np.ndarray  # (E, n_query, C)


def _forward(inputs: _Inputs, batch: _Batch, temperature: float) -> _Forward:
    v, radii = _directions(batch.w, batch.mu)
    return _Forward(
        v,
        radii,
        softmax(_logits(inputs.support, v, batch, temperature)),
        softmax(_logits(inputs.query, v, batch, temperature)),
    )


def _label_probs(fwd: _Forward, inputs: _Inputs) -> np.ndarray:
    """(E, n_support): the probability each support row gives its label."""
    return np.take(fwd.p_support, inputs.label_index)


def _loss_terms(fwd: _Forward, inputs: _Inputs, alpha: float) -> list[LossBreakdown]:
    """One breakdown per episode."""
    n_episodes, n_query = fwd.p_query.shape[:2]
    ce = -np.log(_label_probs(fwd, inputs)).mean(axis=-1)
    marginal = -_xlogx(fwd.p_query.mean(axis=1)).sum(axis=-1)
    conditional = -_xlogx(fwd.p_query).reshape(n_episodes, -1).sum(axis=-1) / n_query
    total = ce - marginal + alpha * conditional
    return [
        LossBreakdown(float(c), float(m), float(h), float(t))
        for c, m, h, t in zip(ce, marginal, conditional, total)
    ]


def _gradient(
    inputs: _Inputs, fwd: _Forward, batch: _Batch, cfg: OstimConfig
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients w.r.t. the prototypes (E, K, D) and the dummy vector (E, D).

    The gradient flows through the softmax, both entropy terms, and the
    prototype normalization; inputs and the centering vector are constants.
    """
    tau = cfg.temperature
    k_way = fwd.v.shape[1]
    p_q = fwd.p_query
    n_s, n_q = fwd.p_support.shape[1], p_q.shape[1]

    # d(loss)/d(logit), support rows: softmax cross-entropy.
    g_s = fwd.p_support.copy()
    g_s.reshape(-1)[inputs.label_index] -= 1.0
    g_s /= n_s

    # Query rows: marginal-entropy and conditional-entropy terms.
    log_p_hat = np.log(p_q.mean(axis=1))
    g_m = p_q * (log_p_hat[:, None, :] - p_q @ log_p_hat[..., None]) / n_q
    log_p_q = np.log(p_q)
    row_dot = (p_q * log_p_q).sum(axis=-1, keepdims=True)
    g_c = -(cfg.alpha / n_q) * p_q * (log_p_q - row_dot)
    g_all = np.concatenate([g_s, g_m + g_c], axis=1)

    dummy_grad = None
    if batch.variant is Variant.CLOSED:
        g_sim = tau * g_all
    elif batch.variant is Variant.IMPLICIT:
        g_sim = tau * (g_all[..., :k_way] - g_all[..., k_way:] / k_way)
    else:
        g_sim = tau * g_all[..., :k_way]
        u_t = inputs.rows.swapaxes(-1, -2)
        dummy_grad = (u_t @ (tau * g_all[..., k_way])[..., None])[..., 0]

    v = fwd.v
    v_grad = g_sim.swapaxes(-1, -2) @ inputs.rows
    w_grad = (v_grad - v * (v_grad * v).sum(axis=-1, keepdims=True)) / fwd.radii[..., None]
    return w_grad, dummy_grad


def _forward_and_grad(
    inputs: _Inputs, batch: _Batch, cfg: OstimConfig
) -> tuple[_Forward, np.ndarray, np.ndarray | None]:
    """One refinement step's forward pass and gradients."""
    fwd = _forward(inputs, batch, cfg.temperature)
    return (fwd, *_gradient(inputs, fwd, batch, cfg))


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
    states: Sequence[PrototypeSet], episodes: Sequence[Episode], cfg: OstimConfig,
    keep_trace: bool, view: NormalizedChunk | None = None,
) -> tuple[list[PrototypeSet], list[list[LossBreakdown]]]:
    """The refinement kernel: ``cfg.n_steps`` full-batch gradient-descent
    steps on every episode at once, from ``view`` when given."""
    traces: list[list[LossBreakdown]] = [[] for _ in states]
    if cfg.n_steps == 0 or not states:
        return list(states), traces
    batch = _batch(states)
    inputs = _inputs(episodes, batch, view)
    for step in range(cfg.n_steps):
        fwd, w_grad, dummy_grad = _forward_and_grad(inputs, batch, cfg)
        _check_finite(step, _label_probs(fwd, inputs), w_grad, dummy_grad)
        if keep_trace:
            for trace, breakdown in zip(traces, _loss_terms(fwd, inputs, cfg.alpha)):
                trace.append(breakdown)
        dummy = batch.dummy
        if dummy_grad is not None:
            dummy = dummy - cfg.learning_rate * dummy_grad
        batch = batch._replace(w=batch.w - cfg.learning_rate * w_grad, dummy=dummy)
    return _unbatch(batch), traces


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
    return _refine(states, episodes, cfg, keep_trace=False)[0]


def init_prototypes(
    episode: Episode, policy: CenteringPolicy, variant: Variant | str = Variant.IMPLICIT
) -> PrototypeSet:
    """Prototypes start at the per-class means of the raw support vectors.

    For the explicit_dummy variant the outlier vector starts at the implicit
    value, the negated average of the normalized prototypes, so its logits
    coincide with the implicit variant's before any refinement.
    """
    return _unbatch(_init_batch(policy.resolve(episode)[None], [episode], Variant(variant)))[0]


def predict_chunk(
    view: NormalizedChunk, episodes: Sequence[Episode], variant: Variant | str, cfg: OstimConfig
) -> list[PredictionSheet]:
    """``predict`` of each episode's refined ``init_prototypes``, in one kernel
    call from the chunk normalized once in ``view``; fails as ``refine_batch``."""
    states = _unbatch(_init_batch(view.mu, episodes, Variant(variant)))
    states, _ = _refine(states, episodes, cfg, keep_trace=False, view=view)
    batch = _batch(states)
    probs = softmax(_logits(view.query, _directions(batch.w, batch.mu)[0], batch, cfg.temperature))
    return [PredictionSheet(p, batch.w.shape[1]) for p in probs]


def logits(ps: PrototypeSet, z: np.ndarray, temperature: float = 10.0) -> np.ndarray:
    """Logit vector(s) for raw feature input ``z`` (single vector or batch)."""
    z = np.asarray(z, dtype=np.float64)
    u = center_normalize(np.atleast_2d(z), ps.mu)
    batch = _batch([ps])
    out = _logits(u[None], _directions(batch.w, batch.mu)[0], batch, temperature)[0]
    return out[0] if z.ndim == 1 else out


def compute_loss(ps: PrototypeSet, episode: Episode, cfg: OstimConfig) -> LossBreakdown:
    """Objective value split into its three terms.

    ``total = ce - marginal_entropy + alpha * conditional_entropy``; support
    labels are one-hot over the closed classes (the outlier column, when
    present, carries zero target mass).
    """
    batch = _batch([ps])
    inputs = _inputs([episode], batch)
    fwd = _forward(inputs, batch, cfg.temperature)
    return _loss_terms(fwd, inputs, cfg.alpha)[0]


def loss_and_grad(
    ps: PrototypeSet, episode: Episode, cfg: OstimConfig
) -> tuple[LossBreakdown, np.ndarray, np.ndarray | None]:
    """Loss plus analytic gradients w.r.t. the prototypes (and dummy vector)."""
    batch = _batch([ps])
    inputs = _inputs([episode], batch)
    fwd, w_grad, dummy_grad = _forward_and_grad(inputs, batch, cfg)
    breakdown = _loss_terms(fwd, inputs, cfg.alpha)[0]
    return breakdown, w_grad[0], None if dummy_grad is None else dummy_grad[0]


def refine(
    ps: PrototypeSet, episode: Episode, cfg: OstimConfig
) -> tuple[PrototypeSet, list[LossBreakdown]]:
    """Run ``cfg.n_steps`` full-batch gradient-descent steps.

    Returns the refined state and the loss breakdown evaluated at each step
    before its update. Non-finite losses or gradients abort with the step
    index rather than silently propagating NaNs.
    """
    states, traces = _refine([ps], [episode], cfg, keep_trace=True)
    return states[0], traces[0]


def predict(ps: PrototypeSet, episode: Episode, cfg: OstimConfig) -> PredictionSheet:
    """Softmax predictions for the episode's queries. The sheet reads the
    outlierness score from the outlier column when the variant has one,
    otherwise it is the negative maximum closed-set probability."""
    return PredictionSheet(softmax(logits(ps, episode.query_vectors, cfg.temperature)), ps.n_way)


def closed_set_entropy(sheet: PredictionSheet) -> np.ndarray:
    """Entropy of each query's distribution renormalized over the closed
    classes only. A diagnostic: it is not any variant's outlierness score."""
    head = sheet.probs[:, : sheet.n_closed]
    head = head / head.sum(axis=1, keepdims=True)
    return -_xlogx(head).sum(axis=1)
