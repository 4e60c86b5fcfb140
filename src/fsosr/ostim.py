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
(E, n_query, C) sheet. Every product is per episode, so an episode's result
does not depend on its chunk; the one-episode functions call the same code.

The kernel keeps a step's logits, probabilities and logit gradients
class-major: contiguous (C, E, N) arrays with the C = K or K + 1 logit
columns outermost and the N = support + query rows of each episode
innermost. A sum or maximum over the classes is then a few elementwise
passes over (E, N) blocks instead of one short reduction per row, which is
what bounded a step on small episodes. The results are those of the
row-major (E, N, C) computation bit for bit, because every floating-point
operation keeps its order:

* each matmul reads and writes the row-major (E, n, .) layout, through
  transposed copies in and out, and the support and query rows keep a
  logit matmul each, since a matmul's bits depend on its row count;
* the mean over query rows adds them in sequence, from a query-major copy;
* ``_class_sum`` adds the classes in numpy's pairwise order for a
  contiguous last axis.

Elementwise operations have no order to keep. The public ``softmax`` runs
the same class-major code on a copy of its input.
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


def _class_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order numpy uses for a contiguous last axis:
    in sequence below 8 terms, with 8 interleaved accumulators combined
    pairwise up to 128 terms, and split in halves (on a multiple of 8) above
    that. So ``_class_sum`` of a class-major copy equals ``x.sum(axis=-1)``
    of the row-major array bit for bit."""
    n = x.shape[0]
    if n < 8:
        return np.add.reduce(x, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _class_sum(x[:half]) + _class_sum(x[half:])
    tail = n - n % 8
    acc = np.add.reduce(x[:tail].reshape(tail // 8, 8, *x.shape[1:]), axis=0)
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in x[tail:]:
        total += row
    return total


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over axis 0 of class-major ``logits``, computed in place."""
    np.subtract(logits, np.maximum.reduce(logits, axis=0), out=logits)
    np.exp(logits, out=logits)
    return np.divide(logits, _class_sum(logits), out=logits)


def _rows(class_major: np.ndarray) -> np.ndarray:
    """The row-major (..., C) copy of a class-major (C, ...) array."""
    return np.ascontiguousarray(np.moveaxis(class_major, 0, -1))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, ``exp(x - max) / sum``, computed on a
    class-major copy."""
    logits = np.asarray(logits, dtype=np.float64)
    return _rows(_softmax(np.array(np.moveaxis(logits, -1, 0), order="C")))


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
    """Frozen inputs of E same-shape episodes, center-normalized at each
    episode's centering vector. ``support`` and ``query`` are views of
    ``rows``; ``label_index`` holds the flat index of each support row's
    label in a class-major (C, E, n_support + n_query) array. ``work`` holds
    the arrays of a step (see ``_work``)."""

    rows: np.ndarray  # (E, n_support + n_query, D)
    support: np.ndarray
    query: np.ndarray
    label_index: np.ndarray  # (E, n_support)
    work: dict[str, np.ndarray]


def _inputs(view: NormalizedChunk) -> _Inputs:
    """The kernel's inputs from the chunk ``view``."""
    rows = np.concatenate([view.support, view.query], axis=1)
    n_episodes, n_rows = rows.shape[:2]
    n_support = view.support.shape[1]
    label_index = (
        view.support_labels * (n_episodes * n_rows)
        + np.arange(n_episodes)[:, None] * n_rows
        + np.arange(n_support)
    )
    return _Inputs(rows, rows[:, :n_support], rows[:, n_support:], label_index, {})


def _work(work: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The array ``name`` of ``work``, made by a kernel call's first step and
    overwritten by each later one, so that a step allocates no array of the
    (C, E, N) size."""
    if name not in work or work[name].shape != shape:
        work[name] = np.empty(shape)
    return work[name]


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


def _logits(
    parts: Sequence[np.ndarray], v: np.ndarray, batch: _Batch, temperature: float,
    work: dict[str, np.ndarray],
) -> np.ndarray:
    """Class-major logits (C, E, n) of normalized row blocks ``parts``, each
    (E, n_i, D), against directions ``v``, the blocks in order along n. Each
    block keeps its own matmuls, whose bits depend on their row count, and
    their row-major results are copied in transposed. Both live in ``work``."""
    n_episodes, k_way = v.shape[:2]
    n_rows = sum(part.shape[1] for part in parts)
    n_cols = k_way + (batch.variant is not Variant.CLOSED)
    inlier = _work(work, "by_row", (n_episodes, n_rows, k_way))
    out = _work(work, "logits", (n_cols, n_episodes, n_rows))
    v_t = v.swapaxes(-1, -2)
    lo = 0
    for part in parts:
        hi = lo + part.shape[1]
        np.matmul(part, v_t, out=inlier[:, lo:hi])
        if batch.variant is Variant.EXPLICIT_DUMMY:
            extra = (part @ batch.dummy[..., None])[..., 0]
            np.multiply(temperature, extra, out=out[k_way, :, lo:hi])
        lo = hi
    np.multiply(temperature, inlier.transpose(2, 0, 1), out=out[:k_way])
    if batch.variant is Variant.IMPLICIT:
        mean = _class_sum(out[:k_way])
        np.negative(np.divide(mean, k_way, out=mean), out=out[k_way])
    return out


def _forward(
    inputs: _Inputs, batch: _Batch, temperature: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class-major probabilities (C, E, N) of every row, with the prototype
    directions and radii they come from. The probabilities are a ``work``
    array, which the next step overwrites."""
    v, radii = _directions(batch.w, batch.mu)
    parts = (inputs.support, inputs.query)
    return _softmax(_logits(parts, v, batch, temperature, inputs.work)), v, radii


def _loss_terms(probs: np.ndarray, inputs: _Inputs, alpha: float) -> list[LossBreakdown]:
    """One breakdown per episode, from a row-major copy of the query rows."""
    p_query = _rows(probs[..., inputs.support.shape[1]:])
    n_episodes, n_query = p_query.shape[:2]
    ce = -np.log(probs.take(inputs.label_index)).mean(axis=-1)
    marginal = -_xlogx(p_query.mean(axis=1)).sum(axis=-1)
    conditional = -_xlogx(p_query).reshape(n_episodes, -1).sum(axis=-1) / n_query
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
    The logit gradient ``g`` is class-major (C, E, N), as ``probs`` is.
    """
    tau = cfg.temperature
    k_way = v.shape[1]
    n_cols, n_episodes = probs.shape[:2]
    n_s, n_q = inputs.support.shape[1], inputs.query.shape[1]
    work = inputs.work

    # d(loss)/d(logit), support rows: softmax cross-entropy.
    g = _work(work, "g", probs.shape)
    np.copyto(g[..., :n_s], probs[..., :n_s])
    g.reshape(-1)[inputs.label_index] -= 1.0
    g[..., :n_s] /= n_s

    # Query rows: marginal-entropy and conditional-entropy terms. The mean
    # over queries adds them in order, and the dot of each row with log p_hat
    # is a matmul of (E, n_q, C) rows; both read a query-major copy.
    query_shape = (n_cols, n_episodes, n_q)
    p_q = _work(work, "p_q", query_shape)
    np.copyto(p_q, probs[..., n_s:])
    by_query = _work(work, "by_query", query_shape[::-1])  # (n_q, E, C)
    np.copyto(by_query, p_q.T)
    log_p_hat = np.log(np.add.reduce(by_query, axis=0) / n_q)  # (E, C)
    row_dot = (by_query.swapaxes(0, 1) @ log_p_hat[..., None])[..., 0]  # (E, n_q)
    g_m = np.subtract(log_p_hat.T[..., None], row_dot, out=_work(work, "g_m", query_shape))
    g_m *= p_q
    g_m /= n_q
    log_p_q = np.log(p_q, out=_work(work, "log_p_q", query_shape))
    g_c = np.multiply(p_q, log_p_q, out=_work(work, "g_c", query_shape))
    log_p_q -= _class_sum(g_c)
    np.multiply(-(cfg.alpha / n_q), p_q, out=g_c)
    g_c *= log_p_q
    np.add(g_m, g_c, out=g[..., n_s:])

    dummy_grad = None
    if batch.variant is Variant.IMPLICIT:
        g_sim = np.subtract(g[:k_way], g[k_way] / k_way, out=g[:k_way])
    else:
        g_sim = g[:k_way]
    if batch.variant is Variant.EXPLICIT_DUMMY:
        u_t = inputs.rows.swapaxes(-1, -2)
        dummy_grad = (u_t @ (tau * g[k_way])[..., None])[..., 0]

    # The prototype gradient's matmul reads a row-major (E, N, K) copy.
    g_sim *= tau
    g_sim_rows = _work(work, "by_row", inputs.rows.shape[:2] + (k_way,))
    np.copyto(g_sim_rows, g_sim.transpose(1, 2, 0))
    v_grad = g_sim_rows.swapaxes(-1, -2) @ inputs.rows
    w_grad = (v_grad - v * (v_grad * v).sum(axis=-1, keepdims=True)) / radii[..., None]
    return w_grad, dummy_grad


def _forward_and_grad(
    inputs: _Inputs, batch: _Batch, cfg: OstimConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One refinement step: the class-major probabilities and the gradients."""
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
    return _unbatch(_refine(batch, _inputs(normalize_chunk(episodes, batch.mu)), cfg))


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
    batch = _refine(batch, _inputs(view), cfg)
    v = _directions(batch.w, batch.mu)[0]
    probs = _rows(_softmax(_logits((view.query,), v, batch, cfg.temperature, {})))
    return PredictionSheet(probs, batch.w.shape[1])


def logits(ps: PrototypeSet, z: np.ndarray, temperature: float = 10.0) -> np.ndarray:
    """Logit vector(s) for raw feature input ``z`` (single vector or batch)."""
    z = np.asarray(z, dtype=np.float64)
    u = center_normalize(np.atleast_2d(z), ps.mu)
    batch = _batch([ps])
    v = _directions(batch.w, batch.mu)[0]
    out = _rows(_logits((u[None],), v, batch, temperature, {}))[0]
    return out[0] if z.ndim == 1 else out


def compute_loss(ps: PrototypeSet, episode: Episode, cfg: OstimConfig) -> LossBreakdown:
    """Objective value split into its three terms.

    ``total = ce - marginal_entropy + alpha * conditional_entropy``; support
    labels are one-hot over the closed classes (the outlier column, when
    present, carries zero target mass).
    """
    batch = _batch([ps])
    inputs = _inputs(normalize_chunk([episode], batch.mu))
    return _loss_terms(_forward(inputs, batch, cfg.temperature)[0], inputs, cfg.alpha)[0]


def loss_and_grad(
    ps: PrototypeSet, episode: Episode, cfg: OstimConfig
) -> tuple[LossBreakdown, np.ndarray, np.ndarray | None]:
    """Loss plus analytic gradients w.r.t. the prototypes (and dummy vector)."""
    batch = _batch([ps])
    inputs = _inputs(normalize_chunk([episode], batch.mu))
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
    batch = _refine(batch, _inputs(normalize_chunk([episode], batch.mu)), cfg, [trace])
    return _unbatch(batch)[0], trace


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
