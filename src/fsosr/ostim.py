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

The unit of work is a chunk of E same-shape episodes, read from its
``NormalizedChunk`` alone, and ``PrototypeSet`` holds the state of all E:
``init_prototypes`` → ``refine`` → ``predict``, which returns one
(E, n_query, C) sheet; a single episode is the chunk with E = 1. A step
keeps its logits, probabilities and logit gradients as (E, C, N) arrays,
with the C = K or K + 1 logit columns before the N = support + query rows
of each episode, so that both matmuls read the normalized rows as they are:
the logits are ``(tau v) @ rows^T`` and the prototype and dummy gradients
``g @ rows``. Every operation is per episode, so an episode's result does
not depend on its chunk, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DivergenceError, integer, number
from .predictions import PredictionSheet
from .transforms import NormalizedChunk, check_centering, class_means, unit_rows
# Unused; bench/tests/test_bench_tracing.py asserts the tracer patches this binding.
from .transforms import center_normalize  # noqa: F401

_TINY = np.finfo(np.float64).smallest_subnormal


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
        if self.variant not in tuple(Variant):
            raise ConfigError(f"unknown variant {self.variant!r}; expected one of "
                              f"{tuple(v.value for v in Variant)}")
        object.__setattr__(self, "variant", Variant(self.variant))
        check_centering(self.centering)
        object.__setattr__(self, "n_steps", integer(self.n_steps, "n_steps"))
        # Comparisons with NaN are false, so these refuse NaN as well as inf.
        if not 0 <= number(self.alpha, "alpha", finite=False) < math.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.n_steps < 0:
            raise ConfigError(f"n_steps must be >= 0, got {self.n_steps}")
        if not 0 < number(self.learning_rate, "learning_rate", finite=False) < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < number(self.temperature, "temperature", finite=False) < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")


@dataclass(frozen=True)
class PrototypeSet:
    """Optimization state of a chunk of E episodes: K prototypes each ``w``
    (E, K, D), the frozen centering vectors ``mu`` (E, D), and for the
    explicit_dummy variant the free outlier vectors ``dummy`` (E, D)."""

    w: np.ndarray
    mu: np.ndarray
    variant: Variant
    dummy: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 3 or w.shape[1] < 2:
            raise ValueError(f"need (E, K, D) prototypes with K >= 2, got shape {w.shape}")
        if self.variant is Variant.EXPLICIT_DUMMY and self.dummy is None:
            raise ValueError("explicit_dummy variant requires a dummy vector")
        if self.variant is not Variant.EXPLICIT_DUMMY and self.dummy is not None:
            raise ValueError(f"variant {self.variant.value} takes no dummy vector")
        object.__setattr__(self, "w", w)
        vectors = ("mu",) if self.dummy is None else ("mu", "dummy")
        for name in vectors:
            x = np.asarray(getattr(self, name), dtype=np.float64)
            if x.shape != (w.shape[0], w.shape[2]):
                raise ValueError(f"{name} of shape {x.shape} does not fit prototypes of shape "
                                 f"{w.shape}: it must be (E, D)")
            object.__setattr__(self, name, x)
        if not all(np.isfinite(getattr(self, name)).all() for name in ("w", *vectors)):
            raise ValueError("prototypes, centering and dummy vectors must be finite")

    @property
    def n_way(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    marginal_entropy: float
    conditional_entropy: float
    total: float


def _xlogx(p: np.ndarray) -> np.ndarray:
    """``p log p``, with the log floored at the smallest subnormal as the
    gradient's logs are, so ``p = 0`` gives 0 and every ``p > 0`` its value."""
    return p * np.log(np.maximum(p, _TINY))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``: ``exp(x - max) / sum``."""
    logits = np.asarray(logits, dtype=np.float64)
    # A shift can overflow only to -inf, whose exp is the exact 0 it stands for.
    with np.errstate(over="ignore"):
        shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def init_prototypes(
    view: NormalizedChunk, variant: Variant | str = Variant.IMPLICIT
) -> PrototypeSet:
    """Prototypes start at the per-class means of the raw support vectors.

    For the explicit_dummy variant the outlier vector starts at the implicit
    value, the negated average of the normalized prototypes, so its logits
    coincide with the implicit variant's before any refinement.
    """
    variant = Variant(variant)
    w = class_means(view.raw_support, view.support_labels)
    dummy = None
    if variant is Variant.EXPLICIT_DUMMY:
        dummy = -unit_rows(w - view.mu[:, None], "prototype")[0].mean(axis=1)
    return PrototypeSet(w, view.mu, variant, dummy)


class _Inputs(NamedTuple):
    """Frozen inputs of E same-shape episodes: ``rows`` (E, N, D) holds each
    episode's center-normalized support rows, then its query rows, and
    ``label_index`` (E, n_support) the flat index of each support row's label
    in an (E, C, N) array; ``mu`` and ``variant`` are the state's."""

    rows: np.ndarray
    n_support: int
    label_index: np.ndarray
    mu: np.ndarray
    variant: Variant


def _n_cols(variant: Variant, k_way: int) -> int:
    """C, the logit count: K, plus the outlier column of the two open variants."""
    return k_way + (variant is not Variant.CLOSED)


def _inputs(ps: PrototypeSet, view: NormalizedChunk) -> _Inputs:
    """The kernel's inputs from the chunk ``view``, for ``ps``'s logit count."""
    rows = np.concatenate([view.support, view.query], axis=1)
    n_episodes, n_rows = rows.shape[:2]
    n_support = view.support.shape[1]
    label_index = (
        (np.arange(n_episodes)[:, None] * _n_cols(ps.variant, ps.n_way) + view.support_labels)
        * n_rows + np.arange(n_support)
    )
    return _Inputs(rows, n_support, label_index, ps.mu, ps.variant)


def _logits(
    rows: np.ndarray, v: np.ndarray, dummy: np.ndarray | None, variant: Variant,
    temperature: float,
) -> np.ndarray:
    """Logits (E, C, n) of normalized rows (E, n, D) against directions ``v``
    (E, K, D) and, for explicit_dummy, the dummy vectors (E, D). The implicit
    outlier logit is the negated mean of the K inlier logits."""
    k_way = v.shape[1]
    directions = v if dummy is None else np.concatenate([v, dummy[:, None]], axis=1)
    out = np.empty((len(v), _n_cols(variant, k_way), rows.shape[1]))
    np.matmul(temperature * directions, rows.swapaxes(-1, -2), out=out[:, :directions.shape[1]])
    if variant is Variant.IMPLICIT:
        np.divide(np.add.reduce(out[:, :k_way], axis=1), -k_way, out=out[:, k_way])
    return out


def logits(ps: PrototypeSet, rows: np.ndarray, temperature: float = 10.0) -> np.ndarray:
    """Logits (E, C, n) of rows (E, n, D), center-normalized at ``ps.mu``."""
    v = unit_rows(ps.w - ps.mu[:, None], "prototype")[0]
    return _logits(rows, v, ps.dummy, ps.variant, temperature)


def _forward_and_grad(
    inputs: _Inputs, w: np.ndarray, dummy: np.ndarray | None, cfg: OstimConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One refinement step at prototypes ``w`` and dummy vectors ``dummy``:
    the (E, C, N) probabilities of every row and the gradients w.r.t. the
    prototypes (E, K, D) and the dummy vectors (E, D).

    The gradient flows through the softmax, both entropy terms, and the
    prototype normalization; inputs and the centering vector are constants.
    The logit gradient ``g`` is (E, C, N), as the probabilities are.
    """
    v, radii = unit_rows(w - inputs.mu[:, None], "prototype")
    probs = softmax(_logits(inputs.rows, v, dummy, inputs.variant, cfg.temperature), axis=1)
    k_way = v.shape[1]
    n_s = inputs.n_support
    n_q = probs.shape[2] - n_s

    # d(loss)/d(logit), support rows: softmax cross-entropy.
    g = probs.copy()
    g.reshape(-1)[inputs.label_index] -= 1.0
    g[..., :n_s] /= n_s

    # Query rows: the marginal-entropy and conditional-entropy terms. With
    # s = alpha log p - log p_hat, both are p (E_p[s] - s) / n_query. The
    # logs are floored at the smallest subnormal, which changes no positive
    # probability, so a probability that underflows to 0 adds 0, not 0 * inf.
    p_q = probs[..., n_s:]
    p_hat = np.add.reduce(p_q, axis=2, keepdims=True) / n_q  # (E, C, 1)
    s = cfg.alpha * np.log(np.maximum(p_q, _TINY)) - np.log(np.maximum(p_hat, _TINY))
    g[..., n_s:] = p_q * (np.add.reduce(p_q * s, axis=1, keepdims=True) - s) / n_q

    # One matmul for every logit column's direction; the implicit outlier
    # column's direction is the negated mean of the K prototype directions.
    grad = cfg.temperature * (g @ inputs.rows)  # (E, C, D)
    v_grad, dummy_grad = grad[:, :k_way], None
    if inputs.variant is Variant.IMPLICIT:
        v_grad = v_grad - grad[:, k_way:] / k_way
    elif inputs.variant is Variant.EXPLICIT_DUMMY:
        dummy_grad = grad[:, k_way]
    w_grad = (v_grad - v * (v_grad * v).sum(axis=-1, keepdims=True)) / radii
    return probs, w_grad, dummy_grad


def loss_and_grad(
    ps: PrototypeSet, view: NormalizedChunk, cfg: OstimConfig
) -> tuple[list[LossBreakdown], np.ndarray, np.ndarray | None]:
    """Each episode's objective split into its three terms, plus the analytic
    gradients w.r.t. the prototypes (E, K, D) and the dummy vectors (E, D).

    ``total = ce - marginal_entropy + alpha * conditional_entropy``; support
    labels are one-hot over the closed classes (the outlier column, when
    present, carries zero target mass).
    """
    inputs = _inputs(ps, view)
    probs, w_grad, dummy_grad = _forward_and_grad(inputs, ps.w, ps.dummy, cfg)
    p_query = probs[..., inputs.n_support:]
    n_query = p_query.shape[2]
    ce = -np.log(probs.take(inputs.label_index)).mean(axis=-1)
    marginal = -_xlogx(np.add.reduce(p_query, axis=2) / n_query).sum(axis=-1)
    conditional = -_xlogx(p_query).sum(axis=(1, 2)) / n_query
    total = ce - marginal + cfg.alpha * conditional
    breakdowns = [
        LossBreakdown(float(c), float(m), float(h), float(t))
        for c, m, h, t in zip(ce, marginal, conditional, total)
    ]
    return breakdowns, w_grad, dummy_grad


def refine(ps: PrototypeSet, view: NormalizedChunk, cfg: OstimConfig) -> PrototypeSet:
    """Run ``cfg.n_steps`` full-batch gradient-descent steps on every episode
    of the chunk at once. Refining t steps and then s more gives the bits of
    t + s steps, so the loss at step t is ``loss_and_grad`` on the state
    refined for t steps.

    Non-finite losses or gradients abort with the step index rather than
    silently propagating NaNs. An episode that fails in a chunk fails alone
    with the same error. A prototype at its centering point is named with
    its episode when the chunk holds more than one; any other failure
    raises the plain error of some failing episode without saying which,
    so a caller that needs to know refines the episodes one at a time.
    """
    if cfg.n_steps == 0:
        return ps
    inputs = _inputs(ps, view)
    w, dummy = ps.w, ps.dummy
    # numpy's warnings are silenced: a step that is not finite raises below,
    # with the run's own message.
    with np.errstate(all="ignore"):
        for step in range(cfg.n_steps):
            probs, w_grad, dummy_grad = _forward_and_grad(inputs, w, dummy, cfg)
            # The loss is finite exactly when every support row gives its label
            # a nonzero probability: the gradients are finite only if all
            # probabilities are, and then both entropy terms are too.
            grads = [w_grad] if dummy_grad is None else [w_grad, dummy_grad]
            if not ((probs.take(inputs.label_index) > 0).all()
                    and all(np.isfinite(g).all() for g in grads)):
                raise DivergenceError(f"non-finite loss or gradient at step {step}")
            w = w - cfg.learning_rate * w_grad
            if dummy_grad is not None:
                dummy = dummy - cfg.learning_rate * dummy_grad
    if not (np.isfinite(w).all() and (dummy is None or np.isfinite(dummy).all())):
        raise DivergenceError(f"the update of step {cfg.n_steps - 1} overflows")
    return PrototypeSet(w, ps.mu, ps.variant, dummy)


def predict(ps: PrototypeSet, view: NormalizedChunk, cfg: OstimConfig) -> PredictionSheet:
    """Softmax predictions for the chunk's queries, as one (E, n_query, C)
    sheet. The sheet reads the outlierness score from the outlier column
    when the variant has one, otherwise it is the negative maximum
    closed-set probability."""
    probs = softmax(logits(ps, view.query, cfg.temperature), axis=1).swapaxes(1, 2)
    return PredictionSheet(probs, ps.n_way)
