"""Span tracing of the fsosr layers, installed from outside the package.

``Tracer.installed()`` swaps every module binding of each function in
``TRACED`` for a wrapper that records one span per call: name, start, end,
the enclosing span and the episode being evaluated (the request id).
``runner`` and ``ostim`` import functions by name, so every ``fsosr.*``
module attribute that is the original function gets the wrapper, not only
the defining module's. Spans stay in memory; ``summarize`` turns them into
the per-layer metrics and ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
import weakref
import zlib
from typing import NamedTuple

import numpy as np

TRACED = (
    ("fsosr.feature_store", "load_feature_store"),
    ("fsosr.feature_store", "base_mean"),
    ("fsosr.episodes", "sample_episode"),
    ("fsosr.transforms", "center_normalize"),
    ("fsosr.ostim", "init_prototypes"),
    ("fsosr.ostim", "loss_and_grad"),
    ("fsosr.ostim", "refine"),
    ("fsosr.ostim", "predict"),
    ("fsosr.baselines", "simpleshot_classify"),
    ("fsosr.baselines", "knn_outlier_score"),
    ("fsosr.metrics", "score_episode"),
    ("fsosr.metrics", "aggregate"),
    ("fsosr.runner", "run"),
    ("fsosr.runner", "evaluate_method"),
    ("fsosr.runner", "write_reports"),
    ("fsosr.runner", "episode_checksum"),
)

# Spans of these functions belong to the whole run, not to one episode.
_RUN_LEVEL = {
    "feature_store.load_feature_store",
    "feature_store.base_mean",
    "metrics.aggregate",
    "runner.run",
    "runner.write_reports",
}

# Every method gets its per-layer metric on every workload (0 when unused).
METHODS = ("ostim", "tim_closed", "explicit_dummy", "simpleshot", "knn", "strong_baseline")

# Percentiles tried for a tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None
    value: object  # per-call attribute: a count, or a content key


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _probe_sample_episode(tracer, args, kwargs):
    tracer._local.request = int(_arg(args, kwargs, 2, "episode_index"))
    return None


def _probe_center_normalize(tracer, args, kwargs):
    return (
        tracer.content_key(_arg(args, kwargs, 0, "z")),
        tracer.content_key(_arg(args, kwargs, 1, "mu")),
    )


def _probe_loss_and_grad(tracer, args, kwargs):
    """Matmul flops of one call, derived from shapes: the (n, D) x (D, K)
    logit products and the (K, n) x (n, D) prototype gradient, plus the two
    matrix-vector products of the free outlier vector when present."""
    ps, episode = _arg(args, kwargs, 0, "ps"), _arg(args, kwargs, 1, "episode")
    n = episode.support_vectors.shape[0] + episode.query_vectors.shape[0]
    k, d = ps.w.shape
    return 4 * n * d * k + (4 * n * d if ps.dummy is not None else 0)


def _probe_knn(tracer, args, kwargs):
    """Bytes of the (Q, S, D) float64 difference tensor."""
    episode = _arg(args, kwargs, 0, "episode")
    q = episode.query_vectors.shape[0]
    s, d = episode.support_vectors.shape
    return q * s * d * 8


_PROBES = {
    "episodes.sample_episode": _probe_sample_episode,
    "transforms.center_normalize": _probe_center_normalize,
    "ostim.loss_and_grad": _probe_loss_and_grad,
    "baselines.knn_outlier_score": _probe_knn,
}


class Tracer:
    """Records spans around the traced fsosr functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._content_keys: dict[int, tuple] = {}

    def content_key(self, a) -> tuple:
        """Content fingerprint of an array, hashed once per array object.

        fsosr never writes its inputs in place, so an object's key holds for
        its lifetime; the entry is dropped when the object is freed.
        """
        if not isinstance(a, np.ndarray):
            a = np.asarray(a)
        key = self._content_keys.get(id(a))
        if key is None:
            data = np.ascontiguousarray(a)
            key = (a.shape, a.dtype.str, zlib.crc32(data), zlib.adler32(data))
            self._content_keys[id(a)] = key
            weakref.finalize(a, self._content_keys.pop, id(a), None)
        return key

    def _wrap(self, name: str, fn):
        tracer = self
        probe = _PROBES.get(name)
        run_level = name in _RUN_LEVEL
        per_method = name == "runner.evaluate_method"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            if run_level:
                local.request = None
            value = probe(tracer, args, kwargs) if probe is not None else None
            label = f"{name}.{_arg(args, kwargs, 0, 'method')}" if per_method else name
            sid = next(tracer._ids)
            # A span opened on a pool thread has no local parent: it belongs
            # to the run that started the pool.
            parent = stack[-1] if stack else tracer._root
            is_root = not stack and tracer._root is None
            if is_root:
                tracer._root = sid
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append(
                    Span(sid, label, start, end, parent, getattr(local, "request", None), value)
                )

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "fsosr" or n.startswith("fsosr.")]
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{attr}", original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ns(spans) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start_ns, sp.end_ns))
    return {
        sp.id: (sp.end_ns - sp.start_ns) - covered_ns(sp.start_ns, sp.end_ns, children.get(sp.id, ()))
        for sp in spans
    }


def _rank(pct: float, n: int) -> int:
    """1-based nearest-rank position of a percentile among n samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(samples, min_beyond: int = 10) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ``min_beyond`` samples above
    its nearest-rank value, as (percentile, value); None if even the median
    has fewer."""
    xs = sorted(samples)
    best = None
    for pct in TAIL_LADDER:
        rank = _rank(pct, len(xs))
        if len(xs) - rank >= min_beyond:
            best = (pct, xs[rank - 1])
    return best


def root_ids(spans) -> dict[int, int]:
    """Span id -> id of the outermost span it ran under (itself if none)."""
    parent = {sp.id: sp.parent for sp in spans}
    roots: dict[int, int] = {}
    for sid in parent:
        chain = []
        cur = sid
        while cur not in roots and parent.get(cur) is not None:
            chain.append(cur)
            cur = parent[cur]
        root = roots.get(cur, cur)
        for link in chain + [cur]:
            roots[link] = root
    return roots


def unique_fraction(keys) -> float:
    """Distinct keys per key seen; 0 when there are none."""
    keys = list(keys)
    return len(set(keys)) / len(keys) if keys else 0.0


def summarize(spans, n_episodes: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``n_episodes`` traced episodes.

    Counts, busy and self times of the episode path are per episode; the
    store-level figures are medians per call.
    """
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    selfs = self_times_ns(spans)
    roots = root_ids(spans)

    def durations(name):
        return [(sp.end_ns - sp.start_ns) / 1e9 for sp in by_name.get(name, ())]

    def per_episode(x):
        return x / n_episodes

    def busy(name):
        return per_episode(sum(durations(name)))

    def calls(name):
        return per_episode(len(by_name.get(name, ())))

    def self_s(name):
        return per_episode(sum(selfs[sp.id] for sp in by_name.get(name, ())) / 1e9)

    def median_call(name):
        d = durations(name)
        return statistics.median(d) if d else 0.0

    out: dict[str, float] = {}

    def timing(prefix, name, scale):
        """Median and tail of per-call durations, with the tail's percentile
        and the sample count it rests on."""
        d = sorted(x * scale for x in durations(name))
        tail = tail_percentile(d)
        out[f"{prefix}_p50"] = d[_rank(50.0, len(d)) - 1] if d else 0.0
        out[f"{prefix}_tail"] = tail[1] if tail else 0.0
        out[f"{name}.tail_pct"] = tail[0] if tail else 0.0
        out[f"{name}.samples"] = float(len(d))

    out["feature_store.load_feature_store.busy_s"] = median_call("feature_store.load_feature_store")
    out["feature_store.base_mean.busy_s"] = median_call("feature_store.base_mean")

    name = "episodes.sample_episode"
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.busy_s"] = busy(name)
    timing(f"{name}.ms", name, 1e3)

    name = "transforms.center_normalize"
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.busy_s"] = busy(name)
    # Distinct (input, mu) pairs within each runner.run call, per call.
    out[f"{name}.unique_frac"] = unique_fraction(
        (roots[sp.id], sp.value) for sp in by_name.get(name, ())
    )

    name = "ostim.loss_and_grad"
    out[f"{name}.calls"] = calls(name)
    timing(f"{name}.us", name, 1e6)
    out[f"{name}.flops_computed"] = per_episode(sum(sp.value for sp in by_name.get(name, ())))

    name = "ostim.refine"
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.self_s"] = self_s(name)
    out["ostim.init_prototypes.busy_s"] = busy("ostim.init_prototypes")
    out["ostim.predict.busy_s"] = busy("ostim.predict")

    name = "baselines.simpleshot_classify"
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.busy_s"] = busy(name)
    name = "baselines.knn_outlier_score"
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.busy_s"] = busy(name)
    out[f"{name}.bytes_computed"] = per_episode(sum(sp.value for sp in by_name.get(name, ())))

    out["metrics.score_episode.calls"] = calls("metrics.score_episode")
    out["metrics.score_episode.busy_s"] = busy("metrics.score_episode")
    out["metrics.aggregate.busy_s"] = busy("metrics.aggregate")

    evaluate_busy = 0.0
    for method in METHODS:
        value = busy(f"runner.evaluate_method.{method}")
        out[f"runner.evaluate_method.{method}.busy_s"] = value
        evaluate_busy += value
    out["runner.write_reports.busy_s"] = busy("runner.write_reports")
    out["runner.episode_checksum.busy_s"] = busy("runner.episode_checksum")
    out["runner.self_s"] = self_s("runner.run")
    run_wall = busy("runner.run")
    out["runner.concurrency"] = evaluate_busy / run_wall if run_wall else 0.0
    return out


def write_spans(spans, path) -> None:
    """One JSON array per line: id, name, start_ns, end_ns, parent, request."""
    with open(path, "w") as fh:
        for sp in spans:
            fh.write(json.dumps([sp.id, sp.name, sp.start_ns, sp.end_ns, sp.parent, sp.request]))
            fh.write("\n")
