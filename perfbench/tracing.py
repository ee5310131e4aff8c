"""Span recorder that wraps the program's public functions from outside.

``Tracer.install`` replaces module attributes of ``momentprop.network``,
``momentprop.mc`` and ``momentprop.training`` with thin wrappers; nothing
under ``src/`` changes.  Each wrapped call records a span (name, start, end,
parent index) in memory while the tracer is active.  ``Tracer.restore``
puts the original functions back.

Work counts (Gaussian CDF evaluations, GEMM flops, zero-variance calls) are
computed from array shapes, and from the same zero-variance tests the layer
code makes, only while ``counting`` is set; the timed rounds run with it
off so the counting never lands inside a measured span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from momentprop import layers, mc, network, training

DET_LAYERS = ("conv2d_det", "maxpool2d_det", "relu_det", "dense_det", "dropout_det", "softmax_det")
MP_LAYERS = ("conv2d_mp", "maxpool2d_mp", "relu_mp", "dense_mp", "dropout_mp", "softmax_mp")
MC_LAYERS = ("conv2d_det", "maxpool2d_det", "relu_det", "dense_det", "dropout_sample", "softmax_det")


def _conv_flops(spec, out):
    b, oc, oh, ow = out.shape if out.ndim == 4 else (1,) + out.shape
    return 2 * b * oh * ow * oc * spec.kernel_mat.shape[1]


def _dense_flops(spec, out):
    return 2 * (out.size // spec.out_dim) * spec.in_dim * spec.out_dim


def _count_det(tracer, name, args, out):
    if name == "dense_det":
        tracer.add("gemm_flops", _dense_flops(args[1], out))
    elif name == "conv2d_det":
        tracer.add("gemm_flops", _conv_flops(args[1], out))


def _count_mp(tracer, name, args, out):
    """Mirror the work each mp op does, including its zero-variance branches."""
    v = args[0].variance
    zero = not v.any()
    tracer.add("zero_variance_calls", int(zero))
    if name == "dense_mp":
        tracer.add("gemm_flops", 2 * _dense_flops(args[1], out.expectation))
    elif name == "conv2d_mp":
        tracer.add("gemm_flops", (1 if zero else 2) * _conv_flops(args[1], out.expectation))
    elif name == "relu_mp":
        # the whole array is evaluated unless every entry is below EPS_VAR
        tracer.add("cdf_evals", 0 if bool((v < layers.EPS_VAR).all()) else v.size)
    elif name == "maxpool2d_mp":
        n = args[1].size
        # one CDF per output entry per pair step; none when the input is a point
        tracer.add("cdf_evals", 0 if zero else (n * n - 1) * out.expectation.size)
    elif name == "softmax_mp":
        k = v.shape[-1]
        var_sum = v[..., :, None] + v[..., None, :]
        tracer.add("cdf_evals", 0 if bool((var_sum < layers.EPS_VAR).all()) else (v.size // k) * k * k)


class Tracer:
    """In-memory spans plus per-root work counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.active = False
        self.counting = False
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, counter: str, value) -> None:
        """Add to a counter of the root span the current call runs under."""
        root = self.spans[self._stack[0]][0] if self._stack else ""
        self.counts[(root, counter)] += value

    # -- installation ------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if tracer.counting and count is not None:
                count(tracer, attr, args, out)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def install(self) -> None:
        for attr in DET_LAYERS:
            self._wrap(network, attr, f"layers.{attr}", _count_det)
        for attr in MP_LAYERS:
            self._wrap(network, attr, f"layers.{attr}", _count_mp)
        self._wrap(mc, "dropout_sample", "layers.dropout_sample")
        self._wrap(mc, "sample_stream", "mc.sample_stream")
        self._wrap(mc, "mc_forward", "mc.mc_forward")
        self._wrap(network, "forward_det", "network.forward_det")
        self._wrap(network, "forward_mp", "network.forward_mp")
        self._wrap(training, "forward_mp", "network.forward_mp")
        self._wrap(network, "save_model", "network.save_model")
        self._wrap(network, "load_model", "network.load_model")
        self._wrap(training, "train", "training.train")
        self._wrap(training, "grads_with_params", "training.grads_with_params")
        self._wrap(training, "draw_masks_for", "training.draw_masks_for")

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def write(self, path, scale) -> None:
        """Write the spans as recorded, with each scaled root's factor."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "root_scale": scale}, fh)

    def summary(self, scale) -> "SpanSummary":
        return SpanSummary(self.spans, scale)


class SpanSummary:
    """Busy and self time per (root span name, span name).  ``scale`` maps a
    root span's index to a factor applied to it and every span under it
    (the factor to the reference host speed); other roots keep raw times."""

    def __init__(self, spans, scale):
        root_of = []
        for i, (_, _, _, parent) in enumerate(spans):
            root_of.append(i if parent < 0 else root_of[parent])
        dur = [(end - start) * scale.get(root_of[i], 1.0) for i, (_, start, end, _) in enumerate(spans)]
        child_time = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += dur[i]
        self.busy: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.roots: dict[str, int] = defaultdict(int)
        for i, (name, _, _, parent) in enumerate(spans):
            key = (spans[root_of[i]][0], name)
            self.busy[key] += dur[i]
            self.self_time[key] += dur[i] - child_time[i]
            self.calls[key] += 1
            self.roots[name] += parent < 0

    def per(self, table, root: str, name: str, denominator) -> float:
        if not denominator:
            return 0.0
        return table[(root, name)] / denominator
