"""Per-layer transforms, each implemented three ways over the same parameters:

* ``*_det``    deterministic inference (dropout rescales by its keep rate),
* ``*_sample`` stochastic inference (Bernoulli dropout masks drawn at call
  time from an explicitly passed generator; no hidden global RNG),
* ``*_mp``     single-pass propagation of expectation and variance.

Array layout is channels-first.  Every op accepts a single example at the
layer's natural rank or the same with one leading batch axis.  All functions
are pure given their spec; the only side channel is a thread-local counter of
negative-variance clamps kept for diagnostics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .moments import GaussianScalar, MomentTensor, std_normal_cdf

# Below this variance the moment formulas switch to their exact deterministic
# limits (they divide by sqrt(V) or sqrt(V1+V2) otherwise).
EPS_VAR = 1e-12

# The elementwise moment kernels relu_mp, dropout_mp and the max-pool pair
# fold run over consecutive blocks of this many output elements, so the
# temporaries of one block stay in cache instead of streaming whole arrays
# through memory once per operation.  Blocking only regroups elementwise
# work: on NaN-free input the results and clamp counts are bitwise those of
# one evaluation over the whole array.
BLOCK_SIZE = 8192

# Variance of the logistic-vs-probit matching constant: sigma(x) ~ Phi(x/sqrt(8/pi)).
_SIGMOID_SLOPE_VAR = 8.0 / np.pi

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_NEG_INV_SQRT2 = -1.0 / np.sqrt(2.0)


def _cdf_inplace(x):
    """0.5*erfc(-x/sqrt(2)) evaluated in place; consumes and returns x."""
    x *= _NEG_INV_SQRT2
    special.erfc(x, out=x)
    x *= 0.5
    return x


_clamp_state = threading.local()


def variance_clamp_count() -> int:
    """Number of negative-variance clamps since the last reset (per thread)."""
    return getattr(_clamp_state, "count", 0)


def reset_variance_clamp_count() -> None:
    _clamp_state.count = 0


def _record_clamps(n: int) -> None:
    if n:
        _clamp_state.count = getattr(_clamp_state, "count", 0) + int(n)


def _blockwise(op, mt: MomentTensor) -> MomentTensor:
    """Apply an elementwise kernel ``op(e, v) -> (e', v')`` to consecutive
    BLOCK_SIZE-element blocks of ``mt`` and reassemble the result in
    ``mt``'s shape."""
    e = mt.expectation.reshape(-1)
    v = mt.variance.reshape(-1)
    e_out = np.empty_like(e)
    v_out = np.empty_like(v)
    for start in range(0, e.size, BLOCK_SIZE):
        block = slice(start, start + BLOCK_SIZE)
        e_out[block], v_out[block] = op(e[block], v[block])
    return MomentTensor._unchecked(e_out.reshape(mt.shape), v_out.reshape(mt.shape))


def _param_array(values, name: str, ndim: int) -> np.ndarray:
    """Validate a parameter tensor and snap it to float32 storage width.

    Weights are persisted as 32-bit floats; keeping the in-memory values
    exactly representable in 32 bits makes save/load a bit-exact round trip.
    Computation still happens in float64.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} axes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr = np.ascontiguousarray(arr, dtype=np.float32).astype(np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DropoutSpec:
    """Dropout with drop probability ``rate`` in [0, 1).

    Non-inverted convention throughout: sampled masks are Bernoulli(1-rate)
    with no rescaling, and the deterministic forward multiplies activations
    by (1-rate) instead.
    """

    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate!r}")


@dataclass(frozen=True)
class DenseSpec:
    """Affine layer: out_i = sum_j w[j, i] * x_j + b[i]."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        object.__setattr__(self, "weights", _param_array(self.weights, "weights", 2))
        object.__setattr__(self, "bias", _param_array(self.bias, "bias", 1))
        if self.bias.shape[0] != self.weights.shape[1]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} != out_dim {self.weights.shape[1]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def weights_sq(self) -> np.ndarray:
        w2 = np.square(self.weights)
        w2.setflags(write=False)
        return w2


@dataclass(frozen=True)
class Conv2DSpec:
    """2-D convolution over channels-first inputs.

    kernel has shape (out_channels, in_channels, kh, kw); padding is "same"
    (output spatial size ceil(n/stride)) or "valid".
    """

    kernel: np.ndarray
    bias: np.ndarray  # (out_channels,)
    padding: str = "same"
    stride: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kernel", _param_array(self.kernel, "kernel", 4))
        object.__setattr__(self, "bias", _param_array(self.bias, "bias", 1))
        if self.bias.shape[0] != self.kernel.shape[0]:
            raise ValueError("bias length must equal out_channels")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got {self.padding!r}")
        if not (isinstance(self.stride, int) and self.stride >= 1):
            raise ValueError(f"stride must be a positive integer, got {self.stride!r}")

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def kernel_size(self) -> tuple[int, int]:
        return self.kernel.shape[2], self.kernel.shape[3]

    @cached_property
    def kernel_mat(self) -> np.ndarray:
        m = np.ascontiguousarray(self.kernel.reshape(self.kernel.shape[0], -1))
        m.setflags(write=False)
        return m

    @cached_property
    def kernel_sq_mat(self) -> np.ndarray:
        m = np.ascontiguousarray(np.square(self.kernel_mat))
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class MaxPool2DSpec:
    """Non-overlapping N x N max pooling (stride = N, valid cropping)."""

    size: int

    def __post_init__(self):
        if not (isinstance(self.size, int) and self.size >= 2):
            raise ValueError(f"pool size must be an integer >= 2, got {self.size!r}")


@dataclass(frozen=True)
class ReluSpec:
    pass


@dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclass(frozen=True)
class SoftmaxSpec:
    pass


LayerSpec = (
    DropoutSpec
    | DenseSpec
    | Conv2DSpec
    | MaxPool2DSpec
    | ReluSpec
    | FlattenSpec
    | SoftmaxSpec
)


def _with_batch(x, rank: int, what: str):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == rank:
        return x[None, ...], True
    if x.ndim == rank + 1:
        return x, False
    raise ValueError(f"{what} expects rank {rank} (or {rank + 1} batched), got shape {x.shape}")


def _unbatch(x, squeeze: bool):
    return x[0] if squeeze else x


# ---------------------------------------------------------------------------
# dropout


def dropout_det(x, spec: DropoutSpec):
    """Deterministic dropout: rescale by the keep rate (non-inverted style)."""
    return np.asarray(x, dtype=np.float64) * (1.0 - spec.rate)


def dropout_sample(x, spec: DropoutSpec, rng: np.random.Generator):
    """Multiply each node by an independent Bernoulli(1-rate) draw, unscaled."""
    x = np.asarray(x, dtype=np.float64)
    mask = rng.random(x.shape) >= spec.rate
    return x * mask


def dropout_mp(mt: MomentTensor, spec: DropoutSpec) -> MomentTensor:
    """Exact moments of Bernoulli masking via the independent-product rule."""
    p = spec.rate
    keep = 1.0 - p
    pq = p * keep
    e, v = mt.expectation, mt.variance
    e_out = e * keep
    v_out = np.empty(e.shape)
    if e.size <= BLOCK_SIZE:
        # one block: skip the block loop (it costs the one-example MLP's mp
        # forward about 7%)
        _dropout_variance(e, v, pq, keep, v_out)
        return MomentTensor._unchecked(e_out, v_out)
    # block by block, so the V term's temporary never spans the whole array
    e_flat, v_flat, out_flat = e.reshape(-1), v.reshape(-1), v_out.reshape(-1)
    for start in range(0, e.size, BLOCK_SIZE):
        block = slice(start, start + BLOCK_SIZE)
        _dropout_variance(e_flat[block], v_flat[block], pq, keep, out_flat[block])
    return MomentTensor._unchecked(e_out, v_out)


def _dropout_variance(e, v, pq, keep, out):
    """V*pq + V*keep^2 + E^2*pq, assembled in ``out``."""
    np.square(e, out=out)
    out *= pq
    out += v * (pq + keep * keep)


# ---------------------------------------------------------------------------
# dense


def dense_det(x, spec: DenseSpec):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != spec.in_dim:
        raise ValueError(f"dense expects {spec.in_dim} inputs, got shape {x.shape}")
    return x @ spec.weights + spec.bias


def dense_mp(mt: MomentTensor, spec: DenseSpec) -> MomentTensor:
    """Affine moments: bias shifts the expectation only; weights are squared
    for the variance, assuming independent summands."""
    if mt.shape[-1] != spec.in_dim:
        raise ValueError(f"dense expects {spec.in_dim} inputs, got shape {mt.shape}")
    e_out = mt.expectation @ spec.weights + spec.bias
    v_out = mt.variance @ spec.weights_sq
    return MomentTensor._unchecked(e_out, v_out)


# ---------------------------------------------------------------------------
# convolution


def _conv_geometry(h, w, kh, kw, stride, padding):
    if padding == "same":
        oh = -(-h // stride)
        ow = -(-w // stride)
        ph = max((oh - 1) * stride + kh - h, 0)
        pw = max((ow - 1) * stride + kw - w, 0)
        pads = (ph // 2, ph - ph // 2, pw // 2, pw - pw // 2)
    else:  # valid
        if h < kh or w < kw:
            raise ValueError(f"input {h}x{w} smaller than kernel {kh}x{kw}")
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        pads = (0, 0, 0, 0)
    return oh, ow, pads


def _im2col(x, kh, kw, stride, pads):
    """(B, C, H, W) -> contiguous (B, C*kh*kw, OH*OW) patch matrix.

    Rows follow the (c, i, j) order of ``Conv2DSpec.kernel_mat``'s columns,
    so a convolution is one broadcast ``kernel_mat @ cols`` whose result is
    already channel-first.
    """
    pt, pb, pl, pr = pads
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    b, c, oh, ow = win.shape[:4]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _conv_cols(x, spec: Conv2DSpec):
    if x.shape[1] != spec.in_channels:
        raise ValueError(
            f"conv expects {spec.in_channels} input channels, got shape {x.shape}"
        )
    kh, kw = spec.kernel_size
    _, _, pads = _conv_geometry(x.shape[2], x.shape[3], kh, kw, spec.stride, spec.padding)
    return _im2col(x, kh, kw, spec.stride, pads)


def _conv_apply(cols, kmat, bias, oh, ow):
    """(OC, K) @ (B, K, OH*OW) -> (B, OC, OH, OW), plus the bias if given."""
    out = (kmat @ cols).reshape(cols.shape[0], kmat.shape[0], oh, ow)
    if bias is not None:
        out += bias[:, None, None]
    return out


def conv2d_det(x, spec: Conv2DSpec):
    xb, squeeze = _with_batch(x, 3, "conv2d")
    cols, oh, ow = _conv_cols(xb, spec)
    out = _conv_apply(cols, spec.kernel_mat, spec.bias, oh, ow)
    return _unbatch(out, squeeze)


def conv2d_mp(mt: MomentTensor, spec: Conv2DSpec) -> MomentTensor:
    """Convolve the expectation as usual; convolve the variance with the
    elementwise-squared kernel and no bias."""
    eb, squeeze = _with_batch(mt.expectation, 3, "conv2d")
    vb, _ = _with_batch(mt.variance, 3, "conv2d")
    ecols, oh, ow = _conv_cols(eb, spec)
    e_out = _conv_apply(ecols, spec.kernel_mat, spec.bias, oh, ow)
    del ecols  # free the expectation patches before building the variance's
    if not vb.any():
        v_out = np.zeros_like(e_out)
    else:
        vcols, _, _ = _conv_cols(vb, spec)
        v_out = _conv_apply(vcols, spec.kernel_sq_mat, None, oh, ow)
    return MomentTensor._unchecked(_unbatch(e_out, squeeze), _unbatch(v_out, squeeze))


# ---------------------------------------------------------------------------
# relu


def relu_det(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_mp(mt: MomentTensor) -> MomentTensor:
    """Rectified-Gaussian moments.

    With r = E/sqrt(V):  E' = E*Phi(r) + sqrt(V)*phi(r) and
    V' = (E^2+V)*Phi(r) + E*sqrt(V)*phi(r) - E'^2.  Below EPS_VAR the exact
    deterministic limit (max(E, 0), 0) is used; rounding can leave V' a hair
    negative, which is clamped to zero and counted.
    """
    if mt.expectation.size > BLOCK_SIZE:
        return _blockwise(_relu_arrays, mt)
    # one block: skip the block loop and its copies (they cost the
    # one-example MLP's mp forward about 8%)
    return MomentTensor._unchecked(*_relu_arrays(mt.expectation, mt.variance))


def _relu_arrays(e, v):
    det = None
    if v.size and float(v.min()) < EPS_VAR:
        det = v < EPS_VAR
        if det.all():
            return np.maximum(e, 0.0), np.zeros_like(e)
    any_det = det is not None
    v_safe = np.where(det, 1.0, v) if any_det else v
    s = np.sqrt(v_safe)
    r = e / s
    # s*phi(r), built in place
    spread = np.square(r)
    spread *= -0.5
    np.exp(spread, out=spread)
    spread *= s
    spread *= _INV_SQRT_2PI
    cdf = _cdf_inplace(r)  # consumes r
    e_out = e * cdf
    e_out += spread
    # (E^2+V)*Phi + E*s*phi - E'^2
    v_out = np.square(e)
    v_out += v_safe
    v_out *= cdf
    spread *= e
    v_out += spread
    v_out -= np.square(e_out)
    if any_det:
        e_out = np.where(det, np.maximum(e, 0.0), e_out)
        v_out = np.where(det, 0.0, v_out)
    _record_clamps(np.count_nonzero(v_out < 0.0))
    np.maximum(v_out, 0.0, out=v_out)
    return e_out, v_out


# ---------------------------------------------------------------------------
# max pooling


def _max_pair_arrays(e1, v1, e2, v2):
    """Moments of max(X1, X2) for independent Gaussians, elementwise.

    theta = sqrt(V1+V2); when theta < EPS_VAR both inputs are effectively
    deterministic and the exact limit (max of the means, variance of the
    argmax input) is returned instead.
    """
    t2 = v1 + v2
    deg = None
    if t2.size and float(t2.min()) < EPS_VAR * EPS_VAR:
        deg = t2 < EPS_VAR * EPS_VAR
        if deg.all():
            first = e1 >= e2
            return np.where(first, e1, e2), np.where(first, v1, v2)
    any_deg = deg is not None
    theta = np.sqrt(np.where(deg, 1.0, t2) if any_deg else t2, dtype=np.float64)
    diff = e1 - e2
    a = diff / theta
    # theta*phi(a), built in place
    spread = np.square(a)
    spread *= -0.5
    np.exp(spread, out=spread)
    spread *= theta
    spread *= _INV_SQRT_2PI
    cdf = _cdf_inplace(a)  # consumes a
    # e1*Phi(a) + e2*Phi(-a) via Phi(-a) = 1 - Phi(a); the ~1 ulp tail
    # rounding this introduces is far below the moment tolerances
    mean = diff * cdf
    mean += e2
    mean += spread
    hi = np.square(e1)
    hi += v1
    lo = np.square(e2)
    lo += v2
    hi -= lo
    hi *= cdf
    hi += lo
    spread *= e1 + e2
    hi += spread  # second raw moment
    hi -= np.square(mean)
    var = hi
    if any_deg:
        first = e1 >= e2
        mean = np.where(deg, np.where(first, e1, e2), mean)
        var = np.where(deg, np.where(first, v1, v2), var)
    _record_clamps(np.count_nonzero(var < 0.0))
    np.maximum(var, 0.0, out=var)
    return mean, var


def maxpool_pair(a: GaussianScalar, b: GaussianScalar) -> GaussianScalar:
    """Exact max-of-two-Gaussians moments for a single pair of nodes."""
    mean, var = _max_pair_arrays(
        np.array([a.mean]), np.array([a.variance]),
        np.array([b.mean]), np.array([b.variance]),
    )
    return GaussianScalar(float(mean[0]), float(var[0]))


def _pool_windows(x, n):
    """(B, C, H, W) -> (B, C, h, w, n*n) with row-major ordering inside each
    window; trailing rows/columns that do not fill a window are cropped."""
    b, c, h, w = x.shape
    hh, ww = (h // n) * n, (w // n) * n
    if hh == 0 or ww == 0:
        raise ValueError(f"spatial dims {h}x{w} too small for {n}x{n} pooling")
    x = x[:, :, :hh, :ww]
    x = x.reshape(b, c, hh // n, n, ww // n, n).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(x.reshape(b, c, hh // n, ww // n, n * n))


def _pool_view(x, n):
    """Copy-free window view (B, C, h, w, n, n); crops ragged edges."""
    b, c, h, w = x.shape
    hh, ww = (h // n) * n, (w // n) * n
    if hh == 0 or ww == 0:
        raise ValueError(f"spatial dims {h}x{w} too small for {n}x{n} pooling")
    return x[:, :, :hh, :ww].reshape(b, c, hh // n, n, ww // n, n)


def maxpool2d_det(x, spec: MaxPool2DSpec):
    xb, squeeze = _with_batch(x, 3, "maxpool2d")
    out = _pool_view(xb, spec.size).max(axis=(3, 5))
    return _unbatch(out, squeeze)


def maxpool2d_mp(mt: MomentTensor, spec: MaxPool2DSpec) -> MomentTensor:
    """Fold the two-Gaussian max left-to-right across each window.

    The fold order is fixed (row-major within the window); the result is
    exact for 2-element reductions and an approximation beyond that because
    intermediate maxima are treated as Gaussian again.  That approximation
    understates the variance: by 4.4% on an all-equal 2x2 window of N(0, 1)
    inputs, and by a median of 5.4% (p90 11.7%) against exact max-of-4
    moments on the acceptance suite's windows (means in [0, 3], variances
    in [0.3, 3]).  The expectation stays within a fraction of a percent.
    """
    eb, squeeze = _with_batch(mt.expectation, 3, "maxpool2d")
    vb, _ = _with_batch(mt.variance, 3, "maxpool2d")
    n = spec.size
    if not vb.any():
        out = _unbatch(_pool_view(eb, n).max(axis=(3, 5)), squeeze)
        return MomentTensor._unchecked(out, np.zeros_like(out))
    # (B, C, h, n, w, n) window views; fold row-major over the two window axes
    ewin = _pool_view(eb, n)
    vwin = _pool_view(vb, n)
    # blocks of whole window rows, each about BLOCK_SIZE outputs
    b, c, h, _, w, _ = ewin.shape
    ewin = ewin.reshape(b * c * h, n, w, n)
    vwin = vwin.reshape(b * c * h, n, w, n)
    e = np.empty((b * c * h, w))
    v = np.empty((b * c * h, w))
    rows = max(1, BLOCK_SIZE // w)
    for start in range(0, b * c * h, rows):
        block = slice(start, start + rows)
        ew, vw = ewin[block], vwin[block]
        e_acc = np.ascontiguousarray(ew[:, 0, :, 0])
        v_acc = np.ascontiguousarray(vw[:, 0, :, 0])
        for k in range(1, n * n):
            i, j = divmod(k, n)
            e_acc, v_acc = _max_pair_arrays(e_acc, v_acc, ew[:, i, :, j], vw[:, i, :, j])
        e[block], v[block] = e_acc, v_acc
    e = e.reshape(b, c, h, w)
    v = v.reshape(b, c, h, w)
    return MomentTensor._unchecked(_unbatch(e, squeeze), _unbatch(v, squeeze))


# ---------------------------------------------------------------------------
# softmax


def softmax_det(z):
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _expected_sigmoid(diff, var_sum):
    """E[sigma(X)] for X ~ N(diff, var_sum), elementwise.

    Uses the probit form Phi(diff / sqrt(var_sum + 8/pi)); when the variance
    is below EPS_VAR the expectation is just sigma(diff), which is exact and
    keeps the zero-variance output equal to the plain softmax.
    """
    deg = var_sum < EPS_VAR
    if not deg.any():
        return std_normal_cdf(diff / np.sqrt(var_sum + _SIGMOID_SLOPE_VAR))
    if deg.all():
        return special.expit(diff)
    probit = std_normal_cdf(diff / np.sqrt(var_sum + _SIGMOID_SLOPE_VAR))
    return np.where(deg, special.expit(diff), probit)


def softmax_mp(mt: MomentTensor) -> np.ndarray:
    """Expected class probabilities for Gaussian logits.

    Each class expectation is assembled from pairwise expected sigmoids and
    the result is renormalized to sum to one.  No variance is produced; the
    variance channel terminates here.
    """
    eb, squeeze = _with_batch(mt.expectation, 1, "softmax")
    vb, _ = _with_batch(mt.variance, 1, "softmax")
    k = eb.shape[-1]
    if k < 2:
        raise ValueError(f"softmax needs at least 2 classes, got {k}")
    diff = eb[..., :, None] - eb[..., None, :]
    var_sum = vb[..., :, None] + vb[..., None, :]
    sig = np.maximum(_expected_sigmoid(diff, var_sum), 1e-300)
    # Diagonal terms are exactly 1/sigma(0) = 2, so (2 - K) + sum_offdiag(1/sig)
    # collapses to sum_all(1/sig) - K.
    denom = (1.0 / sig).sum(axis=-1) - k
    probs = 1.0 / denom
    probs /= probs.sum(axis=-1, keepdims=True)
    return _unbatch(probs, squeeze)
