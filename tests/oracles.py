"""Reference implementations the tests compare the package against, and
test-only helpers.

Scalar Gaussian helpers (the oracles of the moment tests and of criterion
3's K=2 check), the brute-force layer oracle that validates every
propagated moment, each layer's output of a forward, central differences
for the trainer's gradients, the per-image synthetic image generator that
``data.gen_synthetic_images`` must match byte for byte, and a synthetic
regression table with its CSV writer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from momentprop import network
from momentprop.data import Dataset, _split_tags
from momentprop.layers import Conv2DSpec, DropoutSpec, MaxPool2DSpec, dropout_sample
from momentprop.layers import _conv_geometry, _max_pair_arrays
from momentprop.mc import MomentEstimate, _moments_from_power_sums
from momentprop.moments import MomentTensor
from momentprop.training import draw_masks_for, extract_params, grads_with_params, loss_with_params

_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


def std_normal_pdf(x):
    """Density of N(0, 1), exp(-x^2/2)/sqrt(2*pi).  Elementwise on arrays."""
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


@dataclass(frozen=True)
class GaussianScalar:
    """A single (mean, variance) pair; variance must be nonnegative."""

    mean: float
    variance: float

    def __post_init__(self):
        if not np.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if not (self.variance >= 0.0):
            raise ValueError(f"variance must be >= 0, got {self.variance!r}")


def product_variance(x: GaussianScalar, y: GaussianScalar) -> float:
    """Variance of X*Y for independent X and Y with the given moments.

    V(XY) = V(X)V(Y) + V(X)E(Y)^2 + E(X)^2 V(Y).  Symmetric in its arguments
    and nonnegative whenever both variances are.
    """
    return float(
        x.variance * y.variance
        + x.variance * y.mean**2
        + x.mean**2 * y.variance
    )


def maxpool_pair(a: GaussianScalar, b: GaussianScalar) -> GaussianScalar:
    """Exact max-of-two-Gaussians moments for a single pair of nodes."""
    mean, var = _max_pair_arrays(
        np.array([a.mean]), np.array([a.variance]),
        np.array([b.mean]), np.array([b.variance]),
    )
    return GaussianScalar(float(mean[0]), float(var[0]))


# ---------------------------------------------------------------------------
# brute force: one layer's output moments, the trainer's gradients


class _RunningMoments:
    """Streaming raw power sums so huge oracle runs stay memory-bounded."""

    def __init__(self):
        self.n = 0.0
        self.s1 = self.s2 = self.s3 = self.s4 = 0.0

    def add(self, chunk: np.ndarray) -> None:
        self.n += chunk.shape[0]
        self.s1 = self.s1 + chunk.sum(axis=0)
        sq = np.square(chunk)
        self.s2 = self.s2 + sq.sum(axis=0)
        self.s3 = self.s3 + (sq * chunk).sum(axis=0)
        self.s4 = self.s4 + np.square(sq).sum(axis=0)

    def finalize(self) -> MomentEstimate:
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        return _moments_from_power_sums(self.n, self.s1, self.s2, self.s3, self.s4)


def layer_oracle(
    layer,
    input_dist,
    n_samples: int,
    seed: int = 0,
    chunk_size: int = 200_000,
    component: int | None = None,
) -> MomentEstimate:
    """Estimate a layer's output moments by brute force.

    input_dist is either a MomentTensor (independent Gaussian inputs) or a
    plain array (a fixed point input).  The layer is applied to each draw via
    its kind's det op, except dropout which samples fresh masks.
    If ``component`` is given, only that flat output component's moments are
    accumulated (the layer itself is still applied in full).
    """
    rng = np.random.default_rng(seed)
    if isinstance(input_dist, MomentTensor):
        mean = input_dist.expectation
        std = np.sqrt(input_dist.variance)
        point = None
    else:
        point = np.asarray(input_dist, dtype=np.float64)
        mean = np.asarray(input_dist, dtype=np.float64)
        std = np.zeros_like(mean)
    if int(n_samples) < 2:
        raise ValueError("need at least 2 oracle samples")

    # For conv/pool layers checked at a single component, draw only that
    # component's receptive field and evaluate the output by its definition;
    # statistically identical (other inputs cannot affect the component) and
    # independent of the production patch-matrix code path.
    field = _RECEPTIVE_FIELDS.get(type(layer)) if component is not None else None
    reducer = None
    if field is not None:
        mean, std, reducer = field(layer, mean, std, component)
    det = network.kind_of(layer).det

    acc = _RunningMoments()
    remaining = int(n_samples)
    while remaining > 0:
        n = min(chunk_size, remaining)
        remaining -= n
        if point is not None and reducer is None:
            draws = np.broadcast_to(point, (n,) + point.shape).copy()
        else:
            draws = mean + std * rng.standard_normal((n,) + mean.shape)
        if reducer is not None:
            out = reducer(draws)
        elif isinstance(layer, DropoutSpec):
            out = dropout_sample(draws, layer, rng)
        else:
            out = det(draws, layer)
        if component is not None and reducer is None:
            out = out.reshape(out.shape[0], -1)[:, component]
        acc.add(out)
    return acc.finalize()


def _conv_field(layer, mean, std, component):
    """Moments of one conv output component's input patch plus its evaluator."""
    _, h, w = mean.shape
    kh, kw = layer.kernel_size
    oh, ow, (pt, _, pl, _) = _conv_geometry(h, w, kh, kw, layer.stride, layer.padding)
    oc_i, rest = divmod(component, oh * ow)
    y, x = divmod(rest, ow)
    mp_ = np.pad(mean, ((0, 0), (pt, kh), (pl, kw)))  # generous right/bottom pad
    sp_ = np.pad(std, ((0, 0), (pt, kh), (pl, kw)))
    y0, x0 = y * layer.stride, x * layer.stride
    patch_mean = mp_[:, y0 : y0 + kh, x0 : x0 + kw]
    patch_std = sp_[:, y0 : y0 + kh, x0 : x0 + kw]
    kern = layer.kernel[oc_i]
    bias = layer.bias[oc_i]

    def reducer(draws):
        return np.tensordot(draws, kern, axes=([1, 2, 3], [0, 1, 2])) + bias

    return patch_mean, patch_std, reducer


def _pool_field(layer, mean, std, component):
    """Moments of one pooled output component's window plus its evaluator."""
    _, h, w = mean.shape
    n = layer.size
    oh, ow = h // n, w // n
    c_i, rest = divmod(component, oh * ow)
    y, x = divmod(rest, ow)
    patch_mean = mean[c_i, y * n : (y + 1) * n, x * n : (x + 1) * n]
    patch_std = std[c_i, y * n : (y + 1) * n, x * n : (x + 1) * n]

    def reducer(draws):
        return draws.reshape(draws.shape[0], -1).max(axis=1)

    return patch_mean, patch_std, reducer


_RECEPTIVE_FIELDS = {Conv2DSpec: _conv_field, MaxPool2DSpec: _pool_field}


def per_layer(forward, model, x) -> list:
    """Each layer's output of ``forward`` (forward_det or forward_mp) on x."""
    return [forward(model, x, upto=k) for k in range(1, len(model.layers) + 1)]


def gradient_errors(model, x, y, loss_kind, seed, step=1e-5):
    """Yield (where, relative error) of every analytic parameter gradient
    against central differences, under one set of dropout masks."""
    params = extract_params(model)
    masks = draw_masks_for(model, params, x.shape, seed=seed)
    _, grads = grads_with_params(model, params, x, y, loss_kind, masks)
    for li, p in enumerate(params):
        for key, arr in p.items():
            flat, g_flat = arr.ravel(), grads[li][key].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = loss_with_params(model, params, x, y, loss_kind, masks)
                flat[idx] = orig - step
                down = loss_with_params(model, params, x, y, loss_kind, masks)
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                rel = abs(g_flat[idx] - numeric) / max(abs(numeric), abs(g_flat[idx]), 1e-6)
                yield f"layer {li} {key}[{idx}]: analytic {g_flat[idx]} vs fd {numeric}", rel


# ---------------------------------------------------------------------------
# the synthetic image generator, one image at a time


def _image_grid(size: int):
    u = np.linspace(0.0, 1.0, size)
    return np.meshgrid(u, u, indexing="ij")  # rows (u), cols (v)


def _template(class_index: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Class-distinct parametric pattern with per-example jitter.

    Jitter ranges are wide enough that neighbouring classes overlap for some
    draws (bars vs. bands vs. gradients), leaving irreducible confusion that
    keeps predictive uncertainty meaningful while class means stay separated.
    """
    uu, vv = _image_grid(size)
    amp = rng.uniform(0.55, 1.25)
    k = class_index
    if k == 0:  # horizontal bar
        t, w = rng.uniform(0.15, 0.85), rng.uniform(0.06, 0.22)
        img = np.exp(-0.5 * ((uu - t) / w) ** 2)
    elif k == 1:  # vertical bar
        t, w = rng.uniform(0.15, 0.85), rng.uniform(0.06, 0.22)
        img = np.exp(-0.5 * ((vv - t) / w) ** 2)
    elif k == 2:  # descending diagonal band
        o, w = rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.16)
        img = np.exp(-0.5 * (((uu - vv) / np.sqrt(2) - o) / w) ** 2)
    elif k == 3:  # ascending diagonal band
        o, w = rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.16)
        img = np.exp(-0.5 * (((uu + vv - 1.0) / np.sqrt(2) - o) / w) ** 2)
    elif k == 4:  # blob
        cu, cv = rng.uniform(0.25, 0.75, size=2)
        s = rng.uniform(0.08, 0.22)
        img = np.exp(-0.5 * ((uu - cu) ** 2 + (vv - cv) ** 2) / s**2)
    elif k == 5:  # ring
        cu, cv = rng.uniform(0.35, 0.65, size=2)
        radius, w = rng.uniform(0.18, 0.42), rng.uniform(0.04, 0.12)
        dist = np.sqrt((uu - cu) ** 2 + (vv - cv) ** 2)
        img = np.exp(-0.5 * ((dist - radius) / w) ** 2)
    elif k == 6:  # horizontal gradient
        img = vv ** rng.uniform(0.4, 2.2)
    elif k == 7:  # vertical gradient
        img = uu ** rng.uniform(0.4, 2.2)
    elif k == 8:  # checkerboard
        period = rng.uniform(0.18, 0.42)
        p1, p2 = rng.uniform(0.0, 2 * np.pi, size=2)
        img = 0.5 + 0.5 * np.sin(2 * np.pi * uu / period + p1) * np.sin(
            2 * np.pi * vv / period + p2
        )
    elif k == 9:  # four corner blobs
        s = rng.uniform(0.07, 0.16)
        img = np.zeros_like(uu)
        for cu in (0.12, 0.88):
            for cv in (0.12, 0.88):
                img += np.exp(-0.5 * ((uu - cu) ** 2 + (vv - cv) ** 2) / s**2)
    else:
        raise ValueError("templates are defined for classes 0..9")
    return amp * img


def gen_synthetic_images_per_image(
    n_per_class: int,
    n_classes: int = 10,
    size: int = 16,
    noise_sigma: float = 0.18,
    seed: int = 0,
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
) -> Dataset:
    """``data.gen_synthetic_images`` as it was written before it computed a
    class at a time: one ``_template`` call and one noise draw per image."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1 (empty dataset)")
    if not (2 <= n_classes <= 10):
        raise ValueError("n_classes must be between 2 and 10")
    rng = np.random.default_rng(seed)
    images = np.empty((n_classes * n_per_class, 1, size, size))
    labels = np.empty(n_classes * n_per_class, dtype=np.int64)
    i = 0
    for k in range(n_classes):
        for _ in range(n_per_class):
            img = _template(k, rng, size)
            images[i, 0] = img + noise_sigma * rng.standard_normal((size, size))
            labels[i] = k
            i += 1
    perm = rng.permutation(len(labels))
    images, labels = images[perm], labels[perm]
    split = _split_tags(len(labels), split_fractions)
    return Dataset(
        features=images, targets=labels, split=split,
        task="classification", n_classes=n_classes,
    )


# ---------------------------------------------------------------------------
# tabular regression CSVs


def write_regression_csv(path, features, targets) -> None:
    """Write (N, Q) features and (N,) targets as x0..x{Q-1},y with a header."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(features.shape[1])] + ["y"])
        for row, y in zip(features, targets):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def gen_tabular_regression(
    n: int,
    n_features: int = 6,
    noise_sigma: float = 0.3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic smooth multivariate regression table (raw, unstandardized).

    Stand-in rows for benchmark-style CSV runs: y is a fixed nonlinear
    function of the features plus Gaussian noise.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, n_features))
    coef = np.random.default_rng(seed + 1).standard_normal((3, n_features))
    y = (
        np.sin(x @ coef[0])
        + 0.3 * np.square(x @ coef[1] / np.sqrt(n_features))
        + 0.5 * (x @ coef[2] / n_features)
        + noise_sigma * rng.standard_normal(n)
    )
    return x, y
