"""Reference implementations the tests compare the package against.

Scalar Gaussian helpers (the oracles of the moment tests and of criterion
3's K=2 check) and the per-image synthetic image generator that
``data.gen_synthetic_images`` must match byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from momentprop.data import Dataset, _split_tags
from momentprop.layers import _max_pair_arrays

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
    split = _split_tags(len(labels), split_fractions, rng=None)
    return Dataset(
        features=images, targets=labels, split=split,
        task="classification", n_classes=n_classes,
    )
