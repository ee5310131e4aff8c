"""Dataset generation, ingestion, and splitting for all experiments.

Generators are bit-reproducible under a fixed seed, splits are disjoint and
exhaustive, and regression standardization uses train-split statistics only.

``gen_synthetic_images`` consumes its generator stream image by image, class
0 first: per image one block of uniforms (the amplitude, then the class's
pattern parameters in a fixed order), then the image's size x size block of
standard-normal noise; one permutation of all images comes last.  It computes
the images one class at a time, and its datasets are byte-identical to those
of the per-image version pinned in the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .layers import _positive_sizes

TRAIN, VAL, TEST = "train", "val", "test"
_TAGS = (TRAIN, VAL, TEST)


class DataError(Exception):
    """Raised for malformed or missing data files."""


@dataclass(frozen=True)
class Standardization:
    """Train-split statistics used to standardize features and targets."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float | None = None
    target_std: float | None = None


@dataclass(frozen=True)
class Dataset:
    """Features, targets, and per-example split tags.

    features is (N, Q) for tabular data or (N, C, H, W) for images; targets
    are floats (regression) or class indices (classification, -1 marking
    examples with no valid label for the model at hand).
    """

    features: np.ndarray
    targets: np.ndarray
    split: np.ndarray
    task: str
    n_classes: int | None = None
    standardization: Standardization | None = None

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        s = np.asarray(self.split)
        if self.task == "classification":
            t = np.asarray(self.targets, dtype=np.int64)
        else:
            t = np.asarray(self.targets, dtype=np.float64)
        if len(f) != len(t) or len(f) != len(s):
            raise ValueError("features, targets, and split tags must align")
        if not np.all(np.isin(s, _TAGS)):
            raise ValueError(f"split tags must be one of {_TAGS}")
        if self.task == "classification" and self.n_classes is not None:
            valid = (t >= 0) & (t < self.n_classes)
            if not np.all(valid):
                raise ValueError("class indices out of range")
        # datasets are shareable; freeze the backing arrays
        for arr in (f, t, s):
            try:
                arr.setflags(write=False)
            except ValueError:
                pass  # view of a read-only base
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "split", s)

    def __len__(self) -> int:
        return len(self.features)

    def xy(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        mask = self.split == tag
        return self.features[mask], self.targets[mask]

    def train_xy(self):
        return self.xy(TRAIN)

    def val_xy(self):
        return self.xy(VAL)

    def test_xy(self):
        return self.xy(TEST)

    def counts(self) -> dict[str, int]:
        return {tag: int((self.split == tag).sum()) for tag in _TAGS}


def _split_tags(n: int, fractions) -> np.ndarray:
    f_train, f_val, f_test = fractions
    if min(fractions) < 0 or f_train + f_val + f_test > 1.0 + 1e-9:
        raise ValueError(f"bad split fractions {fractions}")
    n_train = int(n * f_train)
    n_val = int(n * f_val)
    return np.array([TRAIN] * n_train + [VAL] * n_val + [TEST] * (n - n_train - n_val))


# ---------------------------------------------------------------------------
# standardization


def standardize_regression(ds: Dataset) -> Dataset:
    """Standardize features and target to zero mean / unit variance using the
    train split only; the record allows inverting predictions later."""
    if ds.task != "regression":
        raise ValueError("standardization applies to regression datasets")
    x_train, y_train = ds.train_xy()
    fm = x_train.mean(axis=0)
    fs = x_train.std(axis=0)
    fs = np.where(fs == 0.0, 1.0, fs)  # constant columns pass through
    tm = float(y_train.mean())
    ts = float(y_train.std())
    if ts == 0.0:
        ts = 1.0
    record = Standardization(feature_mean=fm, feature_std=fs, target_mean=tm, target_std=ts)
    return replace(
        ds,
        features=(ds.features - fm) / fs,
        targets=(ds.targets - tm) / ts,
        standardization=record,
    )


def destandardize_mean_var(record: Standardization, mean, variance):
    """Map predictions from standardized target space back to original units."""
    if record.target_mean is None or record.target_std is None:
        raise ValueError("record carries no target statistics")
    s = record.target_std
    return record.target_mean + s * np.asarray(mean), (s * s) * np.asarray(variance)


# ---------------------------------------------------------------------------
# 1-D toy regression


def toy_target(x):
    """Smooth multi-modal 1-D target used by the toy benchmark."""
    x = np.asarray(x, dtype=np.float64)
    return 0.3 * x * np.sin(0.4 * x)


def gen_toy_regression(
    n: int,
    x_range: tuple[float, float] = (-3.0, 19.0),
    noise_sigma: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Noisy samples of the toy curve on x_range, a fifth of them (rounded
    down) for validation, plus a test grid of 200 evenly spaced points that
    extends beyond the range by 0.15 of its span on each side.  The test
    noise is drawn last."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    lo, hi = x_range
    x = rng.uniform(lo, hi, size=n)
    y = toy_target(x) + noise_sigma * rng.standard_normal(n)
    n_val = int(n * 0.2)
    tags = np.array([TRAIN] * (n - n_val) + [VAL] * n_val)
    tags = tags[rng.permutation(n)]
    pad = 0.15 * (hi - lo)
    n_test = 200
    x_test = np.linspace(lo - pad, hi + pad, n_test)
    y_test = toy_target(x_test) + noise_sigma * rng.standard_normal(n_test)
    features = np.concatenate([x, x_test])[:, None]
    targets = np.concatenate([y, y_test])
    split = np.concatenate([tags, np.array([TEST] * n_test)])
    return Dataset(features=features, targets=targets, split=split, task="regression")


# ---------------------------------------------------------------------------
# CSV regression tables


def read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """The header and the (rows, columns) float table of a numeric CSV file.
    A missing or empty file, a row with another cell count than the header,
    and an empty or non-numeric cell are data errors that name the file and,
    for a cell, its line and column."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            parsed = []
            for name, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise DataError(f"{path}:{line_no}: missing value in column {name!r}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}:{line_no}: non-numeric value {cell!r} in column {name!r}"
                    ) from None
            rows.append(parsed)
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def load_csv_regression(
    path,
    target_column: str,
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> Dataset:
    """Parse a numeric CSV with a header row (``read_numeric_csv``), shuffle,
    split, and standardize on train statistics.
    """
    header, table = read_numeric_csv(path)
    if target_column not in header:
        raise DataError(f"target column {target_column!r} not in header {header}")
    if not len(table):
        raise DataError(f"{path} has a header but no data rows")
    t_idx = header.index(target_column)
    targets = table[:, t_idx]
    features = np.delete(table, t_idx, axis=1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(table))
    features, targets = features[perm], targets[perm]
    split = _split_tags(len(table), split_fractions)
    return standardize_regression(
        Dataset(features=features, targets=targets, split=split, task="regression"))


# ---------------------------------------------------------------------------
# synthetic images (desk-scale image classification benchmark)
#
# Each class is a parametric pattern with per-example jitter.  Jitter ranges
# are wide enough that neighbouring classes overlap for some draws (bars vs.
# bands vs. gradients), leaving irreducible confusion that keeps predictive
# uncertainty meaningful while class means stay separated.
#
# A pattern is evaluated for all images of a class at once on the coordinates
# u (down the rows, an (S, 1) column) and v (across the columns, a (1, S) row).
# Every step is elementwise and in the order of the per-image reference in the
# tests, so broadcasting over images changes no bit of the result.


def _band(x, offset, width, out=None):
    """exp(-0.5 * ((x - offset) / width)**2)."""
    z = np.subtract(x, offset, out=out)
    z /= width
    np.square(z, out=z)
    z *= -0.5
    return np.exp(z, out=z)


def _py_square(s):
    # one Python float at a time, as the per-image reference squares widths:
    # its s**2 (libm's pow) and numpy's x*x differ in about 1 value of 1200
    return np.array([float(x) ** 2 for x in s.ravel()]).reshape(s.shape)


def _blob(u, v, out, cu, cv, s):
    z = np.add((u - cu) ** 2, (v - cv) ** 2, out=out)
    z *= -0.5
    z /= _py_square(s)
    return np.exp(z, out=z)


def _ring(u, v, out, cu, cv, radius, width):
    dist = np.sqrt(np.add((u - cu) ** 2, (v - cv) ** 2, out=out), out=out)
    return _band(dist, radius, width, out)


def _checkerboard(u, v, out, period, p1, p2):
    half = np.sin(2 * np.pi * u / period + p1)
    half *= 0.5
    np.multiply(half, np.sin(2 * np.pi * v / period + p2), out=out)
    out += 0.5
    return out


def _corner_blobs(u, v, out, s):
    s2 = _py_square(s)
    out.fill(0.0)
    for cu in (0.12, 0.88):
        for cv in (0.12, 0.88):
            z = -0.5 * ((u - cu) ** 2 + (v - cv) ** 2) / s2
            out += np.exp(z, out=z)
    return out


_AMPLITUDE = (0.55, 1.25)
# Per class: the uniform ranges of its pattern parameters in draw order, and
# the pattern, called as pattern(u, v, out, *parameters) with one (n, 1, 1)
# column per parameter.  It returns an array that broadcasts to the class's
# (n, S, S) images: out, an (n, S, S) scratch it may fill, or a smaller one.
_CLASSES = (
    # horizontal bar: position, width
    (((0.15, 0.85), (0.06, 0.22)), lambda u, v, out, t, w: _band(u, t, w)),
    # vertical bar
    (((0.15, 0.85), (0.06, 0.22)), lambda u, v, out, t, w: _band(v, t, w)),
    # descending diagonal band: offset, width
    (((-0.3, 0.3), (0.05, 0.16)),
     lambda u, v, out, o, w: _band((u - v) / np.sqrt(2), o, w, out)),
    # ascending diagonal band
    (((-0.3, 0.3), (0.05, 0.16)),
     lambda u, v, out, o, w: _band((u + v - 1.0) / np.sqrt(2), o, w, out)),
    # blob: centre (u, v), width
    (((0.25, 0.75), (0.25, 0.75), (0.08, 0.22)), _blob),
    # ring: centre (u, v), radius, width
    (((0.35, 0.65), (0.35, 0.65), (0.18, 0.42), (0.04, 0.12)), _ring),
    # horizontal gradient: exponent
    (((0.4, 2.2),), lambda u, v, out, e: v ** e),
    # vertical gradient
    (((0.4, 2.2),), lambda u, v, out, e: u ** e),
    # checkerboard: period, two phases
    (((0.18, 0.42), (0.0, 2 * np.pi), (0.0, 2 * np.pi)), _checkerboard),
    # four corner blobs: width
    (((0.07, 0.16),), _corner_blobs),
)


def _fill_classes(images, n_classes, noise_sigma, rng):
    """Draw and compute the (N, S, S) images, the first N / n_classes of
    class 0, and so on.  The scratch is freed on return, before the caller's
    permutation copies the images."""
    n_per_class, size = len(images) // n_classes, images.shape[-1]
    lin = np.linspace(0.0, 1.0, size)
    u, v = lin[:, None], lin[None, :]
    scratch = np.empty((n_per_class, size, size))
    for k, (ranges, pattern) in enumerate(_CLASSES[:n_classes]):
        low, high = np.array((_AMPLITUDE,) + ranges).T
        draws = np.empty((n_per_class, len(low)))
        rows = images[k * n_per_class : (k + 1) * n_per_class]
        for j in range(n_per_class):
            rng.random(out=draws[j])
            rng.standard_normal(out=rows[j])
        # Generator.uniform's map, one 64-bit draw per value
        amp, *params = (low + (high - low) * draws).T[:, :, None, None]
        img = pattern(u, v, scratch, *params)
        img *= amp
        rows *= noise_sigma
        rows += img


def gen_synthetic_images(
    n_per_class: int,
    n_classes: int = 10,
    size: int = 16,
    noise_sigma: float = 0.18,
    seed: int = 0,
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
) -> Dataset:
    """Procedurally generated class-distinct images plus pixel noise.

    Classes are oriented bars, diagonal bands, blobs, rings, gradients, a
    checkerboard, and corner blobs; separable by a small conv net while still
    overlapping enough to leave nontrivial predictive uncertainty.

    See the module docstring for the order in which the generator stream is
    consumed; the pattern parameters are drawn in the order of ``_CLASSES``.
    ``ValueError`` before any draw for a size or count that is not a
    positive integer, or a noise_sigma that is negative or not finite.
    """
    if not _positive_sizes((n_per_class, size)):
        raise ValueError(
            f"n_per_class and size must be integers >= 1, got {n_per_class!r} and {size!r}"
        )
    if not (_positive_sizes((n_classes,)) and 2 <= n_classes <= 10):
        raise ValueError(f"n_classes must be an integer between 2 and 10, got {n_classes!r}")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    rng = np.random.default_rng(seed)
    images = np.empty((n_classes * n_per_class, 1, size, size))
    _fill_classes(images[:, 0], n_classes, noise_sigma, rng)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    perm = rng.permutation(len(labels))
    images, labels = images[perm], labels[perm]
    split = _split_tags(len(labels), split_fractions)
    return Dataset(
        features=images, targets=labels, split=split,
        task="classification", n_classes=n_classes,
    )


def ood_partition(data: Dataset, ind_classes) -> tuple[Dataset, Dataset]:
    """Split a classification dataset into in-distribution classes (relabeled
    0..len(ind)-1) and held-out classes (targets set to -1)."""
    if data.task != "classification" or data.n_classes is None:
        raise ValueError("need a labeled classification dataset")
    ids = list(ind_classes)
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in ids):
        raise ValueError(f"ind_classes must be integer class ids, got {ids!r}")
    ind = sorted(set(int(c) for c in ids))
    if not ind:
        raise ValueError("ind_classes must be nonempty")
    if any(c < 0 or c >= data.n_classes for c in ind):
        raise ValueError(f"ind_classes out of range 0..{data.n_classes - 1}")
    if len(ind) == data.n_classes:
        raise ValueError("ind_classes covers every class; nothing is held out")
    relabel = {c: i for i, c in enumerate(ind)}
    mask = np.isin(data.targets, ind)
    ind_ds = Dataset(
        features=data.features[mask],
        targets=np.array([relabel[int(t)] for t in data.targets[mask]], dtype=np.int64),
        split=data.split[mask],
        task="classification",
        n_classes=len(ind),
        standardization=data.standardization,
    )
    ood_ds = Dataset(
        features=data.features[~mask],
        targets=np.full(int((~mask).sum()), -1, dtype=np.int64),
        split=data.split[~mask],
        task="classification",
        n_classes=None,
        standardization=data.standardization,
    )
    return ind_ds, ood_ds


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches (loader only; no downloading)

_CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 channel-major pixel bytes


def load_cifar10(path) -> Dataset:
    """Read standard CIFAR-10 binary batch files from a directory or a single
    file; pixels are scaled to [0, 1] as (N, 3, 32, 32)."""
    path = Path(path)
    if path.is_dir():
        train_files = sorted(path.glob("data_batch_*"))
        test_files = sorted(path.glob("test_batch*"))
        if not train_files and not test_files:
            raise DataError(f"no CIFAR-10 batch files found in {path}")
        files = [(f, TRAIN) for f in train_files] + [(f, TEST) for f in test_files]
    elif path.exists():
        files = [(path, TRAIN)]
    else:
        raise DataError(f"no such file or directory: {path}")
    images, labels, tags = [], [], []
    for file, tag in files:
        raw = np.frombuffer(file.read_bytes(), dtype=np.uint8)
        if raw.size == 0 or raw.size % _CIFAR_RECORD != 0:
            raise DataError(f"{file}: size {raw.size} is not a multiple of {_CIFAR_RECORD}")
        records = raw.reshape(-1, _CIFAR_RECORD)
        labels.append(records[:, 0].astype(np.int64))
        images.append(records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0)
        tags.extend([tag] * len(records))
    return Dataset(
        features=np.concatenate(images),
        targets=np.concatenate(labels),
        split=np.array(tags),
        task="classification",
        n_classes=10,
    )
