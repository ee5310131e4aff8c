import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentprop.data import (
    DataError,
    Dataset,
    destandardize_mean_var,
    gen_synthetic_images,
    gen_toy_regression,
    load_cifar10,
    load_csv_regression,
    ood_partition,
    standardize_regression,
    toy_target,
)
from oracles import gen_synthetic_images_per_image, gen_tabular_regression, write_regression_csv


class TestToyRegression:
    def test_zero_noise_lands_on_curve(self):
        ds = gen_toy_regression(100, noise_sigma=0.0, seed=1)
        x, y = ds.train_xy()
        assert np.allclose(y, toy_target(x[:, 0]), atol=1e-12)

    def test_reproducible(self):
        a = gen_toy_regression(64, seed=5)
        b = gen_toy_regression(64, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.split, b.split)

    def test_noise_variance(self):
        ds = gen_toy_regression(100_000, seed=2)
        mask = ds.split != "test"
        resid = ds.targets[mask] - toy_target(ds.features[mask, 0])
        assert resid.var() == pytest.approx(0.01, rel=0.05)

    def test_grid_extends_beyond_range(self):
        ds = gen_toy_regression(50, x_range=(-3.0, 19.0), seed=0)
        x_test = ds.test_xy()[0][:, 0]
        assert x_test.min() < -3.0 and x_test.max() > 19.0

    def test_split_disjoint_exhaustive(self):
        ds = gen_toy_regression(100, seed=0)
        counts = ds.counts()
        assert sum(counts.values()) == len(ds)


class TestCsvRegression:
    def test_exact_parse(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
        ds = load_csv_regression(path, "y", split_fractions=(1.0, 0.0, 0.0), seed=0)
        # the raw values, through the standardization record
        rec = ds.standardization
        assert list(rec.feature_mean) == [4.0, 5.0] and rec.target_mean == 6.0
        raw = {(1.0, 2.0): 3.0, (4.0, 5.0): 6.0, (7.0, 8.0): 9.0}
        rows = {tuple(f): t for f, t in zip(ds.features, ds.targets)}
        assert rows == {tuple((np.array(f) - rec.feature_mean) / rec.feature_std):
                        (t - rec.target_mean) / rec.target_std for f, t in raw.items()}

    def test_split_sizes(self, tmp_path):
        x, y = gen_tabular_regression(100, seed=1)
        path = tmp_path / "t.csv"
        write_regression_csv(path, x, y)
        ds = load_csv_regression(path, "y", split_fractions=(0.8, 0.1, 0.1), seed=0)
        assert ds.counts() == {"train": 80, "val": 10, "test": 10}

    def test_standardize_round_trip(self, tmp_path):
        x, y = gen_tabular_regression(60, seed=2)
        path = tmp_path / "t.csv"
        write_regression_csv(path, x, y)
        std = load_csv_regression(path, "y", seed=3)
        # the raw values: the CSV's rows in the loader's shuffled order
        perm = np.random.default_rng(3).permutation(len(y))
        rec = std.standardization
        back_mean, _ = destandardize_mean_var(rec, std.targets, np.zeros_like(std.targets))
        assert np.allclose(back_mean, y[perm], atol=1e-12)
        back_x = std.features * rec.feature_std + rec.feature_mean
        assert np.allclose(back_x, x[perm], atol=1e-12)

    def test_train_statistics_only(self, tmp_path):
        x, y = gen_tabular_regression(200, seed=4)
        path = tmp_path / "t.csv"
        write_regression_csv(path, x, y)
        ds = load_csv_regression(path, "y", seed=5)
        x_val, y_val = ds.val_xy()
        # standardized train split has exact zero mean; validation does not
        assert abs(ds.train_xy()[1].mean()) < 1e-12
        assert abs(y_val.mean()) > 1e-6

    def test_missing_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,2.0\n,3.0\n")
        with pytest.raises(DataError):
            load_csv_regression(path, "y")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,2.0\nfoo,3.0\n")
        with pytest.raises(DataError):
            load_csv_regression(path, "y")

    def test_bad_target_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,2.0\n")
        with pytest.raises(DataError):
            load_csv_regression(path, "z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv_regression(tmp_path / "nope.csv", "y")


class TestSyntheticImages:
    def test_reproducible(self):
        a = gen_synthetic_images(10, seed=9)
        b = gen_synthetic_images(10, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_class_mean_separation(self):
        from itertools import combinations

        sigma = 0.18
        ds = gen_synthetic_images(150, seed=3, noise_sigma=sigma)
        means = np.stack([ds.features[ds.targets == k, 0].mean(axis=0) for k in range(10)])
        for a, b in combinations(range(10), 2):
            assert np.linalg.norm(means[a] - means[b]) > 10 * sigma

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_images(0)

    def test_shapes_and_labels(self):
        ds = gen_synthetic_images(5, n_classes=4, size=12, seed=0)
        assert ds.features.shape == (20, 1, 12, 12)
        assert set(np.unique(ds.targets)) == {0, 1, 2, 3}

    @pytest.mark.parametrize("bad", [
        {"size": 0}, {"size": -3}, {"size": 7.5}, {"size": 16.0}, {"size": True},
        {"n_per_class": 2.5}, {"n_per_class": 3.0}, {"n_classes": 3.0},
        {"noise_sigma": float("nan")}, {"noise_sigma": float("inf")}, {"noise_sigma": -0.1},
    ])
    def test_bad_arguments_rejected_before_any_draw(self, monkeypatch, bad):
        def no_generator(*args):
            raise AssertionError("a generator was built before the arguments were checked")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(ValueError):
            gen_synthetic_images(**{"n_per_class": 3, **bad})

    def test_numpy_integer_arguments_accepted(self):
        a = gen_synthetic_images(np.int64(3), n_classes=np.int32(4), size=np.int64(6), seed=2)
        b = gen_synthetic_images(3, n_classes=4, size=6, seed=2)
        assert a.features.tobytes() == b.features.tobytes()


def digest(ds) -> str:
    h = hashlib.sha256()
    for part in (ds.features, ds.targets, ds.split):
        h.update(part.tobytes())
    return h.hexdigest()


class TestSyntheticImagesMatchPerImageReference:
    """gen_synthetic_images computes a class at a time; it must equal the
    per-image generator (tests/oracles.py) byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12), st.integers(2, 10), st.sampled_from((1, 2, 5, 12, 16, 32)),
        st.floats(0.0, 1.0), st.integers(0, 2**64),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_byte_identical(self, n_per_class, n_classes, size, noise_sigma, seed, weights):
        fractions = tuple(w / max(1.0, sum(weights)) for w in weights)
        args = dict(n_per_class=n_per_class, n_classes=n_classes, size=size,
                    noise_sigma=noise_sigma, seed=seed, split_fractions=fractions)
        got, want = gen_synthetic_images(**args), gen_synthetic_images_per_image(**args)
        assert digest(got) == digest(want)

    # SHA-256 of features, targets and split tags, computed with the
    # per-image generator: the benchmark's held-out-class data on two seeds,
    # and the acceptance suite's ood_setup data.
    @pytest.mark.parametrize("n_per_class, seed, expected", [
        (400, 1, "d2a210ada69b99ae8089714e0818929bcfe518fc88b9cffd0d113191cab9be05"),
        (400, 601, "30597fcd2521f6af9713ba21dcc7901818e211f0afbb91c7e5e62da8576a29c2"),
        (300, 7, "3f7cdba648c1b5812d2befad421ba290d327adb55da0a18a457df3fa8864bc7b"),
    ])
    def test_pinned_digests_at_scale(self, n_per_class, seed, expected):
        ds = gen_synthetic_images(n_per_class, n_classes=10, size=16, seed=seed,
                                  split_fractions=(0.5, 0.125, 0.375))
        assert digest(ds) == expected


class TestOodPartition:
    def test_five_of_ten(self):
        ds = gen_synthetic_images(10, seed=1)
        ind, ood = ood_partition(ds, (0, 1, 4, 5, 8))
        assert ind.n_classes == 5
        assert set(np.unique(ind.targets)) == {0, 1, 2, 3, 4}
        assert np.all(ood.targets == -1)

    def test_sizes_sum(self):
        ds = gen_synthetic_images(10, seed=1)
        ind, ood = ood_partition(ds, (2, 3))
        assert len(ind) + len(ood) == len(ds)

    def test_all_classes_rejected(self):
        ds = gen_synthetic_images(5, n_classes=3, seed=1)
        with pytest.raises(ValueError):
            ood_partition(ds, (0, 1, 2))

    def test_invalid_class(self):
        ds = gen_synthetic_images(5, n_classes=3, seed=1)
        with pytest.raises(ValueError):
            ood_partition(ds, (0, 7))
        with pytest.raises(ValueError):
            ood_partition(ds, ())
        for ids in ((0.5, 1.7), (True, 2), (0, 1.0)):
            with pytest.raises(ValueError, match="ind_classes"):
                ood_partition(ds, ids)


def write_fake_cifar_batch(path, n_records, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_records):
        label = rng.integers(0, 10, dtype=np.uint8)
        pixels = rng.integers(0, 256, 3072, dtype=np.uint8)
        records.append(np.r_[label, pixels])
    arr = np.concatenate(records).astype(np.uint8)
    path.write_bytes(arr.tobytes())
    return arr.reshape(n_records, 3073)


class TestCifar10Loader:
    def test_reads_records(self, tmp_path):
        raw = write_fake_cifar_batch(tmp_path / "data_batch_1.bin", 4)
        ds = load_cifar10(tmp_path)
        assert ds.features.shape == (4, 3, 32, 32)
        assert ds.targets[0] == raw[0, 0]

    def test_pixel_scaling(self, tmp_path):
        rec = np.zeros(3073, dtype=np.uint8)
        rec[1] = 255
        (tmp_path / "data_batch_1.bin").write_bytes(rec.tobytes())
        ds = load_cifar10(tmp_path)
        assert ds.features[0, 0, 0, 0] == 1.0
        assert ds.features[0, 0, 0, 1] == 0.0

    def test_train_and_test_tags(self, tmp_path):
        write_fake_cifar_batch(tmp_path / "data_batch_1.bin", 2)
        write_fake_cifar_batch(tmp_path / "test_batch.bin", 3, seed=1)
        ds = load_cifar10(tmp_path)
        assert ds.counts()["train"] == 2 and ds.counts()["test"] == 3

    def test_corrupt_size(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * 3072)
        with pytest.raises(DataError):
            load_cifar10(tmp_path)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(DataError):
            load_cifar10(tmp_path / "nowhere")


class TestDatasetValidation:
    def test_misaligned_lengths(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((3, 2)), targets=np.zeros(2),
                    split=np.array(["train", "val", "test"]), task="regression")

    def test_bad_split_tag(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((1, 2)), targets=np.zeros(1),
                    split=np.array(["holdout"]), task="regression")

    def test_class_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((2, 2)), targets=np.array([0, 5]),
                    split=np.array(["train", "train"]), task="classification", n_classes=3)

    def test_standardize_rejects_classification(self):
        ds = gen_synthetic_images(5, n_classes=2, seed=1)
        with pytest.raises(ValueError):
            standardize_regression(ds)
