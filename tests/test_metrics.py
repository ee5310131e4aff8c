import numpy as np
import pytest
from hypothesis import given, strategies as st

import momentprop.metrics as metrics
from momentprop.network import CategoricalPrediction, GaussianPrediction

HALF_LOG_2PI = 0.9189385332046727


class TestRegressionNllMc:
    def test_single_gaussian_at_mean(self):
        assert metrics.regression_nll_mc(np.array([0.0]), 1.0, 0.0) == pytest.approx(
            HALF_LOG_2PI, abs=1e-12
        )

    def test_identical_components_collapse(self):
        mu = np.full(50, 1.3)
        single = metrics.regression_nll_mp(1.3, 0.0, 2.0, 0.7)
        mixture = metrics.regression_nll_mc(mu, 2.0, 0.7)
        assert mixture == pytest.approx(single, abs=1e-12)

    def test_two_component_mixture_hand_computed(self):
        mu = np.array([0.0, 2.0])
        tau, y = 4.0, 0.5
        # direct evaluation of -log( (1/2) [N(y;0,1/4) + N(y;2,1/4)] )
        dens = 0.5 * (
            np.sqrt(tau / (2 * np.pi)) * np.exp(-0.5 * tau * (y - 0.0) ** 2)
            + np.sqrt(tau / (2 * np.pi)) * np.exp(-0.5 * tau * (y - 2.0) ** 2)
        )
        assert metrics.regression_nll_mc(mu, tau, y) == pytest.approx(-np.log(dens), abs=1e-12)

    def test_batched(self):
        mu = np.zeros((10, 3))
        out = metrics.regression_nll_mc(mu, 1.0, np.zeros(3))
        assert out.shape == (3,)

    def test_underflow_safe(self):
        # far-away components underflow a naive mixture evaluation
        mu = np.full(1000, 100.0)
        nll = metrics.regression_nll_mc(mu, 1.0, 0.0)
        assert np.isfinite(nll) and nll > 1000


class TestRegressionNllMp:
    def test_zero_variance_reduces_to_plain_gaussian(self):
        got = metrics.regression_nll_mp(1.0, 0.0, 4.0, 0.2)
        expected = 0.5 * np.log(2 * np.pi * 0.25) + 0.5 * (0.2 - 1.0) ** 2 / 0.25
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unit_total_variance_at_mean(self):
        assert metrics.regression_nll_mp(0.7, 0.5, 2.0, 0.7) == pytest.approx(
            HALF_LOG_2PI, abs=1e-12
        )

    def test_monotone_in_variance_at_mean(self):
        nlls = [metrics.regression_nll_mp(0.0, v, 1.0, 0.0) for v in (0.0, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(nlls, nlls[1:]))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            metrics.regression_nll_mp(0.0, 1.0, 0.0, 0.0)


class TestEntropy:
    def test_one_hot_is_zero(self):
        assert metrics.entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_five(self):
        assert metrics.entropy(np.full(5, 0.2)) == pytest.approx(1.6094379124341003, abs=1e-12)

    def test_fair_coin(self):
        assert metrics.entropy([0.5, 0.5]) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            metrics.entropy([0.5, 0.1])

    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=8))
    def test_bounds_and_extremes(self, raw):
        p = np.array(raw) / np.sum(raw)
        h = metrics.entropy(p)
        k = len(p)
        assert -1e-12 <= h <= np.log(k) + 1e-12
        assert metrics.entropy(np.full(k, 1.0 / k)) >= h - 1e-9


class TestOneMinusMax:
    def test_bounds(self):
        assert metrics.one_minus_max([1.0, 0.0]) == 0.0
        assert metrics.one_minus_max([0.25, 0.25, 0.25, 0.25]) == pytest.approx(0.75)


def brute_force_auc(scores, labels):
    scores = np.asarray(scores)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        r = metrics.roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert r.auc == 1.0

    def test_identical_scores(self):
        r = metrics.roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])
        assert r.auc == pytest.approx(0.5, abs=1e-12)

    def test_known_example(self):
        r = metrics.roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert r.auc == pytest.approx(0.75, abs=1e-12)

    def test_equals_pair_counting(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(10, 200))
            scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            r = metrics.roc_auc(scores, labels)
            assert r.auc == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    def test_curve_monotone(self):
        rng = np.random.default_rng(1)
        r = metrics.roc_auc(rng.normal(size=100), rng.integers(0, 2, 100))
        assert np.all(np.diff(r.fpr) >= 0) and np.all(np.diff(r.tpr) >= 0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.roc_auc([0.1, 0.2], [1, 1])


class TestFilterCurve:
    def test_all_correct(self):
        probs = np.eye(4)[np.array([0, 1, 2, 3])] * 0.97 + 0.0075
        rows = metrics.filter_curve(probs, np.array([0, 1, 2, 3]))
        assert all(r["accuracy"] == 1.0 for r in rows)

    def test_perfect_ranking_is_nonincreasing(self):
        # confident-correct first, uncertain-wrong last
        probs = np.array([
            [0.99, 0.01], [0.98, 0.02], [0.6, 0.4], [0.45, 0.55],
        ])
        labels = np.array([0, 0, 0, 0])
        rows = metrics.filter_curve(probs, labels)
        accs = [r["accuracy"] for r in rows]
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=30)
        labels = rng.integers(0, 4, 30)
        rows = metrics.filter_curve(probs, labels, kind="one_minus_max")
        scores = 1 - probs.max(axis=1)
        order = np.argsort(scores, kind="stable")
        for i, row in enumerate(rows):
            keep = order[: i + 1]
            acc = float((probs[keep].argmax(axis=1) == labels[keep]).mean())
            assert row["accuracy"] == pytest.approx(acc, abs=1e-12)
            assert row["retained"] == i + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.filter_curve(np.zeros((0, 2)), np.zeros(0))


class TestPearsonCi:
    def test_exact_linear(self):
        x = np.arange(10.0)
        r, lo, hi = metrics.pearson_ci(x, 2 * x + 1)
        assert r == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_hand_computed_five_points(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        cx, cy = x - x.mean(), y - y.mean()
        r_hand = (cx * cy).sum() / np.sqrt((cx**2).sum() * (cy**2).sum())
        r, _, _ = metrics.pearson_ci(x, y)
        assert r == pytest.approx(r_hand, abs=1e-12)

    def test_independent_data_mostly_small(self):
        rng = np.random.default_rng(4)
        small = sum(
            abs(metrics.pearson_ci(rng.normal(size=1000), rng.normal(size=1000))[0]) < 0.1
            for _ in range(40)
        )
        assert small >= 38  # ~99.8% expected at n=1000

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            metrics.pearson_ci(np.ones(10), np.arange(10.0))

    def test_ci_brackets_r(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        y = x + rng.normal(size=50)
        r, lo, hi = metrics.pearson_ci(x, y)
        assert lo < r < hi


class TestWilsonCi:
    def test_zero_successes(self):
        p, lo, hi = metrics.wilson_ci(0, 10)
        assert p == 0.0 and lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0

    def test_published_benchmark_interval(self):
        # 7168/10000 at 95%
        p, lo, hi = metrics.wilson_ci(7168, 10_000)
        assert p == pytest.approx(0.7168)
        assert lo == pytest.approx(0.7079, abs=1e-3)
        assert hi == pytest.approx(0.7255, abs=1e-3)

    def test_formula_recomputation(self):
        from scipy.special import ndtri

        s, n, level = 5, 10, 0.95
        z = -ndtri((1 - level) / 2)
        ph = s / n
        center = (ph + z * z / (2 * n)) / (1 + z * z / n)
        half = z * np.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / (1 + z * z / n)
        p, lo, hi = metrics.wilson_ci(s, n, level)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            metrics.wilson_ci(11, 10)


class TestEnsembleCombine:
    def test_single_member_identity(self):
        member = CategoricalPrediction(np.array([0.2, 0.8]))
        out = metrics.ensemble_combine([member])
        assert np.array_equal(out.probs, member.probs)

    def test_two_opposite_members(self):
        a = CategoricalPrediction(np.array([1.0, 0.0]))
        b = CategoricalPrediction(np.array([0.0, 1.0]))
        assert np.allclose(metrics.ensemble_combine([a, b]).probs, [0.5, 0.5])

    def test_five_random_members_mean(self):
        rng = np.random.default_rng(6)
        members = [CategoricalPrediction(rng.dirichlet(np.ones(4))) for _ in range(5)]
        out = metrics.ensemble_combine(members)
        assert np.allclose(out.probs, np.mean([m.probs for m in members], axis=0), atol=1e-12)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_regression_mixture_moments(self):
        a = GaussianPrediction(np.array(0.0), np.array(1.0), tau=1.0)
        b = GaussianPrediction(np.array(2.0), np.array(1.0), tau=1.0)
        out = metrics.ensemble_combine([a, b])
        assert out.tau is None
        assert float(out.mean) == pytest.approx(1.0)
        # mean total variance 2.0 plus spread of means 1.0
        assert float(out.variance) == pytest.approx(3.0)

    def test_heterogeneous_rejected(self):
        a = CategoricalPrediction(np.array([0.5, 0.5]))
        b = GaussianPrediction(np.array(0.0), np.array(1.0), tau=1.0)
        with pytest.raises(ValueError):
            metrics.ensemble_combine([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.ensemble_combine([])


class TestNllConsistency:
    def test_mc_equals_mp_for_point_model(self):
        # one sample, no spread: both scores describe the same Gaussian
        mu = np.array([1.7])
        assert metrics.regression_nll_mc(mu, 3.0, 0.4) == pytest.approx(
            metrics.regression_nll_mp(1.7, 0.0, 3.0, 0.4), abs=1e-12
        )
