import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momentprop as mp
from momentprop import layers
from momentprop.layers import (
    EPS_VAR,
    _max_pair_arrays,
    reset_variance_clamp_count,
    variance_clamp_count,
)
from momentprop.moments import MomentTensor
from oracles import GaussianScalar, layer_oracle, maxpool_pair


def zscores(mt, est):
    ze = np.abs(mt.expectation.ravel() - est.mean.ravel()) / est.standard_error_mean.ravel()
    zv = np.abs(mt.variance.ravel() - est.variance.ravel()) / est.standard_error_variance.ravel()
    return ze, zv


# ---------------------------------------------------------------------------
# dropout


class TestDropout:
    def test_moments_enumeration(self):
        # mask is 0 or 1 with equal probability: brute-force the two outcomes
        p = 0.5
        values = np.array([0.0, 1.0])  # output at input 1.0
        probs = np.array([p, 1 - p])
        mean = (values * probs).sum()
        var = (probs * (values - mean) ** 2).sum()
        out = mp.dropout_mp(MomentTensor([1.0], [0.0]), mp.DropoutSpec(p))
        assert out.expectation[0] == pytest.approx(mean)
        assert out.variance[0] == pytest.approx(var)

    def test_zero_rate_identity(self):
        mt = MomentTensor([1.5, -2.0], [0.3, 0.7])
        out = mp.dropout_mp(mt, mp.DropoutSpec(0.0))
        assert np.array_equal(out.expectation, mt.expectation)
        assert np.array_equal(out.variance, mt.variance)

    def test_gaussian_input_case(self):
        # (E=2, V=1, rate 0.3): V' = 1*0.21 + 1*0.49 + 4*0.21 = 1.54
        out = mp.dropout_mp(MomentTensor([2.0], [1.0]), mp.DropoutSpec(0.3))
        assert out.expectation[0] == pytest.approx(1.4, abs=1e-12)
        assert out.variance[0] == pytest.approx(1.54, abs=1e-12)
        est = layer_oracle(
            mp.DropoutSpec(0.3), MomentTensor([2.0], [1.0]), 10**6, seed=71, component=0
        )
        ze, zv = zscores(out, est)
        assert ze[0] < 3 and zv[0] < 3

    def test_sample_zero_rate_is_identity(self):
        x = np.random.default_rng(0).standard_normal(50)
        out = mp.dropout_sample(x, mp.DropoutSpec(0.0), np.random.default_rng(1))
        assert np.array_equal(out, x)

    def test_sample_reproducible_under_seed(self):
        x = np.ones(1000)
        a = mp.dropout_sample(x, mp.DropoutSpec(0.5), np.random.default_rng(7))
        b = mp.dropout_sample(x, mp.DropoutSpec(0.5), np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("block", [1, 7, 64, 10**4])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_sample_blocked_draws_equal_one_draw(self, block, in_place):
        # the uniforms drawn block by block into a scratch continue one
        # stream: mask and product are bitwise those of one rng.random call
        x = np.random.default_rng(3).standard_normal((4, 5, 3, 3))
        x[0, 0, 0] = -0.0
        spec = mp.DropoutSpec(0.4)
        whole = mp.dropout_sample(x, spec, np.random.default_rng(9))
        x_in = x.copy()
        out = x_in if in_place else None
        blocked = mp.dropout_sample(x_in, spec, np.random.default_rng(9), out, np.empty(block))
        assert blocked.tobytes() == whole.tobytes()
        assert (blocked is x_in) == in_place
        assert in_place or x_in.tobytes() == x.tobytes()

    def test_sample_blocked_draws_need_a_contiguous_out(self):
        out = np.empty((6, 4))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            mp.dropout_sample(np.ones((6, 2)), mp.DropoutSpec(0.5), np.random.default_rng(0),
                              out, np.empty(5))

    @pytest.mark.parametrize("op", [
        lambda x, out: mp.dropout_det(x, mp.DropoutSpec(0.3), out),
        lambda x, out: mp.relu_det(x, out),
        lambda x, out: mp.dropout_sample(x, mp.DropoutSpec(0.3), np.random.default_rng(2), out),
    ])
    def test_elementwise_ops_write_into_out(self, op):
        x = np.random.default_rng(4).standard_normal((3, 7))
        expected = op(x, None)
        inplace = x.copy()
        assert op(inplace, inplace) is inplace
        assert inplace.tobytes() == expected.tobytes()

    def test_sample_mean_matches_keep_rate(self):
        est = layer_oracle(mp.DropoutSpec(0.3), np.array([1.0]), 10**6, seed=5)
        assert abs(est.mean[0] - 0.7) <= 3 * est.standard_error_mean[0]

    def test_mp_matches_sampling_across_rates(self):
        rng = np.random.default_rng(11)
        for i, rate in enumerate((0.1, 0.5, 0.8)):
            E = rng.normal(0, 2, 3)
            V = rng.uniform(0, 2, 3)
            out = mp.dropout_mp(MomentTensor(E, V), mp.DropoutSpec(rate))
            est = layer_oracle(mp.DropoutSpec(rate), MomentTensor(E, V), 10**6, seed=80 + i)
            ze, zv = zscores(out, est)
            assert ze.max() < 4 and zv.max() < 4


# ---------------------------------------------------------------------------
# dense


class TestDense:
    def test_zero_variance_matches_deterministic(self):
        rng = np.random.default_rng(3)
        spec = mp.DenseSpec(rng.normal(size=(4, 3)), rng.normal(size=3))
        x = rng.normal(size=4)
        out = mp.dense_mp(MomentTensor.from_point(x), spec)
        assert np.array_equal(out.expectation, mp.dense_det(x, spec))
        assert np.array_equal(out.variance, np.zeros(3))

    def test_identity_passthrough(self):
        spec = mp.DenseSpec(np.eye(3), np.zeros(3))
        mt = MomentTensor([1.0, -2.0, 0.5], [0.1, 0.2, 0.3])
        out = mp.dense_mp(mt, spec)
        assert np.allclose(out.expectation, mt.expectation)
        assert np.allclose(out.variance, mt.variance)

    def test_matches_gaussian_sampling(self):
        rng = np.random.default_rng(4)
        spec = mp.DenseSpec(rng.normal(size=(3, 2)), rng.normal(size=2))
        E, V = rng.normal(size=3), rng.uniform(0.1, 2, 3)
        out = mp.dense_mp(MomentTensor(E, V), spec)
        est = layer_oracle(spec, MomentTensor(E, V), 10**6, seed=9)
        ze, zv = zscores(out, est)
        assert ze.max() < 3 and zv.max() < 3

    def test_shape_mismatch(self):
        spec = mp.DenseSpec(np.ones((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            mp.dense_mp(MomentTensor(np.ones(4), np.ones(4)), spec)

    def test_linearity_scaling(self):
        rng = np.random.default_rng(5)
        spec = mp.DenseSpec(rng.normal(size=(4, 2)), np.zeros(2))
        E, V = rng.normal(size=4), rng.uniform(0.1, 1, 4)
        a = 2.5
        base = mp.dense_mp(MomentTensor(E, V), spec)
        scaled = mp.dense_mp(MomentTensor(a * E, a * a * V), spec)
        assert np.allclose(scaled.expectation, a * base.expectation)
        assert np.allclose(scaled.variance, a * a * base.variance)


# ---------------------------------------------------------------------------
# convolution


def unrolled_dense_equivalent(spec: mp.Conv2DSpec, in_shape):
    """Build the dense layer that computes the convolution, entry by entry
    from its definition (output (o, y, x) sums kernel[o, :, i, j] times input
    (:, y*stride + i - top pad, x*stride + j - left pad))."""
    c, h, w = in_shape
    kh, kw = spec.kernel_size
    s = spec.stride
    if spec.padding == "same":
        oh, ow = -(-h // s), -(-w // s)
        top = max((oh - 1) * s + kh - h, 0) // 2
        left = max((ow - 1) * s + kw - w, 0) // 2
    else:
        oh, ow = (h - kh) // s + 1, (w - kw) // s + 1
        top = left = 0
    weights = np.zeros((c, h, w, spec.out_channels, oh, ow))
    for y in range(oh):
        for x in range(ow):
            for i in range(kh):
                for j in range(kw):
                    yy, xx = y * s + i - top, x * s + j - left
                    if 0 <= yy < h and 0 <= xx < w:
                        weights[:, yy, xx, :, y, x] = spec.kernel[:, :, i, j].T
    bias = np.repeat(spec.bias, oh * ow)
    return mp.DenseSpec(weights.reshape(c * h * w, -1), bias), (spec.out_channels, oh, ow)


class TestConv2d:
    def test_one_by_one_kernel_is_scalar_affine(self):
        w, b = 1.25, -0.5
        spec = mp.Conv2DSpec(np.array([[[[w]]]]), np.array([b]))
        E = np.random.default_rng(0).normal(size=(1, 4, 4))
        V = np.random.default_rng(1).uniform(0.1, 1, (1, 4, 4))
        # float32 parameter storage: compare against the stored values
        w_s, b_s = spec.kernel[0, 0, 0, 0], spec.bias[0]
        out = mp.conv2d_mp(MomentTensor(E, V), spec)
        assert np.allclose(out.expectation, w_s * E + b_s)
        assert np.allclose(out.variance, w_s * w_s * V)

    def test_zero_variance_input(self):
        rng = np.random.default_rng(2)
        spec = mp.Conv2DSpec(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2))
        out = mp.conv2d_mp(MomentTensor.from_point(rng.normal(size=(1, 5, 5))), spec)
        assert np.array_equal(out.variance, np.zeros_like(out.variance))

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("size", [(6, 6), (7, 9)], ids=["even", "odd"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_unrolled_dense_equivalence(self, padding, stride, size, batched):
        rng = np.random.default_rng(6)
        spec = mp.Conv2DSpec(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3),
                             padding=padding, stride=stride)
        in_shape = (2,) + size
        dense, out_shape = unrolled_dense_equivalent(spec, in_shape)
        lead = (4,) if batched else ()
        E = rng.normal(size=lead + in_shape)
        V = rng.uniform(0.05, 1.5, lead + in_shape)
        conv_out = mp.conv2d_mp(MomentTensor(E, V), spec)
        flat = lead + (-1,)
        dense_out = mp.dense_mp(MomentTensor(E.reshape(flat), V.reshape(flat)), dense)
        assert conv_out.shape == lead + out_shape
        assert np.allclose(conv_out.expectation.reshape(flat), dense_out.expectation, atol=1e-10)
        assert np.allclose(conv_out.variance.reshape(flat), dense_out.variance, atol=1e-10)
        assert np.array_equal(mp.conv2d_det(E, spec), conv_out.expectation)

    def test_valid_and_strided_shapes(self):
        rng = np.random.default_rng(7)
        spec = mp.Conv2DSpec(rng.normal(size=(2, 1, 3, 3)), np.zeros(2), padding="valid", stride=2)
        out = mp.conv2d_det(rng.normal(size=(1, 9, 9)), spec)
        assert out.shape == (2, 4, 4)

    def test_channel_mismatch(self):
        spec = mp.Conv2DSpec(np.zeros((1, 2, 3, 3)), np.zeros(1))
        with pytest.raises(ValueError):
            mp.conv2d_det(np.zeros((3, 5, 5)), spec)


# ---------------------------------------------------------------------------
# relu


class TestRelu:
    def test_standard_gaussian_closed_form(self):
        out = mp.relu_mp(MomentTensor([0.0], [1.0]))
        # E' = 1/sqrt(2*pi), V' = 1/2 - 1/(2*pi)
        assert out.expectation[0] == pytest.approx(0.3989422804014327, abs=1e-6)
        assert out.variance[0] == pytest.approx(0.3408450569081046, abs=1e-6)

    def test_deterministic_positive(self):
        out = mp.relu_mp(MomentTensor([5.0], [1e-16]))
        assert out.expectation[0] == 5.0
        assert out.variance[0] == 0.0

    def test_deterministic_negative(self):
        out = mp.relu_mp(MomentTensor([-5.0], [1e-16]))
        assert out.expectation[0] == 0.0
        assert out.variance[0] == 0.0

    def test_matches_sampling(self):
        rng = np.random.default_rng(12)
        E = rng.normal(0, 2, 4)
        V = rng.uniform(0.05, 3, 4)
        out = mp.relu_mp(MomentTensor(E, V))
        est = layer_oracle(mp.ReluSpec(), MomentTensor(E, V), 10**7, seed=13)
        ze, zv = zscores(out, est)
        assert ze.max() < 3 and zv.max() < 3

    def test_expectation_bounds(self):
        rng = np.random.default_rng(14)
        E = rng.normal(0, 3, 500)
        V = rng.uniform(0, 4, 500)
        out = mp.relu_mp(MomentTensor(E, V))
        # analytic bound; 1e-12 slack absorbs rounding at extreme r = E/sqrt(V)
        assert np.all(out.expectation >= np.maximum(E, 0.0) - 1e-12 * (1 + np.abs(E)))
        assert np.all(out.expectation >= 0.0)
        assert np.all(out.variance >= 0.0)


# ---------------------------------------------------------------------------
# max pooling


class TestMaxPoolPair:
    def test_equal_standard_normals(self):
        out = maxpool_pair(GaussianScalar(0.0, 1.0), GaussianScalar(0.0, 1.0))
        # E = 1/sqrt(pi), V = 1 - 1/pi
        assert out.mean == pytest.approx(0.5641895835477563, abs=1e-12)
        assert out.variance == pytest.approx(0.6816901138162093, abs=1e-12)

    def test_equal_standard_normals_vs_sampling(self):
        rng = np.random.default_rng(21)
        draws = rng.standard_normal((10**6, 2)).max(axis=1)
        out = maxpool_pair(GaussianScalar(0.0, 1.0), GaussianScalar(0.0, 1.0))
        assert abs(out.mean - draws.mean()) < 3 * draws.std() / 1000
        assert abs(out.variance - draws.var(ddof=1)) < 0.005

    def test_dominant_branch(self):
        out = maxpool_pair(GaussianScalar(10.0, 0.01), GaussianScalar(0.0, 0.01))
        assert out.mean == pytest.approx(10.0, abs=1e-9)
        assert out.variance == pytest.approx(0.01, abs=1e-9)

    def test_equal_constants(self):
        out = maxpool_pair(GaussianScalar(3.0, 0.0), GaussianScalar(3.0, 0.0))
        assert out.mean == 3.0
        assert out.variance == 0.0

    @settings(max_examples=50)
    @given(st.floats(-4, 4), st.floats(0, 4), st.floats(-4, 4), st.floats(0, 4))
    def test_symmetric(self, e1, v1, e2, v2):
        a = maxpool_pair(GaussianScalar(e1, v1), GaussianScalar(e2, v2))
        b = maxpool_pair(GaussianScalar(e2, v2), GaussianScalar(e1, v1))
        assert a.mean == pytest.approx(b.mean, abs=1e-12)
        assert a.variance == pytest.approx(b.variance, abs=1e-12)


class TestMaxPool2d:
    def test_constant_window(self):
        E = np.full((1, 2, 2), 4.2)
        out = mp.maxpool2d_mp(MomentTensor(E, np.zeros_like(E)), mp.MaxPool2DSpec(2))
        assert out.expectation[0, 0, 0] == pytest.approx(4.2)
        assert out.variance[0, 0, 0] == 0.0

    def test_dominant_entry(self):
        E = np.array([[[10.0, 0.0], [0.0, 0.0]]])
        V = np.full((1, 2, 2), 0.01)
        out = mp.maxpool2d_mp(MomentTensor(E, V), mp.MaxPool2DSpec(2))
        est = layer_oracle(mp.MaxPool2DSpec(2), MomentTensor(E, V), 10**6, seed=31, component=0)
        assert abs(out.expectation[0, 0, 0] - float(est.mean)) < 1e-3
        assert abs(out.variance[0, 0, 0] - float(est.variance)) < 1e-3

    def test_equal_standard_normal_window(self):
        """Worst case for the pairwise fold: four exchangeable entries.

        The expectation tracks the sampled max of four standard normals to
        well under 2%.  The folded variance is known to understate the true
        value here by ~4% (each fold re-Gaussianizes the running max), so the
        variance is pinned to the measured behaviour of the recursion rather
        than to the sampling band.
        """
        E = np.zeros((1, 2, 2))
        V = np.ones((1, 2, 2))
        out = mp.maxpool2d_mp(MomentTensor(E, V), mp.MaxPool2DSpec(2))
        # quadrature values for max of 4 iid N(0,1)
        oracle_e, oracle_v = 1.029375373003964, 0.49171523687474217
        e_rec = out.expectation[0, 0, 0]
        v_rec = out.variance[0, 0, 0]
        assert abs(e_rec - oracle_e) / oracle_e < 0.02
        assert e_rec == pytest.approx(1.0309931226430402, abs=1e-9)
        assert v_rec == pytest.approx(0.47022962759858267, abs=1e-9)
        assert 0.02 < abs(v_rec - oracle_v) / oracle_v < 0.06  # documented understatement

    @pytest.mark.parametrize("size", [2, 3])
    def test_fold_order_is_row_major(self, monkeypatch, size):
        """Pin the fold bitwise: one window at a time, _max_pair_arrays folds
        the window's 1-element entries in row-major offset order.  The input
        is ragged and spans many (shrunken) blocks."""
        monkeypatch.setattr(layers, "BLOCK_SIZE", 37)
        mt = mixed_moments((2, 4, 29, 31), seed=43)
        e, v = mt.expectation, mt.variance
        out = mp.maxpool2d_mp(mt, mp.MaxPool2DSpec(size))
        assert out.expectation.size > 10 * layers.BLOCK_SIZE
        e_ref, v_ref = np.empty(out.shape), np.empty(out.shape)
        for b, c, i, j in np.ndindex(out.shape):
            entries = [(b, c, i * size + k // size, slice(j * size + k % size, j * size + k % size + 1))
                       for k in range(size * size)]
            e_acc, v_acc = e[entries[0]], v[entries[0]]
            for entry in entries[1:]:
                e_acc, v_acc = _max_pair_arrays(e_acc, v_acc, e[entry], v[entry])
            e_ref[b, c, i, j], v_ref[b, c, i, j] = e_acc[0], v_acc[0]
        assert out.expectation.tobytes() == e_ref.tobytes()
        assert out.variance.tobytes() == v_ref.tobytes()

    def test_crops_ragged_edges(self):
        x = np.arange(1 * 5 * 5, dtype=float).reshape(1, 5, 5)
        out = mp.maxpool2d_det(x, mp.MaxPool2DSpec(2))
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 6.0  # max of rows 0-1, cols 0-1

    def test_too_small_input(self):
        with pytest.raises(ValueError):
            mp.maxpool2d_det(np.zeros((1, 1, 4)), mp.MaxPool2DSpec(2))


# ---------------------------------------------------------------------------
# blocked evaluation


def mixed_moments(shape, seed):
    """Moments mixing ordinary Gaussians with entries below EPS_VAR, means far
    below zero (relu_mp rounds their variance negative and clamps it) and
    large means with tiny variances (the pair fold clamps those).  The first
    three quarters of the entries are exactly deterministic, so that whole
    blocks take the all-deterministic branches."""
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, 2.0, shape)
    v = rng.uniform(0.05, 2.0, shape)
    regime = rng.integers(0, 4, shape)
    tiny, negative, large = regime == 1, regime == 2, regime == 3
    v[tiny] = rng.uniform(0.0, EPS_VAR, tiny.sum())
    e[negative] = rng.uniform(-40.0, -3.0, negative.sum())
    e[large] = rng.uniform(0.0, 1e6, large.sum())
    v[large] = rng.uniform(1e-9, 1e-6, large.sum())
    v.reshape(-1)[: 3 * v.size // 4] = 0.0
    return MomentTensor(e, v)


class TestBlockedKernels:
    """relu_mp, dropout_mp and maxpool2d_mp run in BLOCK_SIZE blocks; on
    arrays spanning several blocks the result and the clamp count must be
    bitwise those of a single-block evaluation.  relu_mp and dropout_mp are
    also run at _blockwise's boundary: an input of exactly one block goes to
    the kernel whole, one element more takes the block loop."""

    BOUNDARY = [(layers.BLOCK_SIZE,), (layers.BLOCK_SIZE + 1,)]

    @staticmethod
    def blocked_and_whole(monkeypatch, op):
        reset_variance_clamp_count()
        blocked = op()
        blocked_clamps = variance_clamp_count()
        monkeypatch.setattr(layers, "BLOCK_SIZE", 10**9)
        reset_variance_clamp_count()
        whole = op()
        whole_clamps = variance_clamp_count()
        reset_variance_clamp_count()
        return blocked, blocked_clamps, whole, whole_clamps

    @staticmethod
    def assert_bitwise(a, b):
        assert a.shape == b.shape
        assert a.expectation.tobytes() == b.expectation.tobytes()
        assert a.variance.tobytes() == b.variance.tobytes()

    @pytest.mark.parametrize("block, shape", [
        pytest.param(None, (3, 5, 37, 41), id="None"),
        pytest.param(37, (3, 5, 37, 41), id="37"),
        pytest.param(None, BOUNDARY[0], id="one-block"),
        pytest.param(None, BOUNDARY[1], id="one-block-plus-one"),
    ])
    def test_relu(self, monkeypatch, block, shape):
        mt = mixed_moments(shape, seed=40)
        assert mt.expectation.size > 2 * layers.BLOCK_SIZE or shape in self.BOUNDARY
        assert (mt.variance < EPS_VAR).any()
        if block is not None:
            monkeypatch.setattr(layers, "BLOCK_SIZE", block)
        blocked, n_blocked, whole, n_whole = self.blocked_and_whole(
            monkeypatch, lambda: mp.relu_mp(mt)
        )
        self.assert_bitwise(blocked, whole)
        assert n_whole > 0 and n_blocked == n_whole

    @pytest.mark.parametrize("block", [None, 37])
    @pytest.mark.parametrize("size", [2, 3])
    def test_maxpool(self, monkeypatch, size, block):
        mt = mixed_moments((3, 8, 67, 65), seed=41)  # ragged for both sizes
        spec = mp.MaxPool2DSpec(size)
        assert 3 * 8 * (67 // size) * (65 // size) > layers.BLOCK_SIZE
        if block is not None:
            monkeypatch.setattr(layers, "BLOCK_SIZE", block)
        blocked, n_blocked, whole, n_whole = self.blocked_and_whole(
            monkeypatch, lambda: mp.maxpool2d_mp(mt, spec)
        )
        self.assert_bitwise(blocked, whole)
        assert n_whole > 0 and n_blocked == n_whole

    def test_dropout(self, monkeypatch):
        for shape in [(5, 3, 31, 29)] + self.BOUNDARY:
            mt = mixed_moments(shape, seed=42)
            with monkeypatch.context() as patch:
                blocked, _, whole, _ = self.blocked_and_whole(
                    patch, lambda: mp.dropout_mp(mt, mp.DropoutSpec(0.3))
                )
            self.assert_bitwise(blocked, whole)


# ---------------------------------------------------------------------------
# softmax


class TestSoftmax:
    def test_two_equal_logits(self):
        out = mp.softmax_mp(MomentTensor([1.0, 1.0], [0.5, 0.5]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-12)

    def test_zero_variance_equals_plain_softmax(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = rng.normal(0, 3, rng.integers(2, 8))
            out = mp.softmax_mp(MomentTensor.from_point(z))
            assert np.abs(out - mp.softmax_det(z)).max() < 1e-3

    def test_matches_sampling_within_band(self):
        rng = np.random.default_rng(18)
        for i in range(5):
            E = rng.uniform(-3, 3, 5)
            V = rng.uniform(0, 2, 5)
            out = mp.softmax_mp(MomentTensor(E, V))
            est = layer_oracle(mp.SoftmaxSpec(), MomentTensor(E, V), 10**6, seed=60 + i)
            assert np.abs(out - est.mean).max() < 0.05

    def test_simplex_output(self):
        rng = np.random.default_rng(19)
        E = rng.normal(0, 5, (30, 6))
        V = rng.uniform(0, 3, (30, 6))
        out = mp.softmax_mp(MomentTensor(E, V))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=30)
    @given(st.floats(-10, 10))
    def test_shift_invariance(self, c):
        E = np.array([0.3, -1.2, 2.0, 0.1])
        V = np.array([0.5, 1.0, 0.2, 1.5])
        a = mp.softmax_mp(MomentTensor(E, V))
        b = mp.softmax_mp(MomentTensor(E + c, V))
        assert np.abs(a - b).max() < 1e-6

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            mp.softmax_mp(MomentTensor([1.0], [0.0]))


# ---------------------------------------------------------------------------
# zero-variance passthrough across every layer op


class TestZeroVariancePassthrough:
    def test_all_layers(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 6, 6))
        cases = [
            (mp.DropoutSpec(0.0), mp.dropout_mp, lambda v: mp.dropout_det(v, mp.DropoutSpec(0.0))),
            (mp.MaxPool2DSpec(2), mp.maxpool2d_mp, lambda v: mp.maxpool2d_det(v, mp.MaxPool2DSpec(2))),
            (None, lambda mt, _: mp.relu_mp(mt), lambda v: mp.relu_det(v)),
        ]
        for spec, mp_op, det_op in cases:
            out = mp_op(MomentTensor.from_point(x), spec)
            assert np.array_equal(out.expectation, det_op(x))
            assert np.array_equal(out.variance, np.zeros_like(out.variance))
        conv = mp.Conv2DSpec(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))
        out = mp.conv2d_mp(MomentTensor.from_point(x), conv)
        assert np.array_equal(out.expectation, mp.conv2d_det(x, conv))
        assert np.array_equal(out.variance, np.zeros_like(out.variance))

    @pytest.mark.parametrize("mp_op, det_op", [
        (mp.relu_mp, mp.relu_det),
        (lambda mt: mp.maxpool2d_mp(mt, mp.MaxPool2DSpec(2)),
         lambda x: mp.maxpool2d_det(x, mp.MaxPool2DSpec(2))),
    ], ids=["relu", "maxpool"])
    def test_huge_means_give_the_det_result_without_warnings(self, mp_op, det_op):
        # the kernels' all-deterministic returns skip squaring E, which
        # overflows above about 1.3e154
        x = 1e200 * np.random.default_rng(24).choice([-1.0, 1.0], size=(2, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mp_op(MomentTensor.from_point(x))
        assert np.array_equal(out.expectation, det_op(x))
        assert np.array_equal(out.variance, np.zeros_like(out.variance))


class TestClampDiagnostics:
    def test_counter_tracks_thread_locally(self):
        reset_variance_clamp_count()
        # force a clamp through the pair formula's rounding at a dominant gap
        e1 = np.array([1e8]); v1 = np.array([1e-6])
        e2 = np.array([0.0]); v2 = np.array([1e-6])
        _max_pair_arrays(e1, v1, e2, v2)
        # regardless of whether this exact case clamps, the counter must be
        # consistent: nonnegative and equal to what a repeat accumulates
        first = variance_clamp_count()
        assert first >= 0
        _max_pair_arrays(e1, v1, e2, v2)
        assert variance_clamp_count() == 2 * first
        reset_variance_clamp_count()
        assert variance_clamp_count() == 0

    def test_eps_var_value(self):
        assert EPS_VAR == 1e-12
