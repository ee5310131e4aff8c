import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import momentprop as mp
from momentprop import experiments, layers, mc, network
from momentprop.mc import estimate_moments, mc_forward, sample_stream
from momentprop.moments import MomentTensor
from momentprop.network import forward_sample
from oracles import layer_oracle


def dropout_dense_model(seed=0, rate=0.3):
    rng = np.random.default_rng(seed)
    return mp.ModelSpec(
        layers=(mp.DropoutSpec(rate),
                mp.DenseSpec(rng.normal(size=(4, 2)), rng.normal(size=2))),
        input_shape=(4,), task="regression", tau=1.0,
    )


def toy_mlp():
    return mp.mlp_regression(1, hidden=(256, 256, 256), dropout_rate=0.3, tau=100.0)


class TestMcForward:
    def test_no_dropout_outputs_identical(self):
        model = dropout_dense_model(rate=0.0)
        batch = mc_forward(model, np.ones(4), 16, seed=0)
        assert np.all(batch.outputs == batch.outputs[0])

    def test_same_seed_identical(self):
        model = dropout_dense_model()
        x = np.ones(4)
        a = mc_forward(model, x, 32, seed=5)
        b = mc_forward(model, x, 32, seed=5)
        assert np.array_equal(a.outputs, b.outputs)

    def test_per_sample_streams_order_independent(self):
        """Sample k of a T-run equals a standalone evaluation of sample k."""
        model = dropout_dense_model()
        x = np.ones(4)
        batch = mc_forward(model, x, 10, seed=7)
        for k in (0, 3, 9):
            out = forward_sample(model, x, lambda idx, k=k: sample_stream(7, k, idx))
            assert np.array_equal(batch.outputs[k], out)

    def test_one_draw_scratch_per_call(self, monkeypatch):
        """Every mask draw of one call goes through one scratch array of at
        most DRAW_BLOCK elements; each call gets its own, so concurrent
        calls on one model share nothing.  A call whose masks are all at
        most FRESH_DRAW elements draws each one fresh instead.  There is one
        draw per dropout layer and walk, with one stream per stacked pass."""
        model = mp.mlp_regression(1, hidden=(300, 200), dropout_rate=0.3, seed=0, tau=1.0)
        seen = []

        def spy(h, layer, rng, out=None, draws=None):
            seen.append((draws, len(rng)))
            return layers.dropout_sample(h, layer, rng, out, draws)

        monkeypatch.setattr(mc, "dropout_sample", spy)
        x = np.linspace(-1.0, 1.0, 400)[:, None]
        # 400 and 20 rows of 300 are too wide to stack: one walk per pass
        assert 8 * 20 * 300 > mc.STACK_BYTES
        mc_forward(model, x, 3, seed=0)
        first = seen[0][0]
        assert len(seen) == 6 and all(d is first and n == 1 for d, n in seen)
        assert first.size == min(layers.DRAW_BLOCK, 400 * 300)
        seen.clear()
        mc_forward(model, x[:20], 3, seed=0)
        assert seen[0][0] is not first and seen[0][0].size == 20 * 300
        assert len(seen) == 6 and all(d is seen[0][0] and n == 1 for d, n in seen)
        seen.clear()
        # 2 rows stack all three passes into one walk
        assert 8 * 2 * 300 * 3 <= mc.STACK_BYTES and 2 * 300 <= layers.FRESH_DRAW
        mc_forward(model, x[:2], 3, seed=0)
        assert seen == [(None, 3), (None, 3)]
        seen.clear()
        # stacked draws share the scratch too
        monkeypatch.setattr(network, "FRESH_DRAW", 0)
        mc_forward(model, x[:2], 3, seed=0)
        assert len(seen) == 2 and seen[0][0] is seen[1][0] and seen[0][0].size == 2 * 300
        assert [n for _, n in seen] == [3, 3]

    def test_matches_propagated_moments(self):
        model = dropout_dense_model(seed=3)
        x = np.array([1.0, -0.5, 2.0, 0.3])
        est = mc_forward(model, x, 10_000, seed=11).moments()
        mt = mp.forward_mp(model, x)
        assert np.all(np.abs(mt.expectation - est.mean) <= 3 * est.standard_error_mean)
        assert np.all(np.abs(mt.variance - est.variance) <= 3 * est.standard_error_variance)

    @pytest.mark.parametrize("t, error", [
        (True, TypeError), (0, ValueError), (-1, ValueError), (2.5, TypeError), ("3", TypeError),
    ])
    def test_bad_sample_count(self, t, error):
        with pytest.raises(error, match="sample count must be an integer >= 1"):
            mc_forward(dropout_dense_model(), np.ones(4), t)
        with pytest.raises(error, match="sample count must be an integer >= 1"):
            mp.MCSample(t)

    def test_numpy_integer_sample_count(self):
        model, x = dropout_dense_model(), np.ones(4)
        batch = mc_forward(model, x, np.int64(3), seed=1)
        assert batch.t == 3 and type(batch.t) is int
        assert np.array_equal(batch.outputs, mc_forward(model, x, 3, seed=1).outputs)
        assert mp.MCSample(np.int64(3)) == mp.MCSample(3)

    @pytest.mark.parametrize("build, x, t, walks", [
        # criterion 10's workload and the toy grid: too wide to stack
        (experiments.reference_cnn, np.zeros((32, 3, 32, 32)), 2, [1, 1]),
        (toy_mlp, np.zeros((2048, 1)), 2, [1, 1]),
        # one example of the toy MLP: 8 passes per walk
        (toy_mlp, np.zeros(1), 30, [8, 8, 8, 6]),
        # an empty batch counts as one row
        (toy_mlp, np.zeros((0, 1)), 30, [8, 8, 8, 6]),
    ], ids=["reference-cnn-32", "toy-mlp-2048", "toy-mlp-1", "toy-mlp-0"])
    def test_passes_per_walk(self, monkeypatch, build, x, t, walks):
        model, seen = build(), []

        def spy(model, xb, sample, passes):
            seen.append(passes)
            return run(model, xb, sample, passes=passes)

        run = network._run_arrays
        monkeypatch.setattr(network, "_run_arrays", spy)
        batch = x.shape[: x.ndim - len(model.input_shape)]
        assert mc_forward(model, x, t).outputs.shape == (t,) + batch + model.output_shape
        assert seen == walks

    @pytest.mark.parametrize("seed, error", [
        (None, TypeError), (1.5, TypeError), ("3", TypeError), (-1, ValueError),
    ])
    def test_bad_seed_fails_before_any_pass(self, monkeypatch, seed, error):
        passes = []
        monkeypatch.setattr(mc.network, "_run_arrays", lambda *a, **k: passes.append(a))
        with pytest.raises(error, match="seed must be an integer >= 0"):
            mc_forward(dropout_dense_model(), np.ones(4), 3, seed=seed)
        with pytest.raises(error, match="seed must be an integer >= 0"):
            sample_stream(seed, 0, 0)
        with pytest.raises(error, match="seed must be an integer >= 0"):
            mp.MCSample(3, seed=seed)
        assert passes == []

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5), 2**70])
    def test_numpy_and_large_integer_seeds(self, seed):
        model, x = dropout_dense_model(), np.ones(4)
        batch = mc_forward(model, x, 4, seed=seed)
        assert np.array_equal(batch.outputs, mc_forward(model, x, 4, seed=int(seed)).outputs)
        mp.MCSample(4, seed=seed)


# 2**128-1, 2**128 and 2**160 are seeds of 4, 5 and 6 words: the sizes at which
# the count of hash constants numpy spends on the seed changes (each also runs
# as an explicit example below)
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128,
                                    2**130 + 17, 2**160]),
                   st.integers(0, 2**140))
_INDICES = st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
                    max_size=4)


class TestStreamKeys:
    """The keyed streams are numpy's SeedSequence streams, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_SEEDS, _INDICES, _INDICES)
    @example(2**128 - 1, [0, 2**32 - 1], [3])
    @example(2**128, [0, 2**32 - 1], [3])
    @example(2**160, [0, 2**32 - 1], [3])
    def test_keys_and_draws_equal_seed_sequence(self, seed, samples, layers):
        keys = mc.stream_keys(seed, samples, layers)
        assert keys.shape == (len(samples), len(layers), 4) and keys.dtype == np.uint64
        for a, sample in enumerate(samples):
            for b, layer in enumerate(layers):
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(sample, layer))
                assert np.array_equal(keys[a, b], ss.generate_state(4, np.uint64))
                ref = np.random.default_rng(ss).random(6)
                assert np.array_equal(mc._generator(keys[a, b]).random(6), ref)

    def test_mc_forward_blocks_of_passes_equal_one_table(self, monkeypatch):
        model, x = dropout_dense_model(), np.ones(4)
        whole = mc_forward(model, x, 7, seed=3)
        monkeypatch.setattr(mc, "_KEY_BLOCK", 3)
        assert np.array_equal(mc_forward(model, x, 7, seed=3).outputs, whole.outputs)

    @pytest.mark.parametrize("samples, layers, error", [
        ([2**32], [0], ValueError), ([0], [-1], ValueError), ([1.0], [0], TypeError),
    ])
    def test_indices_are_32_bit_integers(self, samples, layers, error):
        with pytest.raises(error):
            mc.stream_keys(0, samples, layers)
        with pytest.raises(error):
            sample_stream(0, samples[0], layers[0])

    @pytest.mark.parametrize("seed", [0, 7, 2**70 + 3])
    @pytest.mark.parametrize("sample, layer", [(0, 0), (5, 3), (2**32 - 1, 9)])
    def test_mc_forward_streams_equal_sample_stream(self, seed, sample, layer):
        """sample_stream seeds through numpy's SeedSequence, so it checks the
        vectorized keys mc_forward draws its masks from."""
        keys = mc.stream_keys(seed, (sample,), (layer,))[0, 0]
        ref = sample_stream(seed, sample, layer).random(50)
        assert mc._generator(keys).random(50).tobytes() == ref.tobytes()

    def test_a_stream_cannot_spawn(self):
        gen = mc._generator(mc.stream_keys(0, (1,), (2,))[0, 0])
        with pytest.raises(TypeError):
            gen.spawn(1)


class TestEstimateMoments:
    def test_constant_batch(self):
        est = estimate_moments(np.ones((10, 3)))
        assert np.all(est.variance == 0.0)
        assert np.all(est.mean == 1.0)

    def test_two_point_batch(self):
        est = estimate_moments(np.array([[0.0], [1.0]]))
        assert est.mean[0] == pytest.approx(0.5)
        assert est.variance[0] == pytest.approx(0.5)  # unbiased divisor T-1

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            estimate_moments(np.ones((1, 2)))

    def test_gaussian_coverage(self):
        """Across repeated million-sample draws the true mean lies within
        4 SE nearly always."""
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(100):
            draws = 2.0 + 1.5 * rng.standard_normal(10**6)
            est = estimate_moments(draws[:, None])
            if abs(est.mean[0] - 2.0) <= 4 * est.standard_error_mean[0]:
                hits += 1
        assert hits >= 99

    def test_sample_batch_accessor(self):
        model = dropout_dense_model()
        batch = mc_forward(model, np.ones(4), 100, seed=1)
        est = batch.moments()
        assert est.n_samples == 100
        assert est.mean.shape == (2,)


class TestLayerOracle:
    def test_relu_standard_normal(self):
        est = layer_oracle(mp.ReluSpec(), MomentTensor([0.0], [1.0]), 10**7, seed=2)
        assert abs(est.mean[0] - 0.3989422804014327) <= 3 * est.standard_error_mean[0]

    def test_dropout_point_input(self):
        est = layer_oracle(mp.DropoutSpec(0.3), np.array([1.0]), 10**6, seed=3)
        assert abs(est.mean[0] - 0.7) <= 3 * est.standard_error_mean[0]

    def test_component_restriction_matches_full(self):
        rng = np.random.default_rng(5)
        spec = mp.Conv2DSpec(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2), padding="same")
        mt = MomentTensor(rng.normal(size=(1, 4, 4)), rng.uniform(0.1, 1, (1, 4, 4)))
        full = layer_oracle(spec, mt, 200_000, seed=6)
        fast = layer_oracle(spec, mt, 200_000, seed=6, component=5)
        se = full.standard_error_mean.ravel()[5] + float(fast.standard_error_mean)
        assert abs(full.mean.ravel()[5] - float(fast.mean)) < 4 * se
