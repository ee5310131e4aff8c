"""Properties of the per-kind layer records (``network.KINDS``) over random
architectures that mix all seven layer kinds."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import momentprop as mp
from momentprop import mc, network
from momentprop.moments import MomentTensor
from momentprop.network import (
    Deterministic,
    MCSample,
    MomentPropagation,
    kind_of,
)
from momentprop.training import override_dropout
from oracles import layer_oracle, per_layer


@st.composite
def models(draw):
    """A valid model: an optional image stage of conv, pool, ReLU and dropout
    layers closed by a flatten (possibly the first layer), then dense, ReLU
    and dropout layers, and a regression output or a softmax head."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    def rate():
        return draw(st.sampled_from((0.0, 0.1, 0.5)))

    layers = []
    if draw(st.booleans()):
        shape = input_shape = (ints(1, 3), ints(3, 9), ints(3, 9))
        image_ops = st.sampled_from(("conv", "pool", "relu", "dropout"))
        for op in draw(st.lists(image_ops, max_size=6)):
            if op == "conv":
                oc, k = ints(1, 4), ints(1, 3)
                layer = mp.Conv2DSpec(
                    rng.normal(size=(oc, shape[0], k, k)), rng.normal(size=oc),
                    padding=draw(st.sampled_from(("same", "valid"))), stride=ints(1, 2),
                )
            elif op == "pool":
                layer = mp.MaxPool2DSpec(ints(2, 3))
            else:
                layer = mp.ReluSpec() if op == "relu" else mp.DropoutSpec(rate())
            try:
                shape = kind_of(layer).out_shape(layer, shape)
            except ValueError:
                continue  # cannot follow this shape (a pool or kernel larger than the map)
            layers.append(layer)
        layers.append(mp.FlattenSpec())
        width = int(np.prod(shape))
    else:
        input_shape = (ints(1, 6),)
        width = input_shape[0]
    for op in draw(st.lists(st.sampled_from(("dense", "relu", "dropout")), max_size=5)):
        if op == "dense":
            out = ints(1, 8)
            layers.append(mp.DenseSpec(rng.normal(size=(width, out)), rng.normal(size=out)))
            width = out
        else:
            layers.append(mp.ReluSpec() if op == "relu" else mp.DropoutSpec(rate()))
    if draw(st.booleans()):
        k = ints(2, 4)
        layers += [mp.DenseSpec(rng.normal(size=(width, k)), rng.normal(size=k)), mp.SoftmaxSpec()]
        return mp.ModelSpec(tuple(layers), input_shape, "classification")
    layers.append(mp.DenseSpec(rng.normal(size=(width, 1)), rng.normal(size=1)))
    return mp.ModelSpec(tuple(layers), input_shape, "regression", tau=0.5 * ints(1, 8))


def example_input(model, seed=0, batch=None):
    shape = model.input_shape if batch is None else (batch,) + model.input_shape
    return np.random.default_rng(seed).standard_normal(shape)


def stack(input_shape, *layers):
    """A regression model: the given layers, then a dense output."""
    width = int(np.prod(input_shape))
    head = mp.DenseSpec(np.linspace(-1.0, 1.0, width)[:, None], np.zeros(1))
    return mp.ModelSpec(tuple(layers) + (head,), input_shape, "regression", tau=1.0)


# stacks whose first layers hand the caller's array (or the x[None] view of a
# single example, or a flatten view of either) to an elementwise layer
EDGE_STACKS = {
    "flatten-relu": stack((2, 3, 3), mp.FlattenSpec(), mp.ReluSpec()),
    "flatten-dropout": stack((2, 3, 3), mp.FlattenSpec(), mp.DropoutSpec(0.5)),
    "dropout-first": stack((5,), mp.DropoutSpec(0.5), mp.ReluSpec()),
    "relu-first": stack((5,), mp.ReluSpec(), mp.DropoutSpec(0.5), mp.ReluSpec()),
    "image-relu-first": stack((2, 3, 3), mp.ReluSpec(), mp.DropoutSpec(0.5), mp.FlattenSpec()),
}


def every_forward(model):
    """Every public forward, each as a function of the input."""
    stream = lambda i: mc.sample_stream(2, 0, i)  # noqa: E731
    calls = {
        "forward_det": lambda x: mp.forward_det(model, x),
        "forward_mp": lambda x: mp.forward_mp(model, x),
        "mc_forward": lambda x: mc.mc_forward(model, x, 3, seed=1),
        "forward_sample": lambda x: network.forward_sample(model, x, stream),
    }
    for mode in (Deterministic(), MomentPropagation(), MCSample(3, seed=1)):
        calls[f"predict-{type(mode).__name__}"] = lambda x, mode=mode: mp.predict(model, x, mode)
    for k in range(1, len(model.layers)):
        calls[f"forward_det-upto{k}"] = lambda x, k=k: mp.forward_det(model, x, upto=k)
        calls[f"forward_mp-upto{k}"] = lambda x, k=k: mp.forward_mp(model, x, upto=k)
        calls[f"forward_sample-upto{k}"] = lambda x, k=k: network.forward_sample(
            model, x, stream, upto=k
        )
    return calls


def fresh_walk(model, xb, rng_for_layer=None):
    """Each layer's output on a batch, every op making a new array."""
    h, outs = xb, []
    for idx, layer in enumerate(model.layers):
        if rng_for_layer is not None and isinstance(layer, mp.DropoutSpec):
            h = h * (rng_for_layer(idx).random(h.shape) >= layer.rate)
        else:
            h = kind_of(layer).det(h, layer)
        outs.append(h)
    return outs


def assert_input_untouched(model, x):
    before = x.copy()
    for name, call in every_forward(model).items():
        call(x)
        assert x.tobytes() == before.tobytes(), f"{name} wrote into its input"


class TestKindProperties:
    @settings(max_examples=80, deadline=None)
    @given(models())
    def test_save_load_save_bytes_identical(self, tmp_path_factory, model):
        path = tmp_path_factory.mktemp("kinds")
        mp.save_model(model, path / "a.mpmdl")
        loaded = mp.load_model(path / "a.mpmdl")
        mp.save_model(loaded, path / "b.mpmdl")
        assert (path / "a.mpmdl").read_bytes() == (path / "b.mpmdl").read_bytes()
        x = example_input(model)
        assert mp.forward_det(loaded, x).tobytes() == mp.forward_det(model, x).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(models())
    def test_layer_shapes_match_trace_det(self, model):
        shapes = tuple(out.shape for out in per_layer(mp.forward_det, model, example_input(model)))
        assert shapes == model.layer_shapes
        assert model.dropouts == tuple(
            i for i, l in enumerate(model.layers) if kind_of(l).name == "dropout")

    @settings(max_examples=80, deadline=None)
    @given(models())
    def test_zero_rate_mp_equals_det_before_softmax(self, model):
        zero = override_dropout(model, (0.0,) * len(model.dropout_rates))
        x = example_input(zero)
        td, tm = per_layer(mp.forward_det, zero, x), per_layer(mp.forward_mp, zero, x)
        assert len(td) == len(tm) == len(zero.layers)
        for layer, det, moments in zip(zero.layers, td, tm):
            if isinstance(layer, mp.SoftmaxSpec):
                break
            assert isinstance(moments, MomentTensor)
            assert moments.expectation.tobytes() == det.tobytes()
            assert not moments.variance.any()


class TestInputOwnership:
    """No forward writes into the caller's array, and in-place steps leave
    every output bitwise that of a walk in which each op makes a new array."""

    @settings(max_examples=80, deadline=None)
    @given(models(), st.sampled_from((None, 1, 3)))
    def test_no_forward_writes_into_its_input(self, model, batch):
        assert_input_untouched(model, example_input(model, batch=batch))

    @pytest.mark.parametrize("batch", [None, 1, 4])
    @pytest.mark.parametrize("name", sorted(EDGE_STACKS))
    def test_edge_stacks(self, name, batch):
        model = EDGE_STACKS[name]
        assert_input_untouched(model, example_input(model, batch=batch))
        self.assert_walks_equal_fresh(model, example_input(model, seed=1, batch=batch))

    @settings(max_examples=80, deadline=None)
    @given(models(), st.sampled_from((None, 1, 3)))
    def test_walks_equal_fresh_arrays(self, model, batch):
        self.assert_walks_equal_fresh(model, example_input(model, batch=batch))

    @staticmethod
    def assert_walks_equal_fresh(model, x):
        single = x.shape == model.input_shape
        xb = x[None] if single else x
        row = (lambda a: a[0]) if single else (lambda a: a)  # noqa: E731
        outs = fresh_walk(model, xb)
        for k, out in enumerate(outs, start=1):
            assert mp.forward_det(model, x, upto=k).tobytes() == row(out).tobytes()
            # mp runs its variance-free prefix through the same walker
            if k <= model.det_prefix:
                assert mp.forward_mp(model, x, upto=k).expectation.tobytes() == row(out).tobytes()
        refs = [fresh_walk(model, xb, lambda idx, i=i: mc.sample_stream(4, i, idx))[-1]
                for i in range(3)]
        # masks this small are drawn fresh; with a draw block of 5 and no
        # fresh-draw size, every mask spans several ragged scratch blocks
        for block, fresh in ((network.DRAW_BLOCK, network.FRESH_DRAW), (5, 0)):
            with mock.patch.object(network, "DRAW_BLOCK", block), mock.patch.object(
                network, "FRESH_DRAW", fresh
            ):
                batch = mc.mc_forward(model, x, 3, seed=4)
                sampled = network.forward_sample(model, x, lambda i: mc.sample_stream(4, 1, i))
            for i in range(3):
                assert batch.outputs[i].tobytes() == row(refs[i]).tobytes()
            assert sampled.tobytes() == row(refs[1]).tobytes()


class TestStackedPasses:
    """mc_forward runs its passes G at a time, in one walk over the batch
    repeated G times; every pass stays bitwise what forward_sample gives
    with that pass's streams."""

    @settings(max_examples=60, deadline=None)
    @given(models(), st.sampled_from((None, 1, 3)), st.sampled_from((1, 2, 5, 33)),
           st.sampled_from(("one", "two", "all")), st.booleans())
    def test_every_pass_equals_forward_sample(self, model, batch, t, group, scratch):
        x = example_input(model, batch=batch)
        widest = max(math.prod(s) for s in (model.input_shape,) + model.layer_shapes)
        g = {"one": 1, "two": 2, "all": t}[group]
        seen, run = [], network._run_arrays

        def spy(*args, passes):
            seen.append(passes)
            return run(*args, passes=passes)

        # key blocks of 3 passes, which groups of 2 and of T straddle; with
        # scratch, every mask is drawn through ragged 5-element blocks
        with mock.patch.object(mc, "STACK_BYTES", 8 * (batch or 1) * widest * g), \
                mock.patch.object(mc, "_KEY_BLOCK", 3), \
                mock.patch.object(network, "_run_arrays", spy), \
                mock.patch.object(network, "DRAW_BLOCK", 5 if scratch else network.DRAW_BLOCK), \
                mock.patch.object(network, "FRESH_DRAW", 0 if scratch else network.FRESH_DRAW):
            outputs = mc.mc_forward(model, x, t, seed=6).outputs
        assert seen == [g] * (t // g) + [t % g] * (t % g > 0)
        for k in range(t):
            ref = network.forward_sample(model, x, lambda i, k=k: mc.sample_stream(6, k, i))
            assert outputs[k].tobytes() == ref.tobytes()


def every_kind_model(seed=0):
    rng = np.random.default_rng(seed)
    return mp.ModelSpec(
        layers=(
            mp.Conv2DSpec(rng.normal(size=(2, 1, 3, 3)), np.zeros(2)), mp.ReluSpec(),
            mp.MaxPool2DSpec(2), mp.DropoutSpec(0.2), mp.FlattenSpec(),
            mp.DenseSpec(rng.normal(size=(8, 3)), np.zeros(3)), mp.SoftmaxSpec(),
        ),
        input_shape=(1, 4, 4), task="classification",
    )


class TestWalkersCallModuleNames:
    """Each walker reaches a kind's op through its module-level name when
    called, so a wrapper assigned to that name (as a span recorder does)
    sees every layer call."""

    DET = ("conv2d_det", "relu_det", "maxpool2d_det", "dropout_det", "dense_det", "softmax_det")
    MP = ("conv2d_mp", "relu_mp", "maxpool2d_mp", "dropout_mp", "dense_mp", "softmax_mp")

    @staticmethod
    def wrap(monkeypatch, module, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            fn = getattr(module, name)

            def counted(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    def test_det_and_mp(self, monkeypatch):
        model, x = every_kind_model(), np.ones((2, 1, 4, 4))
        calls = self.wrap(monkeypatch, network, self.DET + self.MP)
        mp.forward_det(model, x)
        # the variance-free prefix (conv, relu, pool) runs as det ops
        mp.forward_mp(model, x)
        assert calls == {**dict.fromkeys(self.DET, 1), "conv2d_det": 2, "relu_det": 2,
                         "maxpool2d_det": 2, **dict.fromkeys(self.MP, 0),
                         "dropout_mp": 1, "dense_mp": 1, "softmax_mp": 1}

    def test_mc(self, monkeypatch):
        model, x = every_kind_model(), np.ones((2, 1, 4, 4))
        det_calls = self.wrap(monkeypatch, network, self.DET)
        mc_calls = self.wrap(monkeypatch, mc, ("dropout_sample", "stream_keys"))
        # two 32-element conv outputs are 512 bytes per pass: the default
        # budget stacks all three passes into one walk, 1024 bytes two, 512 one
        for stack_bytes, walks in ((mc.STACK_BYTES, 1), (1024, 2), (512, 3)):
            monkeypatch.setattr(mc, "STACK_BYTES", stack_bytes)
            for calls in (det_calls, mc_calls):
                calls.update(dict.fromkeys(calls, 0))
            mc.mc_forward(model, x, 3, seed=0)
            # each op runs once per walk over the stacked passes
            assert det_calls == {**dict.fromkeys(self.DET, walks), "dropout_det": 0}
            # one key derivation for all three passes
            assert mc_calls == {"dropout_sample": walks, "stream_keys": 1}

    @pytest.mark.parametrize("layer", [mp.ReluSpec(), mp.DenseSpec(np.ones((3, 2)), np.zeros(2))])
    def test_layer_oracle_uses_det(self, monkeypatch, layer):
        name = kind_of(layer).name + "_det"
        calls = self.wrap(monkeypatch, network, (name,))
        layer_oracle(layer, MomentTensor(np.ones(3), np.ones(3)), 10, chunk_size=4)
        assert calls[name] == 3


class TestPropagationProperties:
    @settings(max_examples=80, deadline=None)
    @given(models(), st.integers(0, 2**32 - 1), st.sampled_from((1.0, 30.0)))
    def test_mp_variance_finite_and_nonnegative_at_every_layer(self, model, seed, scale):
        x = scale * example_input(model, seed=seed)
        for layer, out in zip(model.layers, per_layer(mp.forward_mp, model, x)):
            if isinstance(out, MomentTensor):
                assert np.isfinite(out.expectation).all() and np.isfinite(out.variance).all()
                assert (out.variance >= 0.0).all(), kind_of(layer).name
            else:  # a softmax head's probabilities
                assert np.isfinite(out).all()

    @settings(max_examples=80, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(max_dims=4, max_side=5),
                   elements=st.floats(allow_nan=False, allow_infinity=False)),
        st.booleans(),
    )
    def test_rate_zero_dropout_is_the_identity(self, x, in_place):
        spec = mp.DropoutSpec(0.0)

        def run(op):
            arg = x.copy()
            return op(arg, arg if in_place else None)

        assert run(lambda a, o: mp.dropout_det(a, spec, o)).tobytes() == x.tobytes()
        for draws in (None, np.empty(3)):
            sampled = run(lambda a, o: mp.dropout_sample(a, spec, np.random.default_rng(0), o,
                                                         draws))
            assert sampled.tobytes() == x.tobytes()
        variance = np.abs(x[::-1])
        moments = mp.dropout_mp(MomentTensor(x, variance), spec)
        assert moments.expectation.tobytes() == x.tobytes()
        assert moments.variance.tobytes() == variance.tobytes()


class TestNonFiniteInputs:
    """Every forward refuses NaN and inf input entries with a ValueError that
    counts them."""

    @settings(max_examples=40, deadline=None)
    @given(models(), st.sampled_from((None, 1, 3)), st.sampled_from((np.nan, np.inf, -np.inf)),
           st.integers(0, 10**6))
    def test_every_forward_refuses_non_finite_input(self, model, batch, bad, where):
        x = example_input(model, batch=batch)
        x.flat[where % x.size] = bad
        for name, call in every_forward(model).items():
            with pytest.raises(ValueError, match="1 non-finite"):
                call(x)
