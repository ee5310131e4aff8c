"""Properties of the per-kind layer records (``network.KINDS``) over random
architectures that mix all seven layer kinds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import momentprop as mp
from momentprop import mc, network
from momentprop.moments import MomentTensor
from momentprop.network import kind_of, trace_det, trace_mp
from momentprop.training import override_dropout


@st.composite
def models(draw):
    """A valid model: an optional image stage of conv, pool, ReLU and dropout
    layers closed by a flatten, then dense, ReLU and dropout layers, and a
    regression output or a softmax head."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    def rate():
        return draw(st.sampled_from((0.0, 0.1, 0.5)))

    layers = []
    if draw(st.booleans()):
        shape = input_shape = (ints(1, 3), ints(3, 9), ints(3, 9))
        image_ops = st.sampled_from(("conv", "pool", "relu", "dropout"))
        for op in draw(st.lists(image_ops, min_size=2, max_size=6)):
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


def example_input(model, seed=0):
    return np.random.default_rng(seed).standard_normal(model.input_shape)


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
        shapes = tuple(out.shape for out in trace_det(model, example_input(model)))
        assert shapes == model.layer_shapes

    @settings(max_examples=80, deadline=None)
    @given(models())
    def test_zero_rate_mp_equals_det_before_softmax(self, model):
        zero = override_dropout(model, (0.0,) * len(model.dropout_rates))
        x = example_input(zero)
        td, tm = trace_det(zero, x), trace_mp(zero, x)
        assert len(td) == len(tm) == len(zero.layers)
        for layer, det, moments in zip(zero.layers, td, tm):
            if isinstance(layer, mp.SoftmaxSpec):
                break
            assert isinstance(moments, MomentTensor)
            assert moments.expectation.tobytes() == det.tobytes()
            assert not moments.variance.any()


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
        mc_calls = self.wrap(monkeypatch, mc, ("dropout_sample", "sample_stream"))
        mc.mc_forward(model, x, 3, seed=0)
        assert det_calls == {**dict.fromkeys(self.DET, 3), "dropout_det": 0}
        assert mc_calls == {"dropout_sample": 3, "sample_stream": 3}

    @pytest.mark.parametrize("layer", [mp.ReluSpec(), mp.DenseSpec(np.ones((3, 2)), np.zeros(2))])
    def test_layer_oracle_uses_det(self, monkeypatch, layer):
        name = kind_of(layer).name + "_det"
        calls = self.wrap(monkeypatch, network, (name,))
        mc.layer_oracle(layer, MomentTensor(np.ones(3), np.ones(3)), 10, chunk_size=4)
        assert calls[name] == 3
