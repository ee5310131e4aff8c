"""Sequential model composition, the three execution modes, and model files.

A model is an immutable stack of layer specs plus an input shape, a task tag
and (for regression) the observation-noise precision tau.  The same stack is
executed deterministically, with sampled dropout masks, or by propagating
expectation/variance in a single pass.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .layers import (
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    LayerSpec,
    MaxPool2DSpec,
    ReluSpec,
    SoftmaxSpec,
    _conv_geometry,
    conv2d_det,
    conv2d_mp,
    dense_det,
    dense_mp,
    dropout_det,
    dropout_mp,
    dropout_sample,
    maxpool2d_det,
    maxpool2d_mp,
    relu_det,
    relu_mp,
    softmax_det,
    softmax_mp,
)
from .moments import MomentTensor

TASK_REGRESSION = "regression"
TASK_CLASSIFICATION = "classification"


class ModelIOError(Exception):
    """Base class for model file problems."""


class MalformedModelError(ModelIOError):
    pass


class ModelVersionError(ModelIOError):
    pass


class ModelChecksumError(ModelIOError):
    pass


@dataclass(frozen=True)
class ModelMeta:
    name: str = ""
    seed: int | None = None
    config_digest: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "seed": self.seed, "config_digest": self.config_digest}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelMeta":
        return cls(
            name=d.get("name", ""),
            seed=d.get("seed"),
            config_digest=d.get("config_digest", ""),
        )


def _shape_after(layer: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(layer, (DropoutSpec, ReluSpec)):
        return shape
    if isinstance(layer, DenseSpec):
        if len(shape) != 1 or shape[0] != layer.in_dim:
            raise ValueError(f"dense({layer.in_dim}->{layer.out_dim}) cannot follow shape {shape}")
        return (layer.out_dim,)
    if isinstance(layer, Conv2DSpec):
        if len(shape) != 3 or shape[0] != layer.in_channels:
            raise ValueError(f"conv2d expects (C={layer.in_channels}, H, W), got {shape}")
        kh, kw = layer.kernel_size
        oh, ow, _ = _conv_geometry(shape[1], shape[2], kh, kw, layer.stride, layer.padding)
        return (layer.out_channels, oh, ow)
    if isinstance(layer, MaxPool2DSpec):
        if len(shape) != 3:
            raise ValueError(f"maxpool2d expects (C, H, W), got {shape}")
        oh, ow = shape[1] // layer.size, shape[2] // layer.size
        if oh == 0 or ow == 0:
            raise ValueError(f"{layer.size}x{layer.size} pooling cannot follow shape {shape}")
        return (shape[0], oh, ow)
    if isinstance(layer, FlattenSpec):
        return (int(np.prod(shape)),)
    if isinstance(layer, SoftmaxSpec):
        if len(shape) != 1 or shape[0] < 2:
            raise ValueError(f"softmax expects a logit vector of length >= 2, got {shape}")
        return shape
    raise TypeError(f"unknown layer spec {type(layer).__name__}")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative architecture plus learned parameters.

    Immutable after construction; forward passes in any mode may run
    concurrently on the same instance.
    """

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, ...]
    task: str
    tau: float | None = None
    metadata: ModelMeta = field(default_factory=ModelMeta)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        if self.task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if self.task == TASK_CLASSIFICATION and not isinstance(self.layers[-1], SoftmaxSpec):
            raise ValueError("classification models must end in softmax")
        if self.task == TASK_REGRESSION:
            if not isinstance(self.layers[-1], DenseSpec):
                raise ValueError("regression models must end in a linear dense layer")
            if self.tau is None or not (self.tau > 0.0):
                raise ValueError("regression models need a positive noise precision tau")
        self.layer_shapes  # validates the whole chain

    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Output shape after each layer, starting from input_shape."""
        shapes = []
        shape = self.input_shape
        for layer in self.layers:
            shape = _shape_after(layer, shape)
            shapes.append(shape)
        return tuple(shapes)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.layer_shapes[-1]

    @cached_property
    def det_prefix(self) -> int:
        """Number of leading layers before the first dropout or softmax.

        No variance exists before the first dropout, so propagation runs
        these layers as deterministic ops and lifts their output once.
        """
        return next(
            (i for i, l in enumerate(self.layers) if isinstance(l, (DropoutSpec, SoftmaxSpec))),
            len(self.layers),
        )

    @property
    def dropout_rates(self) -> tuple[float, ...]:
        return tuple(l.rate for l in self.layers if isinstance(l, DropoutSpec))


# ---------------------------------------------------------------------------
# forward modes


@dataclass(frozen=True)
class Deterministic:
    pass


@dataclass(frozen=True)
class MCSample:
    t: int
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.t, int) and self.t >= 1):
            raise ValueError(f"sample count must be an integer >= 1, got {self.t!r}")


@dataclass(frozen=True)
class MomentPropagation:
    pass


ForwardMode = Deterministic | MCSample | MomentPropagation


def _as_batch(model: ModelSpec, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape == model.input_shape:
        return x[None, ...], True
    if x.ndim == len(model.input_shape) + 1 and x.shape[1:] == model.input_shape:
        return x, False
    raise ValueError(f"input shape {x.shape} does not match model input {model.input_shape}")


def _run_arrays(model: ModelSpec, xb, dropout_fn, upto=None, collect=None):
    """Walk the stack on a batched array; dropout_fn(h, spec, index) decides
    the dropout behaviour for the mode."""
    h = xb
    stop = len(model.layers) if upto is None else upto
    for idx, layer in enumerate(model.layers[:stop]):
        if isinstance(layer, DropoutSpec):
            h = dropout_fn(h, layer, idx)
        elif isinstance(layer, DenseSpec):
            h = dense_det(h, layer)
        elif isinstance(layer, Conv2DSpec):
            h = conv2d_det(h, layer)
        elif isinstance(layer, MaxPool2DSpec):
            h = maxpool2d_det(h, layer)
        elif isinstance(layer, ReluSpec):
            h = relu_det(h)
        elif isinstance(layer, FlattenSpec):
            h = h.reshape(h.shape[0], -1)
        elif isinstance(layer, SoftmaxSpec):
            h = softmax_det(h)
        if collect is not None:
            collect.append(h)
    return h


def _run_mp(model: ModelSpec, xb, upto=None, collect=None):
    """Run the variance-free prefix deterministically, lift its output to
    zero variance and fold the moment ops over the remaining layers.

    Returns a MomentTensor, or a plain probability array once a softmax has
    consumed the variance channel.
    """
    stop = len(model.layers[:upto])
    start = min(model.det_prefix, stop)
    points = [] if collect is not None else None
    h = _run_arrays(model, xb, None, upto=start, collect=points)  # the prefix has no dropout
    if collect is not None:
        collect.extend(MomentTensor._unchecked(p, np.zeros_like(p)) for p in points)
    out = MomentTensor._unchecked(h, np.zeros_like(h))
    for layer in model.layers[start:stop]:
        if isinstance(out, np.ndarray):
            raise ValueError("no layer may follow softmax in propagation mode")
        if isinstance(layer, DropoutSpec):
            out = dropout_mp(out, layer)
        elif isinstance(layer, DenseSpec):
            out = dense_mp(out, layer)
        elif isinstance(layer, Conv2DSpec):
            out = conv2d_mp(out, layer)
        elif isinstance(layer, MaxPool2DSpec):
            out = maxpool2d_mp(out, layer)
        elif isinstance(layer, ReluSpec):
            out = relu_mp(out)
        elif isinstance(layer, FlattenSpec):
            b = out.expectation.shape[0]
            out = MomentTensor._unchecked(
                out.expectation.reshape(b, -1), out.variance.reshape(b, -1)
            )
        elif isinstance(layer, SoftmaxSpec):
            out = softmax_mp(out)
        if collect is not None:
            collect.append(out)
    return out


def forward_det(model: ModelSpec, x, upto=None):
    """Plain forward pass; dropout layers rescale by their keep rate."""
    xb, squeeze = _as_batch(model, x)
    out = _run_arrays(model, xb, lambda h, l, i: dropout_det(h, l), upto=upto)
    return out[0] if squeeze else out


def forward_sample(model: ModelSpec, x, rng_for_layer, upto=None):
    """Stochastic forward pass; rng_for_layer(layer_index) must yield the
    generator used for that dropout layer's mask."""
    xb, squeeze = _as_batch(model, x)
    out = _run_arrays(
        model, xb, lambda h, l, i: dropout_sample(h, l, rng_for_layer(i)), upto=upto
    )
    return out[0] if squeeze else out


def forward_mp(model: ModelSpec, x, upto=None):
    """Single-pass expectation/variance forward.

    Regression models return a MomentTensor; classification models return the
    expected probability vector (no variance channel after softmax).
    """
    xb, squeeze = _as_batch(model, x)
    out = _run_mp(model, xb, upto=upto)
    if not squeeze:
        return out
    if isinstance(out, MomentTensor):
        return MomentTensor(out.expectation[0], out.variance[0])
    return out[0]


def trace_det(model: ModelSpec, x) -> list:
    """Per-layer outputs of the deterministic forward (single example)."""
    xb, _ = _as_batch(model, x)
    outs: list = []
    _run_arrays(model, xb, lambda h, l, i: dropout_det(h, l), collect=outs)
    return [o[0] for o in outs]


def trace_mp(model: ModelSpec, x) -> list:
    """Per-layer moment outputs of the propagation forward (single example)."""
    xb, _ = _as_batch(model, x)
    outs: list = []
    _run_mp(model, xb, collect=outs)
    result = []
    for o in outs:
        if isinstance(o, MomentTensor):
            result.append(MomentTensor(o.expectation[0], o.variance[0]))
        else:
            result.append(o[0])
    return result


def forward(model: ModelSpec, x, mode: ForwardMode = Deterministic()):
    """Dispatch on the execution mode.

    Deterministic -> point output array; MCSample -> SampleBatch of stacked
    stochastic outputs; MomentPropagation -> MomentTensor (or probabilities
    after a softmax head).
    """
    if isinstance(mode, Deterministic):
        return forward_det(model, x)
    if isinstance(mode, MomentPropagation):
        return forward_mp(model, x)
    if isinstance(mode, MCSample):
        from .mc import mc_forward

        return mc_forward(model, x, mode.t, mode.seed)
    raise TypeError(f"unknown forward mode {mode!r}")


# ---------------------------------------------------------------------------
# predictive distributions


@dataclass(frozen=True)
class GaussianPrediction:
    """Gaussian predictive output for regression.

    ``variance`` is the propagated (epistemic) variance; the observation noise
    1/tau is added on top by ``total_variance``.  tau=None marks a combined
    prediction whose ``variance`` already is the total predictive variance.
    """

    mean: np.ndarray
    variance: np.ndarray
    tau: float | None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        var = np.asarray(self.variance, dtype=np.float64)
        if mean.shape != var.shape:
            raise ValueError("mean and variance shapes differ")
        if var.size and not np.all(var >= 0.0):
            raise ValueError("predictive variance must be >= 0")
        if self.tau is not None and not (self.tau > 0.0):
            raise ValueError("tau must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)

    @property
    def total_variance(self) -> np.ndarray:
        if self.tau is None:
            return self.variance
        return self.variance + 1.0 / self.tau


@dataclass(frozen=True)
class CategoricalPrediction:
    """Categorical predictive output; probs sums to one along the last axis."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape[-1] < 2:
            raise ValueError("need at least two classes")
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if not np.allclose(p.sum(axis=-1), 1.0, atol=1e-8):
            raise ValueError("probabilities must sum to 1")
        object.__setattr__(self, "probs", p)

    def entropy(self) -> np.ndarray:
        from .metrics import entropy

        return entropy(self.probs)

    def one_minus_max(self) -> np.ndarray:
        from .metrics import one_minus_max

        return one_minus_max(self.probs)


PredictiveDistribution = GaussianPrediction | CategoricalPrediction


def predict(model: ModelSpec, x, mode: ForwardMode = Deterministic()) -> PredictiveDistribution:
    """Run the model and wrap the output as a predictive distribution."""
    if model.task == TASK_REGRESSION:
        if isinstance(mode, Deterministic):
            out = forward_det(model, x)
            mean = out[..., 0]
            return GaussianPrediction(mean, np.zeros_like(mean), model.tau)
        if isinstance(mode, MomentPropagation):
            mt = forward_mp(model, x)
            return GaussianPrediction(mt.expectation[..., 0], mt.variance[..., 0], model.tau)
        if isinstance(mode, MCSample):
            batch = forward(model, x, mode)
            est = batch.moments()
            return GaussianPrediction(est.mean[..., 0], est.variance[..., 0], model.tau)
        raise TypeError(f"unknown forward mode {mode!r}")
    # classification
    if isinstance(mode, Deterministic):
        return CategoricalPrediction(forward_det(model, x))
    if isinstance(mode, MomentPropagation):
        return CategoricalPrediction(forward_mp(model, x))
    if isinstance(mode, MCSample):
        batch = forward(model, x, mode)
        return CategoricalPrediction(batch.outputs.mean(axis=0))
    raise TypeError(f"unknown forward mode {mode!r}")


# ---------------------------------------------------------------------------
# serialization: magic(8) | version(u32 LE) | manifest_len(u64 LE) |
# manifest JSON (UTF-8) | float32 LE weight blobs in manifest order | crc32

_MAGIC = b"MPMDLv01"
_VERSION = 1
MODEL_FILE_EXTENSION = ".mpmdl"


def _layer_entry(layer: LayerSpec) -> dict:
    if isinstance(layer, DropoutSpec):
        return {"kind": "dropout", "rate": layer.rate}
    if isinstance(layer, DenseSpec):
        return {"kind": "dense", "in_dim": layer.in_dim, "out_dim": layer.out_dim}
    if isinstance(layer, Conv2DSpec):
        return {
            "kind": "conv2d",
            "out_channels": layer.out_channels,
            "in_channels": layer.in_channels,
            "kernel_size": list(layer.kernel_size),
            "padding": layer.padding,
            "stride": layer.stride,
        }
    if isinstance(layer, MaxPool2DSpec):
        return {"kind": "maxpool2d", "size": layer.size}
    if isinstance(layer, ReluSpec):
        return {"kind": "relu"}
    if isinstance(layer, FlattenSpec):
        return {"kind": "flatten"}
    if isinstance(layer, SoftmaxSpec):
        return {"kind": "softmax"}
    raise TypeError(f"unknown layer spec {type(layer).__name__}")


def _layer_tensors(layer: LayerSpec) -> list[np.ndarray]:
    if isinstance(layer, DenseSpec):
        return [layer.weights, layer.bias]
    if isinstance(layer, Conv2DSpec):
        return [layer.kernel, layer.bias]
    return []


def _tensor_shapes(entry: dict) -> list[tuple[int, ...]]:
    kind = entry["kind"]
    if kind == "dense":
        return [(entry["in_dim"], entry["out_dim"]), (entry["out_dim"],)]
    if kind == "conv2d":
        kh, kw = entry["kernel_size"]
        return [
            (entry["out_channels"], entry["in_channels"], kh, kw),
            (entry["out_channels"],),
        ]
    return []


def _layer_from_entry(entry: dict, tensors: list[np.ndarray]) -> LayerSpec:
    kind = entry["kind"]
    if kind == "dropout":
        return DropoutSpec(rate=float(entry["rate"]))
    if kind == "dense":
        return DenseSpec(weights=tensors[0], bias=tensors[1])
    if kind == "conv2d":
        return Conv2DSpec(
            kernel=tensors[0],
            bias=tensors[1],
            padding=entry["padding"],
            stride=int(entry["stride"]),
        )
    if kind == "maxpool2d":
        return MaxPool2DSpec(size=int(entry["size"]))
    if kind == "relu":
        return ReluSpec()
    if kind == "flatten":
        return FlattenSpec()
    if kind == "softmax":
        return SoftmaxSpec()
    raise MalformedModelError(f"unknown layer kind {kind!r} in manifest")


def save_model(model: ModelSpec, path) -> None:
    """Write the model to a single self-describing binary file."""
    manifest = {
        "task": model.task,
        "input_shape": list(model.input_shape),
        "tau": model.tau,
        "metadata": model.metadata.to_dict(),
        "layers": [_layer_entry(l) for l in model.layers],
    }
    blob = bytearray()
    blob += _MAGIC
    blob += np.uint32(_VERSION).tobytes()
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    blob += np.uint64(len(manifest_bytes)).tobytes()
    blob += manifest_bytes
    for layer in model.layers:
        for tensor in _layer_tensors(layer):
            blob += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    blob += np.uint32(zlib.crc32(bytes(blob)) & 0xFFFFFFFF).tobytes()
    Path(path).write_bytes(bytes(blob))


def load_model(path) -> ModelSpec:
    """Read a model file, verifying magic, version, checksum, and layout."""
    raw = Path(path).read_bytes()
    header = len(_MAGIC) + 4 + 8
    if len(raw) < header + 4:
        raise MalformedModelError("file too short to be a model file")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise MalformedModelError("bad magic; not a model file")
    version = int(np.frombuffer(raw, dtype="<u4", count=1, offset=len(_MAGIC))[0])
    if version != _VERSION:
        raise ModelVersionError(f"unsupported model format version {version}")
    stored_crc = int(np.frombuffer(raw, dtype="<u4", count=1, offset=len(raw) - 4)[0])
    if (zlib.crc32(raw[:-4]) & 0xFFFFFFFF) != stored_crc:
        raise ModelChecksumError("checksum mismatch; file truncated or corrupted")
    manifest_len = int(np.frombuffer(raw, dtype="<u8", count=1, offset=len(_MAGIC) + 4)[0])
    body = raw[header:-4]
    if manifest_len > len(body):
        raise MalformedModelError("declared manifest length exceeds file size")
    try:
        manifest = json.loads(body[:manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedModelError(f"manifest is not valid JSON: {exc}") from exc
    entries = manifest.get("layers")
    if not isinstance(entries, list):
        raise MalformedModelError("manifest has no layer list")
    shapes = [_tensor_shapes(e) for e in entries]
    expected = sum(int(np.prod(s)) for per_layer in shapes for s in per_layer) * 4
    blobs = body[manifest_len:]
    if len(blobs) != expected:
        raise MalformedModelError(
            f"manifest declares {expected} weight bytes but file has {len(blobs)}"
        )
    layers = []
    offset = 0
    for entry, per_layer in zip(entries, shapes):
        tensors = []
        for shape in per_layer:
            count = int(np.prod(shape))
            tensors.append(
                np.frombuffer(blobs, dtype="<f4", count=count, offset=offset)
                .reshape(shape)
                .astype(np.float64)
            )
            offset += count * 4
        layers.append(_layer_from_entry(entry, tensors))
    try:
        return ModelSpec(
            layers=tuple(layers),
            input_shape=tuple(manifest["input_shape"]),
            task=manifest["task"],
            tau=manifest.get("tau"),
            metadata=ModelMeta.from_dict(manifest.get("metadata", {})),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedModelError(f"manifest describes an invalid model: {exc}") from exc


# ---------------------------------------------------------------------------
# builders


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def mlp_regression(
    in_dim: int,
    hidden: tuple[int, ...] = (50,),
    dropout_rate: float = 0.05,
    seed: int = 0,
    tau: float = 1.0,
    name: str = "mlp",
) -> ModelSpec:
    """Fully connected regression net: [dense-relu-dropout]*H then a linear
    output node.  He-style fan-in uniform initialization."""
    rng = np.random.default_rng(seed)
    layers: list[LayerSpec] = []
    prev = in_dim
    for width in hidden:
        layers.append(DenseSpec(_he_uniform(rng, (prev, width), prev), np.zeros(width)))
        layers.append(ReluSpec())
        if dropout_rate > 0.0:
            layers.append(DropoutSpec(dropout_rate))
        prev = width
    layers.append(DenseSpec(_he_uniform(rng, (prev, 1), prev), np.zeros(1)))
    return ModelSpec(
        layers=tuple(layers),
        input_shape=(in_dim,),
        task=TASK_REGRESSION,
        tau=tau,
        metadata=ModelMeta(name=name, seed=seed),
    )


def cnn_classifier(
    input_shape: tuple[int, int, int] = (3, 32, 32),
    conv_channels: tuple[int, ...] = (16, 32, 64),
    kernel_size: int = 3,
    pool_size: int = 2,
    dense_units: tuple[int, ...] = (128, 128),
    n_classes: int = 10,
    dropout_rate: float = 0.3,
    seed: int = 0,
    name: str = "cnn",
) -> ModelSpec:
    """Conv blocks (conv-relu-pool-dropout) followed by dense-relu-dropout
    stages and a softmax head."""
    rng = np.random.default_rng(seed)
    layers: list[LayerSpec] = []
    c, h, w = input_shape
    for out_c in conv_channels:
        fan_in = c * kernel_size * kernel_size
        kernel = _he_uniform(rng, (out_c, c, kernel_size, kernel_size), fan_in)
        layers.append(Conv2DSpec(kernel, np.zeros(out_c), padding="same"))
        layers.append(ReluSpec())
        layers.append(MaxPool2DSpec(pool_size))
        if dropout_rate > 0.0:
            layers.append(DropoutSpec(dropout_rate))
        c = out_c
        h, w = h // pool_size, w // pool_size
    layers.append(FlattenSpec())
    prev = c * h * w
    for width in dense_units:
        layers.append(DenseSpec(_he_uniform(rng, (prev, width), prev), np.zeros(width)))
        layers.append(ReluSpec())
        if dropout_rate > 0.0:
            layers.append(DropoutSpec(dropout_rate))
        prev = width
    layers.append(DenseSpec(_he_uniform(rng, (prev, n_classes), prev), np.zeros(n_classes)))
    layers.append(SoftmaxSpec())
    return ModelSpec(
        layers=tuple(layers),
        input_shape=tuple(input_shape),
        task=TASK_CLASSIFICATION,
        metadata=ModelMeta(name=name, seed=seed),
    )
