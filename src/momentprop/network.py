"""Sequential model composition, the three execution modes, and model files.

A model is an immutable stack of layer specs plus an input shape, a task tag
and (for regression) the observation-noise precision tau.  The same stack is
executed deterministically, with sampled dropout masks, or by propagating
expectation/variance in a single pass.
"""

from __future__ import annotations

import json
import math
import operator
import zlib
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .layers import (
    DRAW_BLOCK,
    FRESH_DRAW,
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    LayerSpec,
    MaxPool2DSpec,
    ReluSpec,
    SoftmaxSpec,
    _conv_backward,
    _conv_forward,
    _conv_geometry,
    _dense_backward,
    _dense_forward,
    _pool_backward,
    _pool_forward,
    _positive_sizes,
    _relu_forward,
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


def _python_number(value):
    """A numpy scalar as the equal Python number; any other value as given."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class ModelMeta:
    name: str = ""
    seed: int | None = None
    config_digest: str = ""

    def __post_init__(self):
        object.__setattr__(self, "seed", _python_number(self.seed))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelMeta":
        return cls(
            name=d.get("name", ""),
            seed=d.get("seed"),
            config_digest=d.get("config_digest", ""),
        )


def _same_shape(layer, shape):
    return shape


def _dense_shape(layer: DenseSpec, shape):
    if len(shape) != 1 or shape[0] != layer.in_dim:
        raise ValueError(f"dense({layer.in_dim}->{layer.out_dim}) cannot follow shape {shape}")
    return (layer.out_dim,)


def _conv_shape(layer: Conv2DSpec, shape):
    if len(shape) != 3 or shape[0] != layer.in_channels:
        raise ValueError(f"conv2d expects (C={layer.in_channels}, H, W), got {shape}")
    kh, kw = layer.kernel_size
    oh, ow, _ = _conv_geometry(shape[1], shape[2], kh, kw, layer.stride, layer.padding)
    return (layer.out_channels, oh, ow)


def _pool_shape(layer: MaxPool2DSpec, shape):
    if len(shape) != 3:
        raise ValueError(f"maxpool2d expects (C, H, W), got {shape}")
    oh, ow = shape[1] // layer.size, shape[2] // layer.size
    if oh == 0 or ow == 0:
        raise ValueError(f"{layer.size}x{layer.size} pooling cannot follow shape {shape}")
    return (shape[0], oh, ow)


def _softmax_shape(layer, shape):
    if len(shape) != 1 or shape[0] < 2:
        raise ValueError(f"softmax expects a logit vector of length >= 2, got {shape}")
    return shape


@dataclass(frozen=True)
class LayerKind:
    """Everything the package does per layer kind; ``KINDS`` maps each spec
    type to its record.

    ``det`` and ``mp`` look the module's ``*_det`` / ``*_mp`` functions up by
    name when called, so a wrapper assigned to ``network.dense_det`` (say)
    sees every dense call of every walker.  The trainer's ops read the
    layer's weights from its parameter dict ``p`` ("w", "b"); a softmax head
    has none, as the loss absorbs it.
    """

    name: str  # the manifest's "kind"
    keys: tuple[str, ...]  # the other manifest keys, in file order
    out_shape: Callable  # (layer, input shape) -> output shape; ValueError if it cannot follow
    # (batched array, layer, out=None, passes=1) -> array; only in_place kinds
    # use out, and only dense uses passes (the row blocks of stacked MC passes)
    det: Callable
    mp: Callable  # (MomentTensor, layer) -> MomentTensor, or probabilities after softmax
    build: Callable  # (manifest entry, tensors) -> layer
    train_forward: Callable | None  # (h, layer, p, mask or None) -> (out, cache)
    train_backward: Callable | None  # (grad, cache, layer, p, need_input) -> (dx or None, grads)
    tensors: Callable = lambda layer: []  # the weight tensors, in file order
    tensor_shapes: Callable = lambda entry: []  # their shapes, from a checked entry
    in_place: bool = False  # elementwise: det may write into its input, given as out

    def entry(self, layer) -> dict:
        """The layer's manifest entry; a tuple is written as a list."""
        entry = {"kind": self.name}
        for k in self.keys:
            v = getattr(layer, k)
            entry[k] = list(v) if isinstance(v, tuple) else v
        return entry


KINDS: dict[type, LayerKind] = {
    DropoutSpec: LayerKind(
        "dropout", ("rate",), _same_shape,
        lambda h, l, out=None, passes=1: dropout_det(h, l, out),
        lambda mt, l: dropout_mp(mt, l),
        lambda e, t: DropoutSpec(rate=e["rate"]),
        train_forward=lambda h, l, p, mask: (h * mask, mask),
        train_backward=lambda g, mask, l, p, need: (g * mask, {}),
        in_place=True,
    ),
    DenseSpec: LayerKind(
        "dense", ("in_dim", "out_dim"), _dense_shape,
        lambda h, l, out=None, passes=1: dense_det(h, l, passes), lambda mt, l: dense_mp(mt, l),
        lambda e, t: DenseSpec(weights=t[0], bias=t[1]),
        train_forward=_dense_forward, train_backward=_dense_backward,
        tensors=lambda l: [l.weights, l.bias],
        tensor_shapes=lambda e: [(e["in_dim"], e["out_dim"]), (e["out_dim"],)],
    ),
    Conv2DSpec: LayerKind(
        "conv2d", ("out_channels", "in_channels", "kernel_size", "padding", "stride"),
        _conv_shape,
        lambda h, l, out=None, passes=1: conv2d_det(h, l), lambda mt, l: conv2d_mp(mt, l),
        lambda e, t: Conv2DSpec(kernel=t[0], bias=t[1], padding=e["padding"], stride=e["stride"]),
        train_forward=_conv_forward, train_backward=_conv_backward,
        tensors=lambda l: [l.kernel, l.bias],
        tensor_shapes=lambda e: [
            (e["out_channels"], e["in_channels"], *e["kernel_size"]), (e["out_channels"],)
        ],
    ),
    MaxPool2DSpec: LayerKind(
        "maxpool2d", ("size",), _pool_shape,
        lambda h, l, out=None, passes=1: maxpool2d_det(h, l), lambda mt, l: maxpool2d_mp(mt, l),
        lambda e, t: MaxPool2DSpec(size=e["size"]),
        train_forward=_pool_forward, train_backward=_pool_backward,
    ),
    ReluSpec: LayerKind(
        "relu", (), _same_shape,
        lambda h, l, out=None, passes=1: relu_det(h, out), lambda mt, l: relu_mp(mt),
        lambda e, t: ReluSpec(),
        train_forward=_relu_forward,
        train_backward=lambda g, pos, l, p, need: (g * pos, {}),
        in_place=True,
    ),
    FlattenSpec: LayerKind(
        "flatten", (), lambda l, shape: (int(np.prod(shape)),),
        lambda h, l, out=None, passes=1: h.reshape(h.shape[0], -1),
        lambda mt, l: MomentTensor._unchecked(
            mt.expectation.reshape(len(mt.expectation), -1),
            mt.variance.reshape(len(mt.expectation), -1),
        ),
        lambda e, t: FlattenSpec(),
        train_forward=lambda h, l, p, mask: (h.reshape(h.shape[0], -1), h.shape),
        train_backward=lambda g, shape, l, p, need: (g.reshape(shape), {}),
    ),
    SoftmaxSpec: LayerKind(
        "softmax", (), _softmax_shape,
        lambda h, l, out=None, passes=1: softmax_det(h), lambda mt, l: softmax_mp(mt),
        lambda e, t: SoftmaxSpec(), train_forward=None, train_backward=None,
    ),
}

_KINDS_BY_NAME = {kind.name: kind for kind in KINDS.values()}


def kind_of(layer) -> LayerKind:
    """The record of a layer's kind; TypeError for anything else."""
    kind = KINDS.get(type(layer))
    if kind is None:
        raise TypeError(f"unknown layer spec {type(layer).__name__}")
    return kind


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
        if isinstance(self.tau, (bool, np.bool_)):
            raise ValueError(f"tau must be a number, got {self.tau!r}")
        object.__setattr__(self, "tau", _python_number(self.tau))
        shape = tuple(self.input_shape)
        if not _positive_sizes(shape):
            raise ValueError(f"input_shape {self.input_shape!r} is not a list of positive sizes")
        object.__setattr__(self, "input_shape", tuple(int(d) for d in shape))
        if self.task not in (TASK_REGRESSION, TASK_CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if any(isinstance(l, SoftmaxSpec) for l in self.layers[:-1]):
            raise ValueError("no layer may follow softmax")
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
            shape = kind_of(layer).out_shape(layer, shape)
            shapes.append(shape)
        return tuple(shapes)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.layer_shapes[-1]

    @cached_property
    def det_steps(self) -> tuple[tuple, ...]:
        """(layer, its kind's det op, in place) per layer, for the array walker.

        A step runs in place when its kind is elementwise and its input is an
        array the walk allocated itself: every kind but flatten returns a new
        array (or its own input, when that was such an array), while flatten
        returns a view of its input, which at the start of a walk is the
        caller's array.
        """
        steps, owned = [], False
        for layer in self.layers:
            kind = kind_of(layer)
            steps.append((layer, kind.det, owned and kind.in_place))
            owned = owned or not isinstance(layer, FlattenSpec)
        return tuple(steps)

    @cached_property
    def dropouts(self) -> tuple[int, ...]:
        """Indices of the dropout layers, in layer order."""
        return tuple(i for i, l in enumerate(self.layers) if isinstance(l, DropoutSpec))

    @cached_property
    def widest_dropout_input(self) -> int:
        """Largest per-example input size of a dropout layer; 0 without dropout."""
        inputs = (self.input_shape,) + self.layer_shapes
        return max((math.prod(inputs[i]) for i in self.dropouts), default=0)

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
        return tuple(self.layers[i].rate for i in self.dropouts)


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
        object.__setattr__(self, "t", _check_samples(self.t))
        _check_seed(self.seed)


def _check_samples(t) -> int:
    """An MC sample count as a Python int: any integer >= 1, numpy integers
    included.  A bool or any other non-integer raises TypeError; a count
    below 1 raises ValueError."""
    if isinstance(t, (bool, np.bool_)):
        raise TypeError(f"sample count must be an integer >= 1, got {t!r}")
    try:
        t = operator.index(t)
    except TypeError:
        raise TypeError(f"sample count must be an integer >= 1, got {t!r}") from None
    if t < 1:
        raise ValueError(f"sample count must be an integer >= 1, got {t}")
    return t


def _check_seed(seed) -> int:
    """A sampling seed as a Python int: any integer >= 0, numpy integers and
    ints above 2**64 included.  Anything else raises TypeError (None, floats)
    or ValueError (negative)."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer >= 0, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class MomentPropagation:
    pass


ForwardMode = Deterministic | MCSample | MomentPropagation


def _as_batch(model: ModelSpec, x):
    """The input as a float64 batch and whether it was a single example.

    Every forward checks its input here, once: the shape must match the
    model and every entry must be finite (NaN or inf would come out as NaN
    outputs, with RuntimeWarnings from the first matmul).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape == model.input_shape:
        xb, single = x[None, ...], True
    elif x.ndim == len(model.input_shape) + 1 and x.shape[1:] == model.input_shape:
        xb, single = x, False
    else:
        raise ValueError(f"input shape {x.shape} does not match model input {model.input_shape}")
    if not np.isfinite(x).all():
        bad = x.size - np.count_nonzero(np.isfinite(x))
        raise ValueError(f"input holds {bad} non-finite entries (NaN or inf); inputs must be finite")
    return xb, single


def _run_arrays(model: ModelSpec, xb, sample=None, upto=None, passes=1):
    """Walk the stack on a batched array with each kind's det op; with
    ``sample``, dropout layers run sample(h, spec, index, out) instead.

    Steps that ``ModelSpec.det_steps`` marks in place get their input as
    ``out``.  ``passes`` > 1 marks ``xb`` as that many equal row blocks, one
    per stacked MC pass, for the ops whose rows depend on the row count.
    """
    h = xb
    for idx, (layer, det, in_place) in enumerate(model.det_steps[:upto]):
        out = h if in_place else None
        if sample is not None and type(layer) is DropoutSpec:
            h = sample(h, layer, idx, out)
        else:
            h = det(h, layer, out, passes)
    return h


class _DrawScratch:
    """The one scratch array every mask draw of a sampling call shares (see
    ``dropout_sample``): DRAW_BLOCK elements, or fewer for smaller inputs,
    and None (each mask drawn fresh) when no mask exceeds FRESH_DRAW.

    It is allocated at the first draw, after the walk's first activation.
    Allocated up front, below the activations, it left the activations each
    pass frees at the top of glibc's heap, which gave them back to the OS, so
    their pages were faulted in again on every pass (T=30 on the toy MLP at
    2048 rows: about 29k minor faults per call, against about 8k).
    """

    def __init__(self, model: ModelSpec, xb):
        self.widest = len(xb) * model.widest_dropout_input

    @cached_property
    def array(self) -> np.ndarray | None:
        return np.empty(min(DRAW_BLOCK, self.widest)) if self.widest > FRESH_DRAW else None


def forward_det(model: ModelSpec, x, upto=None):
    """Plain forward pass; dropout layers rescale by their keep rate.  As in
    ``forward_sample`` and ``forward_mp``, ``upto=k`` returns layer k's output."""
    xb, squeeze = _as_batch(model, x)
    out = _run_arrays(model, xb, upto=upto)
    return out[0] if squeeze else out


def forward_sample(model: ModelSpec, x, rng_for_layer, upto=None):
    """Stochastic forward pass; rng_for_layer(layer_index) must yield the
    generator used for that dropout layer's mask."""
    xb, squeeze = _as_batch(model, x)
    draws = _DrawScratch(model, xb)
    out = _run_arrays(
        model, xb, lambda h, l, i, o: dropout_sample(h, l, rng_for_layer(i), o, draws.array), upto
    )
    return out[0] if squeeze else out


def forward_mp(model: ModelSpec, x, upto=None):
    """Single-pass expectation/variance forward.

    Runs the variance-free prefix deterministically, lifts its output to
    zero variance and folds the moment ops over the remaining layers.
    Regression models return a MomentTensor; classification models return the
    expected probability vector (no variance channel after softmax).
    """
    xb, squeeze = _as_batch(model, x)
    stop = len(model.layers[:upto])
    start = min(model.det_prefix, stop)
    h = _run_arrays(model, xb, upto=start)
    out = MomentTensor._unchecked(h, np.zeros_like(h))
    for layer in model.layers[start:stop]:
        out = KINDS[type(layer)].mp(out, layer)
    if not squeeze:
        return out
    if isinstance(out, MomentTensor):
        return MomentTensor(out.expectation[0], out.variance[0])
    return out[0]


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
    """Run the model in ``mode`` and wrap the output as a predictive distribution.

    Finite inputs can still overflow: an output that holds NaN or inf raises
    FloatingPointError, without the RuntimeWarnings of the ops that made it.
    """
    regression = model.task == TASK_REGRESSION
    with np.errstate(all="ignore"):
        if isinstance(mode, Deterministic):
            mean = forward_det(model, x)
            var = np.zeros_like(mean)
        elif isinstance(mode, MomentPropagation):
            out = forward_mp(model, x)
            mean, var = (out.expectation, out.variance) if regression else (out, 0.0)
        elif isinstance(mode, MCSample):
            from .mc import mc_forward

            batch = mc_forward(model, x, mode.t, mode.seed)
            mean = batch.outputs.mean(axis=0)
            var = batch.moments().variance if regression else 0.0
        else:
            raise TypeError(f"unknown forward mode {mode!r}")
    if not (np.isfinite(mean).all() and np.isfinite(var).all()):
        raise FloatingPointError(f"the {type(mode).__name__} forward overflowed to NaN or inf")
    if regression:
        return GaussianPrediction(mean[..., 0], var[..., 0], model.tau)
    return CategoricalPrediction(mean)


# ---------------------------------------------------------------------------
# serialization: magic(8) | version(u32 LE) | manifest_len(u64 LE) |
# manifest JSON (UTF-8) | float32 LE weight blobs in manifest order | crc32

_MAGIC = b"MPMDLv01"
_VERSION = 1
MODEL_FILE_EXTENSION = ".mpmdl"


def _check_entry(entry) -> LayerKind:
    """The record of an entry's kind, once the entry has a known kind, that
    kind's keys and positive integer sizes."""
    name = entry.get("kind") if isinstance(entry, dict) else None
    kind = _KINDS_BY_NAME.get(name) if isinstance(name, str) else None
    if kind is None:
        raise MalformedModelError(f"layer entry {entry!r} has no known kind")
    if any(k not in entry for k in kind.keys):
        raise MalformedModelError(f"{name} layer entry needs {', '.join(kind.keys)}")
    sizes = [entry[k] for k in kind.keys if k not in ("rate", "padding", "kernel_size")]
    if "kernel_size" in kind.keys:
        kernel = entry["kernel_size"]
        sizes += kernel if isinstance(kernel, list) and len(kernel) == 2 else [kernel]
    if not _positive_sizes(sizes):
        raise MalformedModelError(f"{name} layer entry has a size that is not a positive integer")
    return kind


def save_model(model: ModelSpec, path) -> None:
    """Write the model to a single self-describing binary file."""
    manifest = {
        "task": model.task,
        "input_shape": list(model.input_shape),
        "tau": model.tau,
        "metadata": asdict(model.metadata),
        "layers": [KINDS[type(l)].entry(l) for l in model.layers],
    }
    blob = bytearray()
    blob += _MAGIC
    blob += np.uint32(_VERSION).tobytes()
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    blob += np.uint64(len(manifest_bytes)).tobytes()
    blob += manifest_bytes
    for layer in model.layers:
        for tensor in KINDS[type(layer)].tensors(layer):
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MalformedModelError(f"manifest cannot be parsed as JSON: {exc}") from exc
    entries = manifest.get("layers") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise MalformedModelError("manifest has no layer list")
    kinds = [_check_entry(e) for e in entries]
    shapes = [kind.tensor_shapes(e) for kind, e in zip(kinds, entries)]
    input_shape = manifest.get("input_shape")
    if not (isinstance(input_shape, list) and _positive_sizes(input_shape)):
        raise MalformedModelError(f"input_shape {input_shape!r} is not a list of positive sizes")
    sizes = [math.prod(s) for per_layer in shapes for s in per_layer]
    expected, blobs = 4 * sum(sizes), body[manifest_len:]
    if len(blobs) != expected:
        raise MalformedModelError(
            f"manifest declares {expected} weight bytes but file has {len(blobs)}"
        )
    flat = np.frombuffer(blobs, dtype="<f4").astype(np.float64)
    tensors = iter(np.split(flat, np.cumsum(sizes[:-1], dtype=int)))
    try:
        layers = [
            kind.build(entry, [next(tensors).reshape(s) for s in per_layer])
            for kind, entry, per_layer in zip(kinds, entries, shapes)
        ]
        return ModelSpec(
            layers=tuple(layers),
            input_shape=tuple(input_shape),
            task=manifest["task"],
            tau=manifest.get("tau"),
            metadata=ModelMeta.from_dict(manifest.get("metadata", {})),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise MalformedModelError(f"manifest describes an invalid model: {exc}") from exc


# ---------------------------------------------------------------------------
# builders


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _dense_stages(rng, prev: int, widths, out_dim: int, dropout_rate: float) -> list[LayerSpec]:
    """[dense, relu, dropout] per width, then the output dense.  The dropout
    layer is made for any nonzero rate, so ``DropoutSpec`` checks the rate
    even when ``widths`` is empty."""
    dropout = [DropoutSpec(dropout_rate)] if dropout_rate else []
    layers: list[LayerSpec] = []
    for width in widths:
        layers += [DenseSpec(_he_uniform(rng, (prev, width), prev), np.zeros(width)), ReluSpec()]
        layers += dropout
        prev = width
    return layers + [DenseSpec(_he_uniform(rng, (prev, out_dim), prev), np.zeros(out_dim))]


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
    layers = _dense_stages(np.random.default_rng(seed), in_dim, hidden, 1, dropout_rate)
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
    dense_units: tuple[int, ...] = (128, 128),
    n_classes: int = 10,
    dropout_rate: float = 0.3,
    seed: int = 0,
    name: str = "cnn",
) -> ModelSpec:
    """Conv blocks (conv-relu-2x2 max pool-dropout) followed by
    dense-relu-dropout stages and a softmax head."""
    rng = np.random.default_rng(seed)
    layers: list[LayerSpec] = []
    c, h, w = input_shape
    for out_c in conv_channels:
        fan_in = c * kernel_size * kernel_size
        kernel = _he_uniform(rng, (out_c, c, kernel_size, kernel_size), fan_in)
        layers.append(Conv2DSpec(kernel, np.zeros(out_c), padding="same"))
        layers.append(ReluSpec())
        layers.append(MaxPool2DSpec(2))
        if dropout_rate:
            layers.append(DropoutSpec(dropout_rate))
        c = out_c
        h, w = h // 2, w // 2
    layers.append(FlattenSpec())
    layers += _dense_stages(rng, c * h * w, dense_units, n_classes, dropout_rate)
    layers.append(SoftmaxSpec())
    return ModelSpec(
        layers=tuple(layers),
        input_shape=tuple(input_shape),
        task=TASK_CLASSIFICATION,
        metadata=ModelMeta(name=name, seed=seed),
    )
