"""Minibatch gradient training for dropout networks (dense and small conv).

Gradients are accumulated in reverse through the deterministic forward with
the sampled dropout masks held fixed; masks are resampled every minibatch.
Validation is scored with the deterministic forward, the learning rate decays
on validation plateaus, and the returned weights are the ones from the best
validation epoch.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .layers import (
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    MaxPool2DSpec,
    ReluSpec,
    _conv_apply,
    _conv_geometry,
    _im2col,
    _pool_windows,
)
from .metrics import regression_nll_mc, regression_nll_mp
from .network import (
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    ModelMeta,
    ModelSpec,
    MomentPropagation,
    forward_mp,
    predict,
)


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass
class LrReduction:
    patience: int = 5
    factor: float = 0.85
    min_lr: float = 1e-6

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("lr patience must be >= 1")
        if not (0.0 < self.factor < 1.0):
            raise ValueError("lr factor must be in (0, 1)")


@dataclass
class EarlyStopping:
    patience: int = 10

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("early-stopping patience must be >= 1")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    momentum: float = 0.0
    loss: str = "mse"
    dropout_rates: tuple[float, ...] | None = None
    lr_reduction: LrReduction | None = field(default_factory=LrReduction)
    early_stopping: EarlyStopping | None = field(default_factory=EarlyStopping)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.loss not in ("mse", "categorical_nll"):
            raise ValueError(f"unknown loss {self.loss!r}")

    def digest(self) -> str:
        payload = asdict(self)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class TrainReport:
    train_loss: list[float]
    val_loss: list[float]
    lr_history: list[float]
    best_epoch: int
    epochs_run: int
    stopped_early: bool
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# parameters


def extract_params(model: ModelSpec) -> list[dict[str, np.ndarray]]:
    """Mutable float64 copies of every trainable tensor, aligned with the
    layer list (empty dict for parameterless layers)."""
    params = []
    for layer in model.layers:
        if isinstance(layer, DenseSpec):
            params.append({"w": layer.weights.copy(), "b": layer.bias.copy()})
        elif isinstance(layer, Conv2DSpec):
            params.append({"w": layer.kernel.copy(), "b": layer.bias.copy()})
        else:
            params.append({})
    return params


def _rebuild_model(model: ModelSpec, params, cfg: TrainConfig) -> ModelSpec:
    layers = []
    for layer, p in zip(model.layers, params):
        if isinstance(layer, DenseSpec):
            layers.append(DenseSpec(weights=p["w"], bias=p["b"]))
        elif isinstance(layer, Conv2DSpec):
            layers.append(
                Conv2DSpec(kernel=p["w"], bias=p["b"], padding=layer.padding, stride=layer.stride)
            )
        else:
            layers.append(layer)
    return ModelSpec(
        layers=tuple(layers),
        input_shape=model.input_shape,
        task=model.task,
        tau=model.tau,
        metadata=ModelMeta(
            name=model.metadata.name, seed=cfg.seed, config_digest=cfg.digest()
        ),
    )


def override_dropout(model: ModelSpec, rates: tuple[float, ...]) -> ModelSpec:
    """Replace the dropout rates in layer order."""
    found = [i for i, l in enumerate(model.layers) if isinstance(l, DropoutSpec)]
    if len(found) != len(rates):
        raise ValueError(f"model has {len(found)} dropout layers, got {len(rates)} rates")
    layers = list(model.layers)
    for i, rate in zip(found, rates):
        layers[i] = DropoutSpec(rate)
    return ModelSpec(
        layers=tuple(layers),
        input_shape=model.input_shape,
        task=model.task,
        tau=model.tau,
        metadata=model.metadata,
    )


# ---------------------------------------------------------------------------
# cached forward / reverse accumulation


def _train_layers(model: ModelSpec):
    """Layers traversed during training; a trailing softmax is folded into
    the cross-entropy loss."""
    if model.task == TASK_CLASSIFICATION:
        return model.layers[:-1]
    return model.layers


def _forward_cached(layers, params, x, masks):
    """Forward through the stack caching what the reverse pass needs.

    masks[i] holds the dropout mask for layer i (missing entries are drawn
    beforehand by the caller).
    """
    h = x
    caches = []
    for i, layer in enumerate(layers):
        if isinstance(layer, DropoutSpec):
            mask = masks[i]
            caches.append(("dropout", mask))
            h = h * mask
        elif isinstance(layer, DenseSpec):
            w, b = params[i]["w"], params[i]["b"]
            caches.append(("dense", h))
            h = h @ w + b
        elif isinstance(layer, Conv2DSpec):
            w, b = params[i]["w"], params[i]["b"]
            kh, kw = w.shape[2], w.shape[3]
            _, _, pads = _conv_geometry(
                h.shape[2], h.shape[3], kh, kw, layer.stride, layer.padding
            )
            cols, oh, ow = _im2col(h, kh, kw, layer.stride, pads)
            caches.append(("conv2d", (cols, h.shape, oh, ow, pads, layer)))
            h = _conv_apply(cols, w.reshape(w.shape[0], -1), b, oh, ow)
        elif isinstance(layer, MaxPool2DSpec):
            win = _pool_windows(h, layer.size)
            idx = win.argmax(axis=-1)
            caches.append(("maxpool2d", (idx, h.shape, layer.size)))
            h = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        elif isinstance(layer, ReluSpec):
            pos = h > 0.0
            caches.append(("relu", pos))
            h = h * pos
        elif isinstance(layer, FlattenSpec):
            caches.append(("flatten", h.shape))
            h = h.reshape(h.shape[0], -1)
        else:
            raise TypeError(f"cannot train through {type(layer).__name__}")
    return h, caches


def _col2im(dcols, x_shape, kh, kw, stride, pads, oh, ow):
    b, c, h, w = x_shape
    pt, pb, pl, pr = pads
    dxp = np.zeros((b, c, h + pt + pb, w + pl + pr))
    dwin = dcols.reshape(b, c, kh, kw, oh, ow)
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki : ki + oh * stride : stride, kj : kj + ow * stride : stride] += (
                dwin[:, :, ki, kj]
            )
    return dxp[:, :, pt : pt + h, pl : pl + w]


def _backward(layers, params, caches, grad):
    """Reverse pass; returns per-layer parameter gradients."""
    grads = [dict() for _ in layers]
    for i in range(len(layers) - 1, -1, -1):
        kind, cache = caches[i]
        if kind == "dropout":
            grad = grad * cache
        elif kind == "dense":
            x = cache
            grads[i]["w"] = x.T @ grad
            grads[i]["b"] = grad.sum(axis=0)
            grad = grad @ params[i]["w"].T
        elif kind == "conv2d":
            cols, x_shape, oh, ow, pads, layer = cache
            oc = params[i]["w"].shape[0]
            kh, kw = params[i]["w"].shape[2], params[i]["w"].shape[3]
            dmat = grad.reshape(grad.shape[0], oc, oh * ow)
            # (OC, B*L) @ (B*L, K): tensordot copies the patches into that
            # operand; one GEMM over the whole batch keeps the summation order
            dk = np.tensordot(dmat, cols, axes=([0, 2], [0, 2]))
            grads[i]["w"] = dk.reshape(params[i]["w"].shape)
            grads[i]["b"] = grad.sum(axis=(0, 2, 3))
            kmat = params[i]["w"].reshape(oc, -1)
            dcols = kmat.T @ dmat
            grad = _col2im(dcols, x_shape, kh, kw, layer.stride, pads, oh, ow)
        elif kind == "maxpool2d":
            idx, x_shape, n = cache
            b, c, h, w = x_shape
            hh, ww = (h // n) * n, (w // n) * n
            dwin = np.zeros(idx.shape + (n * n,))
            np.put_along_axis(dwin, idx[..., None], grad[..., None], axis=-1)
            dx_core = (
                dwin.reshape(b, c, hh // n, ww // n, n, n)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(b, c, hh, ww)
            )
            if hh != h or ww != w:
                dx = np.zeros(x_shape)
                dx[:, :, :hh, :ww] = dx_core
                grad = dx
            else:
                grad = dx_core
        elif kind == "relu":
            grad = grad * cache
        elif kind == "flatten":
            grad = grad.reshape(cache)
    return grads


def _mse_loss_grad(out, y):
    mu = out[:, 0]
    resid = mu - y
    loss = float(np.mean(resid * resid))
    grad = np.zeros_like(out)
    grad[:, 0] = (2.0 / len(y)) * resid
    return loss, grad


def _categorical_nll_grad(logits, y):
    m = logits.max(axis=1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - lse
    n = len(y)
    loss = float(-log_probs[np.arange(n), y].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), y] -= 1.0
    return loss, grad / n


def _loss_fn(kind):
    return _mse_loss_grad if kind == "mse" else _categorical_nll_grad


def _draw_masks(layers, params, x_shape, rng):
    """Dropout masks for one minibatch, keyed by layer index.

    Shapes are resolved by a cheap dry-run of the activations' shapes.
    """
    masks = {}
    shape = x_shape
    for i, layer in enumerate(layers):
        if isinstance(layer, DropoutSpec):
            masks[i] = rng.random(shape) >= layer.rate
        elif isinstance(layer, DenseSpec):
            shape = shape[:-1] + (params[i]["w"].shape[1],)
        elif isinstance(layer, Conv2DSpec):
            w = params[i]["w"]
            oh, ow, _ = _conv_geometry(
                shape[2], shape[3], w.shape[2], w.shape[3], layer.stride, layer.padding
            )
            shape = (shape[0], w.shape[0], oh, ow)
        elif isinstance(layer, MaxPool2DSpec):
            shape = (shape[0], shape[1], shape[2] // layer.size, shape[3] // layer.size)
        elif isinstance(layer, FlattenSpec):
            shape = (shape[0], int(np.prod(shape[1:])))
    return masks


def loss_with_params(model: ModelSpec, params, x, y, loss_kind: str, masks) -> float:
    """Loss of one batch under fixed dropout masks (finite-difference hook)."""
    layers = _train_layers(model)
    out, _ = _forward_cached(layers, params, x, masks)
    loss, _ = _loss_fn(loss_kind)(out, y)
    return loss


def grads_with_params(model: ModelSpec, params, x, y, loss_kind: str, masks):
    """Loss and analytic parameter gradients under fixed dropout masks."""
    layers = _train_layers(model)
    out, caches = _forward_cached(layers, params, x, masks)
    loss, grad = _loss_fn(loss_kind)(out, y)
    return loss, _backward(layers, params, caches, grad)


def draw_masks_for(model: ModelSpec, params, x_shape, seed: int = 0):
    layers = _train_layers(model)
    return _draw_masks(layers, params, x_shape, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# optimizers


class _Sgd:
    def __init__(self, params, lr, momentum=0.0):
        self.momentum = momentum
        self.velocity = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]

    def step(self, params, grads, lr):
        for p, g, vel in zip(params, grads, self.velocity):
            for k in p:
                if self.momentum:
                    vel[k] = self.momentum * vel[k] + g[k]
                    p[k] -= lr * vel[k]
                else:
                    p[k] -= lr * g[k]


class _Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]
        self.v = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]

    def step(self, params, grads, lr):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            for k in p:
                m[k] = self.beta1 * m[k] + (1.0 - self.beta1) * g[k]
                v[k] = self.beta2 * v[k] + (1.0 - self.beta2) * np.square(g[k])
                p[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + self.eps)


def _val_loss(model, params, cfg, x_val, y_val):
    """Validation loss of the predictive mean via the single-pass forward.

    With unscaled multi-layer dropout masks, the rescaled deterministic
    forward drifts away from the mask-averaged mean the loss actually
    optimizes; the propagated expectation tracks that mean closely and costs
    one pass, so epoch selection and plateau detection use it.
    """
    trained = _rebuild_model(model, params, cfg)
    out = forward_mp(trained, x_val)
    if cfg.loss == "mse":
        return float(np.mean(np.square(out.expectation[:, 0] - y_val)))
    probs = np.maximum(out[np.arange(len(y_val)), y_val], 1e-300)
    return float(-np.mean(np.log(probs)))


def train(model: ModelSpec, data: Dataset, cfg: TrainConfig) -> tuple[ModelSpec, TrainReport]:
    """Train and return (weights at the best validation epoch, report).

    Dropout masks are sampled per minibatch without rescaling; gradients flow
    through them.  Non-finite losses abort with a diagnostic.
    """
    if cfg.loss == "mse" and model.task != TASK_REGRESSION:
        raise ValueError("mse loss requires a regression model")
    if cfg.loss == "categorical_nll" and model.task != TASK_CLASSIFICATION:
        raise ValueError("categorical_nll requires a classification model")
    if cfg.dropout_rates is not None:
        model = override_dropout(model, cfg.dropout_rates)
    x_train, y_train = data.train_xy()
    x_val, y_val = data.val_xy()
    if len(x_train) == 0 or len(x_val) == 0:
        raise ValueError("training needs nonempty train and validation splits")

    layers = _train_layers(model)
    params = extract_params(model)
    rng = np.random.default_rng(cfg.seed)
    opt = (
        _Adam(params, cfg.learning_rate)
        if cfg.optimizer == "adam"
        else _Sgd(params, cfg.learning_rate, cfg.momentum)
    )
    loss_fn = _loss_fn(cfg.loss)
    lr = cfg.learning_rate
    best_val = np.inf
    best_epoch = -1
    best_params = [{k: v.copy() for k, v in p.items()} for p in params]
    wait_lr = wait_es = 0
    stopped_early = False
    train_curve, val_curve, lr_curve = [], [], []
    started = time.perf_counter()

    n = len(x_train)
    # A diverging run overflows before its loss turns non-finite; keep numpy
    # quiet so the divergence surfaces only as TrainingDivergedError.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                sel = perm[start : start + cfg.batch_size]
                xb, yb = x_train[sel], y_train[sel]
                masks = _draw_masks(layers, params, xb.shape, rng)
                out, caches = _forward_cached(layers, params, xb, masks)
                loss, grad = loss_fn(out, yb)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite training loss {loss!r} at epoch {epoch}"
                    )
                grads = _backward(layers, params, caches, grad)
                opt.step(params, grads, lr)
                epoch_loss += loss * len(sel)
            train_curve.append(epoch_loss / n)
            try:
                val = _val_loss(model, params, cfg, x_val, y_val)
            except (ValueError, FloatingPointError) as exc:
                # exploded weights surface as non-finite parameters or variances
                raise TrainingDivergedError(
                    f"validation forward failed at epoch {epoch}: {exc}"
                ) from exc
            if not np.isfinite(val):
                raise TrainingDivergedError(f"non-finite validation loss at epoch {epoch}")
            val_curve.append(val)
            lr_curve.append(lr)
            if val < best_val:
                best_val = val
                best_epoch = epoch
                best_params = [{k: v.copy() for k, v in p.items()} for p in params]
                wait_lr = wait_es = 0
            else:
                wait_lr += 1
                wait_es += 1
                if cfg.lr_reduction is not None and wait_lr >= cfg.lr_reduction.patience:
                    lr = max(lr * cfg.lr_reduction.factor, cfg.lr_reduction.min_lr)
                    wait_lr = 0
                if cfg.early_stopping is not None and wait_es >= cfg.early_stopping.patience:
                    stopped_early = True
                    break

        trained = _rebuild_model(model, best_params, cfg)
    report = TrainReport(
        train_loss=train_curve,
        val_loss=val_curve,
        lr_history=lr_curve,
        best_epoch=best_epoch,
        epochs_run=len(train_curve),
        stopped_early=stopped_early,
        wall_clock_seconds=time.perf_counter() - started,
    )
    return trained, report


# ---------------------------------------------------------------------------
# hyperparameter grid search


@dataclass(frozen=True)
class GridSearchResult:
    p_star: float
    tau: float
    entries: tuple[dict, ...]  # one dict per (p_star, tau) with its val NLL


def grid_search_uci(
    build_model,
    data: Dataset,
    p_grid,
    tau_grid,
    cfg: TrainConfig,
    score_mode: str = "mp",
    mc_samples: int = 100,
) -> GridSearchResult:
    """Pick (dropout rate, noise precision) minimizing validation NLL.

    build_model(p_star) must return a fresh untrained model.  Training does
    not depend on tau, so each dropout rate is trained once and scored across
    the tau grid; ties break toward the smaller rate, then the smaller tau.
    """
    if any(t <= 0 for t in tau_grid):
        raise ValueError("tau grid must be positive")
    if score_mode not in ("mp", "mc"):
        raise ValueError("score_mode must be 'mp' or 'mc'")
    x_val, y_val = data.val_xy()
    entries = []
    for p_star in p_grid:
        model, _ = train(build_model(p_star), data, cfg)
        if score_mode == "mp":
            pred = predict(model, x_val, MomentPropagation())
            means, variances = pred.mean, pred.variance
        else:
            from .mc import mc_forward

            batch = mc_forward(model, x_val, mc_samples, seed=cfg.seed)
            mu = batch.outputs[..., 0]
        for tau in tau_grid:
            if score_mode == "mp":
                nll = float(np.mean(regression_nll_mp(means, variances, tau, y_val)))
            else:
                nll = float(np.mean(regression_nll_mc(mu, tau, y_val)))
            entries.append({"p_star": float(p_star), "tau": float(tau), "val_nll": nll})
    best = min(entries, key=lambda e: (e["val_nll"], e["p_star"], e["tau"]))
    return GridSearchResult(
        p_star=best["p_star"], tau=best["tau"], entries=tuple(entries)
    )
