"""Minibatch gradient training for dropout networks (dense and small conv).

Gradients are accumulated in reverse through the deterministic forward with
the sampled dropout masks held fixed; masks are resampled every minibatch.
Validation is scored with the moment-propagation forward (``forward_mp``), the
learning rate decays on validation plateaus, and the returned weights are the
ones from the best validation epoch.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset
from .layers import DropoutSpec, _positive_sizes
from .metrics import regression_nll_mp
from .network import (
    KINDS,
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    ModelMeta,
    ModelSpec,
    MomentPropagation,
    _check_seed,
    _python_number,
    forward_mp,
    predict,
)


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite."""


def _finite(value) -> bool:
    """Whether value is a finite real number; a bool or a string is not."""
    return (
        isinstance(value, (int, float, np.integer, np.floating))
        and not isinstance(value, bool)
        and bool(np.isfinite(value))
    )


@dataclass
class LrReduction:
    patience: int = 5
    factor: float = 0.85
    min_lr: float = 1e-6

    def __post_init__(self):
        for name in ("patience", "factor", "min_lr"):
            setattr(self, name, _python_number(getattr(self, name)))
        if not _positive_sizes((self.patience,)):
            raise ValueError(f"lr patience must be an integer >= 1, got {self.patience!r}")
        if not (_finite(self.factor) and 0.0 < self.factor < 1.0):
            raise ValueError(f"lr factor must be in (0, 1), got {self.factor!r}")
        if not (_finite(self.min_lr) and self.min_lr >= 0.0):
            raise ValueError(f"min_lr must be finite and >= 0, got {self.min_lr!r}")


@dataclass
class EarlyStopping:
    patience: int = 10

    def __post_init__(self):
        self.patience = _python_number(self.patience)
        if not _positive_sizes((self.patience,)):
            raise ValueError(
                f"early-stopping patience must be an integer >= 1, got {self.patience!r}"
            )


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
        # numpy scalars become Python numbers, which the digest's JSON holds
        for name in ("epochs", "batch_size", "learning_rate", "momentum"):
            setattr(self, name, _python_number(getattr(self, name)))
        if self.dropout_rates is not None:
            self.dropout_rates = tuple(map(_python_number, self.dropout_rates))
        self.seed = _check_seed(self.seed)
        if not _positive_sizes((self.epochs, self.batch_size)):
            raise ValueError(
                f"epochs and batch_size must be integers >= 1, "
                f"got {self.epochs!r} and {self.batch_size!r}"
            )
        if not (_finite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (_finite(self.momentum) and 0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum!r}")
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
    layer list: "w" and "b" in file order, an empty dict for parameterless
    layers."""
    return [
        dict(zip(("w", "b"), (t.copy() for t in KINDS[type(layer)].tensors(layer))))
        for layer in model.layers
    ]


def _rebuild_model(model: ModelSpec, params, cfg: TrainConfig) -> ModelSpec:
    layers = []
    for layer, p in zip(model.layers, params):
        kind = KINDS[type(layer)]
        layers.append(kind.build(kind.entry(layer), list(p.values())))
    meta = ModelMeta(name=model.metadata.name, seed=cfg.seed, config_digest=cfg.digest())
    return replace(model, layers=tuple(layers), metadata=meta)


def override_dropout(model: ModelSpec, rates: tuple[float, ...]) -> ModelSpec:
    """Replace the dropout rates in layer order."""
    if len(model.dropouts) != len(rates):
        raise ValueError(f"model has {len(model.dropouts)} dropout layers, got {len(rates)} rates")
    layers = list(model.layers)
    for i, rate in zip(model.dropouts, rates):
        layers[i] = DropoutSpec(rate)
    return replace(model, layers=tuple(layers))


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
        h, cache = KINDS[type(layer)].train_forward(h, layer, params[i], masks.get(i))
        caches.append(cache)
    return h, caches


def _backward(layers, params, caches, grad):
    """Reverse pass down to the lowest layer with parameters; returns their gradients."""
    grads = [dict() for _ in layers]
    lowest = next((i for i, p in enumerate(params) if p), len(layers))
    for i in range(len(layers) - 1, lowest - 1, -1):
        backward = KINDS[type(layers[i])].train_backward
        grad, grads[i] = backward(grad, caches[i], layers[i], params[i], i > lowest)
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


def _draw_masks(model: ModelSpec, batch: int, rng):
    """Dropout masks for one minibatch, keyed by layer index."""
    shapes = (model.input_shape,) + model.layer_shapes
    return {i: rng.random((batch,) + shapes[i]) >= model.layers[i].rate for i in model.dropouts}


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
    """Dropout masks for a batch of shape x_shape (params is not read)."""
    return _draw_masks(model, x_shape[0], np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# optimizers


class _Sgd:
    def __init__(self, params, momentum):
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


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class _Adam:
    def __init__(self, params):
        self.t = 0
        self.m = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]
        self.v = [{k: np.zeros_like(v) for k, v in p.items()} for p in params]

    def step(self, params, grads, lr):
        self.t += 1
        c1 = 1.0 - _BETA1**self.t
        c2 = 1.0 - _BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            for k in p:
                m[k] = _BETA1 * m[k] + (1.0 - _BETA1) * g[k]
                v[k] = _BETA2 * v[k] + (1.0 - _BETA2) * np.square(g[k])
                p[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + _EPS)


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
    opt = _Adam(params) if cfg.optimizer == "adam" else _Sgd(params, cfg.momentum)
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
                masks = _draw_masks(model, len(xb), rng)
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
    model: ModelSpec  # the model trained at p_star


def grid_search_uci(
    build_model,
    data: Dataset,
    p_grid,
    tau_grid,
    cfg: TrainConfig,
) -> GridSearchResult:
    """Pick (dropout rate, noise precision) minimizing validation NLL.

    build_model(p_star) must return a fresh untrained model.  Training does
    not depend on tau, so each dropout rate is trained once and scored across
    the tau grid; ties break toward the smaller rate, then the smaller tau.
    The result carries the model trained at the chosen rate.
    """
    if any(t <= 0 for t in tau_grid):
        raise ValueError("tau grid must be positive")
    x_val, y_val = data.val_xy()
    entries, models = [], {}
    for p_star in p_grid:
        model, _ = train(build_model(p_star), data, cfg)
        models[float(p_star)] = model
        pred = predict(model, x_val, MomentPropagation())
        for tau in tau_grid:
            nll = float(np.mean(regression_nll_mp(pred.mean, pred.variance, tau, y_val)))
            entries.append({"p_star": float(p_star), "tau": float(tau), "val_nll": nll})
    best = min(entries, key=lambda e: (e["val_nll"], e["p_star"], e["tau"]))
    return GridSearchResult(p_star=best["p_star"], tau=best["tau"], entries=tuple(entries),
                            model=models[best["p_star"]])
