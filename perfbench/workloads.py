"""The benchmark's workloads: a model, the inputs it serves and the data it
trains on, all generated from the run seed.

Every workload runs the same four operations, so that every end-to-end metric
exists on every workload:

* ``det``, ``mp``, ``mc30``: ``network.forward_det``, ``network.forward_mp``
  and ``mc.mc_forward`` with T=30, one call per served batch or request;
* ``train``: one ``training.train`` call with a fixed epoch count and no
  early stopping or learning-rate schedule, on the data and batch size of
  an existing caller: ``experiments.train_toy_model``'s for the toy MLP
  workloads, ``experiments.build_ood_setup``'s held-out-class CNN for the
  CNN workloads;
* ``step``: one trainer step at the training batch shape,
  ``training.draw_masks_for`` then ``training.grads_with_params``.

A round is a fixed list of these calls; a run repeats whole rounds.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from momentprop import data, experiments, network, training

MC_SAMPLES = 30
MODES = ("det", "mp", "mc30", "train", "step")
# The mp-versus-MC agreement check runs on a model and inputs built from this
# seed, whatever the run seed, against a mean of this many MC passes.
PROBE_SEED = 0
PROBE_T = 300
# The held-out-class study's classes (experiments.build_ood_setup).
IND_CLASSES = (0, 1, 4, 5, 8)


@dataclass
class Workload:
    name: str
    model: network.ModelSpec  # served by det, mp and mc30
    train_model: network.ModelSpec  # trained by train and step
    pool: list[np.ndarray]  # inputs served, cycled in order
    examples_per_call: int
    train_data: data.Dataset
    train_cfg: training.TrainConfig
    round_counts: dict[str, int]  # calls of each mode per round
    mc_seed: int

    @property
    def train_examples_per_call(self) -> int:
        return len(self.train_data.train_xy()[0]) * self.train_cfg.epochs

    @cached_property
    def step_inputs(self):
        """Parameters and the first training minibatch, for the trainer step."""
        x, y = self.train_data.train_xy()
        n = self.train_cfg.batch_size
        return training.extract_params(self.train_model), x[:n], y[:n]

    def round_ops(self, round_index: int) -> list[tuple[str, np.ndarray | None]]:
        """The calls of one round: forwards interleaved per input, training
        and one trainer step."""
        ops = []
        n = max(self.round_counts[m] for m in ("det", "mp", "mc30"))
        for j in range(n):
            x = self.pool[(round_index * n + j) % len(self.pool)]
            for mode in ("det", "mp", "mc30"):
                if j < self.round_counts[mode]:
                    ops.append((mode, x))
        ops += [("train", None)] * self.round_counts["train"]
        return ops + [("step", None)]


def _train_cfg(loss: str, epochs: int, batch_size: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        optimizer="adam",
        learning_rate=1e-3,
        loss=loss,
        lr_reduction=None,
        early_stopping=None,
        seed=seed,
    )


def toy_mlp(seed: int) -> network.ModelSpec:
    return network.mlp_regression(
        1, hidden=(256, 256, 256), dropout_rate=0.3, seed=seed, tau=100.0, name="toy-mlp"
    )


def held_out_cnn(seed: int) -> network.ModelSpec:
    """build_ood_setup's classifier."""
    return network.cnn_classifier(
        input_shape=(1, 16, 16), conv_channels=(8, 16), dense_units=(64,),
        n_classes=len(IND_CLASSES), dropout_rate=0.3, seed=seed, name="ood-cnn",
    )


def _toy_training(seed):
    """train_toy_model's data and settings (1536 points, batch 128), 2 epochs."""
    toy = data.standardize_regression(data.gen_toy_regression(1536, seed=seed))
    return toy, _train_cfg("mse", 2, 128, seed)


def _held_out_images(seed):
    """build_ood_setup's defaults: 400 16x16 images per class, half for
    training, classes IND_CLASSES held in; batch 64, 2 epochs."""
    images = data.gen_synthetic_images(
        400, n_classes=10, size=16, seed=seed, split_fractions=(0.5, 0.125, 0.375)
    )
    ind, ood = data.ood_partition(images, IND_CLASSES)
    return ind, ood, _train_cfg("categorical_nll", 2, 64, seed)


def _cnn_batch32_data(seed, rng):
    pool = [rng.standard_normal((32, 3, 32, 32)) for _ in range(4)]
    ind, _, cfg = _held_out_images(seed)
    return pool, 32, ind, cfg


def _mlp_grid_data(seed, rng):
    pool = [np.sort(rng.uniform(-3.0, 3.0, 2048))[:, None] for _ in range(2)]
    return (pool, 2048) + _toy_training(seed)


def _mlp_single_data(seed, rng):
    pool = [rng.uniform(-3.0, 3.0, 1) for _ in range(256)]
    return (pool, 1) + _toy_training(seed)


def _train_cnn_data(seed, rng):
    ind, ood, cfg = _held_out_images(seed)
    # held-out-class scoring: in- and out-of-distribution test images mixed
    test = np.concatenate([ind.test_xy()[0], ood.test_xy()[0]])
    test = test[rng.permutation(len(test))]
    pool = [test[32 * i : 32 * (i + 1)] for i in range(4)]
    return pool, 32, ind, cfg


@dataclass(frozen=True)
class Spec:
    model: Callable[[int], network.ModelSpec]  # the served model, from the seed
    data: Callable  # (seed, rng) -> (pool, examples per call, train data, train config)
    train_model: Callable[[int], network.ModelSpec] | None  # None: train the served model
    counts: dict[str, int]  # calls of each mode per round
    probe_examples: int  # served examples in the agreement check


WORKLOADS = {
    "cnn-batch32": Spec(
        lambda seed: experiments.reference_cnn(seed=seed), _cnn_batch32_data, held_out_cnn,
        {"det": 3, "mp": 3, "mc30": 2, "train": 1}, 4,
    ),
    "mlp-grid": Spec(toy_mlp, _mlp_grid_data, None, {"det": 8, "mp": 4, "mc30": 2, "train": 1}, 64),
    "mlp-single": Spec(
        toy_mlp, _mlp_single_data, None, {"det": 16, "mp": 16, "mc30": 16, "train": 1}, 64
    ),
    "train-cnn": Spec(
        held_out_cnn, _train_cnn_data, None, {"det": 2, "mp": 2, "mc30": 2, "train": 1}, 8
    ),
}


def set_up(name: str, seed: int, model_path, tracer) -> tuple[Workload, bytes, float]:
    """Build one workload: generate its data, build the model seeded, save it
    to ``.mpmdl`` and load it back, and warm the lazily built weight caches.

    Returns the workload, the saved file's bytes and the set-up seconds.
    """
    spec = WORKLOADS[name]
    started = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("data"):
            pool, per_call, train_data, cfg = spec.data(seed, np.random.default_rng(seed))
        model = spec.model(seed)
        network.save_model(model, model_path)
        loaded = network.load_model(model_path)
        network.forward_det(loaded, pool[0][:1] if per_call > 1 else pool[0])
        network.forward_mp(loaded, pool[0][:1] if per_call > 1 else pool[0])
        train_model = loaded if spec.train_model is None else spec.train_model(seed)
    elapsed = time.perf_counter() - started
    saved = model_path.read_bytes()
    workload = Workload(
        name, loaded, train_model, pool, per_call, train_data, cfg, spec.counts, mc_seed=seed
    )
    return workload, saved, elapsed


def agreement_probe(name: str) -> tuple[network.ModelSpec, np.ndarray]:
    """The fixed model and inputs of the agreement check: the workload's
    served model and inputs built from PROBE_SEED, evenly spaced."""
    spec = WORKLOADS[name]
    pool, per_call, _, _ = spec.data(PROBE_SEED, np.random.default_rng(PROBE_SEED))
    xb = pool[0] if per_call > 1 else np.stack(pool)
    n = spec.probe_examples
    return spec.model(PROBE_SEED), xb[:: len(xb) // n][:n]
