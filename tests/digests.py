"""SHA-256 digests of seeded forwards, trainings and gradients.

Run from the repository root:

    PYTHONPATH=src python tests/digests.py

It prints a header of ``#`` lines that names the numpy, scipy and BLAS
build, then one ``<sha256>  <item>`` line per item, in six groups, each
followed by one line over the group's lines.  ``tests/digests.golden`` holds
that output; ``tests/test_digests.py`` recomputes the lines in-process and
names each one that differs from it.  A change that means to move seeded
outputs regenerates the file with

    PYTHONPATH=src python tests/digests.py > tests/digests.golden

and names each changed line.  pytest does not collect this file.

The first group, whose last line is ``all``:

* ``forward_det``, ``forward_mp`` and ``mc_forward`` at T=30 on the toy
  3x256 MLP at 1 and 2048 rows, ``experiments.reference_cnn()`` on a batch
  of 32 images and the held-out-class CNN on 32 test images;
* every layer's output, ``forward_det(upto=k)`` and ``forward_mp(upto=k)``
  for k = 1..L, on the toy MLP at 1 row and the reference CNN at batch 32:
  one line per model and mode;
* seeded ``train()`` of the toy MLP and of the held-out-class CNN, 2 epochs
  each: the trained weights, the loss curves, the learning-rate history and
  the best epoch;
* one trainer step on the held-out-class CNN under ``draw_masks_for`` masks:
  the loss and parameter gradients of ``grads_with_params``, and every
  layer's input gradient.  The CNN's dropout follows each pool, so its
  backward hands the pool gradients that hold -0.0.

The second group, whose last line is ``all predict and protocols``:

* ``predict`` in each mode (MC at T=30) on the toy MLP at 2048 rows and
  on the held-out-class CNN on 32 test images: the fields of the
  predictive distribution;
* the tables of ``run_ood_experiment``, ``run_filter_experiment`` and
  ``auc_vs_t_rows`` on a tiny held-out-class set-up, an ensemble of 2
  members, as JSON with every float at full precision.

The third group, whose last line is ``all compare, toy and uci``:

* the tables of ``run_compare`` (T=30) on the toy MLP at 64 rows and on the
  held-out-class CNN on 32 test images;
* ``toy_curves`` (T=30) of a small untrained MLP on the toy data;
* one ``uci_run`` row on 300 toy-data rows (2 epochs), without its
  ``rt_*`` timing columns.

The fourth group, whose last line is ``all stream keys``:

* ``mc.stream_keys`` for passes 0..1023 and layers (0, 3, 9) under seeds
  0, 2**32, 2**128-1, 2**128 and 2**160: seeds of 1 to 6 32-bit words.

The fifth group, whose last line is ``all report files``:

* the CSV bytes that ``momentprop predict`` (det, mp and mc at T=30) and
  ``momentprop compare`` (T=30) write, run through ``click``'s test runner
  into a temporary directory, for an untrained 3-input regression MLP on
  16 rows and the untrained held-out-class CNN on 8 test images.

The sixth group, whose last line is ``all model files``:

* the ``.mpmdl`` bytes ``save_model`` writes, and the bytes after one
  ``load_model`` -> ``save_model`` round trip, for ``mlp_regression`` with 0,
  1 and 2 hidden stages, ``cnn_classifier`` with 1 and 2 conv blocks and 0
  and 1 dense stages, each at dropout rate 0 and above, and
  ``experiments.reference_cnn()``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy
from click.testing import CliRunner

from momentprop import data, experiments, mc, network, training
from momentprop.cli import cli
from momentprop.network import KINDS

SEED = 3
MC_SAMPLES = 30
IND_CLASSES = (0, 1, 4, 5, 8)


def digest(*parts) -> str:
    """SHA-256 over the dtype, shape and bytes of each array part."""
    h = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def toy_mlp():
    return network.mlp_regression(1, hidden=(256, 256, 256), dropout_rate=0.3, seed=SEED, tau=100.0)


def held_out_cnn():
    return network.cnn_classifier(
        input_shape=(1, 16, 16), conv_channels=(8, 16), dense_units=(64,),
        n_classes=len(IND_CLASSES), dropout_rate=0.3, seed=SEED,
    )


def held_out_images():
    images = data.gen_synthetic_images(
        400, n_classes=10, size=16, seed=SEED, split_fractions=(0.5, 0.125, 0.375)
    )
    return data.ood_partition(images, IND_CLASSES)


def train_cfg(loss, batch_size):
    return training.TrainConfig(
        epochs=2, batch_size=batch_size, learning_rate=1e-3, loss=loss,
        lr_reduction=None, early_stopping=None, seed=SEED,
    )


def forward_items(name, model, x):
    yield f"forward_det {name}", digest(network.forward_det(model, x))
    yield f"forward_mp {name}", digest(*moment_parts(network.forward_mp(model, x)))
    yield f"mc_forward T={MC_SAMPLES} {name}", digest(mc.mc_forward(model, x, MC_SAMPLES, seed=SEED).outputs)


def moment_parts(out):
    """A forward_mp output as arrays: (E, V), or the probabilities after softmax."""
    return (out.expectation, out.variance) if hasattr(out, "variance") else (out,)


def per_layer_items(name, model, x):
    ks = range(1, len(model.layers) + 1)
    yield f"per-layer forward_det {name}", digest(
        *[network.forward_det(model, x, upto=k) for k in ks]
    )
    yield f"per-layer forward_mp {name}", digest(
        *[a for k in ks for a in moment_parts(network.forward_mp(model, x, upto=k))]
    )


def train_item(name, model, dataset, cfg):
    trained, report = training.train(model, dataset, cfg)
    weights = [a for p in training.extract_params(trained) for _, a in sorted(p.items())]
    curves = [np.asarray(c, dtype=np.float64)
              for c in (report.train_loss, report.val_loss, report.lr_history)]
    return f"train {name}", digest(*weights, *curves, np.int64(report.best_epoch))


def gradient_items(name, model, x, y):
    params = training.extract_params(model)
    masks = training.draw_masks_for(model, params, x.shape, seed=SEED)
    loss, grads = training.grads_with_params(model, params, x, y, "categorical_nll", masks)
    yield f"grads_with_params {name}", digest(
        np.float64(loss), *[a for g in grads for _, a in sorted(g.items())]
    )
    # every layer's input gradient, through the same ops as the trainer's
    layers = training._train_layers(model)
    out, caches = training._forward_cached(layers, params, x, masks)
    _, grad = training._loss_fn("categorical_nll")(out, y)
    input_grads = []
    for i in range(len(layers) - 1, -1, -1):
        grad, _ = KINDS[type(layers[i])].train_backward(grad, caches[i], layers[i], params[i], True)
        input_grads.append(grad)
    yield f"input gradients {name}", digest(*input_grads)


def items():
    rng = np.random.default_rng(SEED)
    mlp, one_row = toy_mlp(), rng.uniform(-3.0, 3.0, (1, 1))
    yield from forward_items("toy-mlp 1 row", mlp, one_row)
    yield from forward_items("toy-mlp 2048 rows", mlp, np.sort(rng.uniform(-3.0, 3.0, 2048))[:, None])
    ref_cnn, batch = experiments.reference_cnn(seed=SEED), rng.standard_normal((32, 3, 32, 32))
    yield from forward_items("reference-cnn batch 32", ref_cnn, batch)
    yield from per_layer_items("toy-mlp 1 row", mlp, one_row)
    yield from per_layer_items("reference-cnn batch 32", ref_cnn, batch)
    cnn = held_out_cnn()
    ind, ood = held_out_images()
    test = np.concatenate([ind.test_xy()[0], ood.test_xy()[0]])
    yield from forward_items("held-out-cnn 32 images", cnn, test[rng.permutation(len(test))[:32]])

    toy = data.standardize_regression(data.gen_toy_regression(1536, seed=SEED))
    yield train_item("toy-mlp 2 epochs", mlp, toy, train_cfg("mse", 128))
    yield train_item("held-out-cnn 2 epochs", cnn, ind, train_cfg("categorical_nll", 64))

    x, y = ind.train_xy()
    yield from gradient_items("held-out-cnn batch 64", cnn, x[:64], y[:64])


def table_digest(tables) -> str:
    return hashlib.sha256(json.dumps(tables, default=float).encode()).hexdigest()


def predict_and_protocol_items():
    rng = np.random.default_rng(SEED)
    modes = (network.Deterministic(), network.MomentPropagation(),
             network.MCSample(MC_SAMPLES, seed=SEED))
    cnn = held_out_cnn()
    ind, ood = held_out_images()
    test = np.concatenate([ind.test_xy()[0], ood.test_xy()[0]])
    inputs = {
        "toy-mlp 2048 rows": (toy_mlp(), np.sort(rng.uniform(-3.0, 3.0, 2048))[:, None]),
        "held-out-cnn 32 images": (cnn, test[rng.permutation(len(test))[:32]]),
    }
    for name, (model, x) in inputs.items():
        for mode in modes:
            pred = network.predict(model, x, mode)
            yield f"predict {type(mode).__name__} {name}", digest(*vars(pred).values())

    setup = experiments.build_ood_setup(
        seeds=(SEED,), ensemble_size=2, n_per_class=40, epochs=2,
        conv_channels=(4,), dense_units=(16,),
    )
    yield "run_ood_experiment tiny", table_digest(
        experiments.run_ood_experiment(setup=setup, t=4).tables)
    yield "run_filter_experiment tiny", table_digest(
        experiments.run_filter_experiment(setup=setup, t=4).tables)
    yield "auc_vs_t_rows tiny", table_digest(experiments.auc_vs_t_rows(
        setup.members[SEED][0], setup, t_list=(1, 3), repeats=4, seed=SEED))


def compare_toy_and_uci_items():
    rng = np.random.default_rng(SEED)
    cnn = held_out_cnn()
    ind, ood = held_out_images()
    test = np.concatenate([ind.test_xy()[0], ood.test_xy()[0]])
    inputs = {
        "toy-mlp 64 rows": (toy_mlp(), rng.uniform(-3.0, 3.0, (64, 1))),
        "held-out-cnn 32 images": (cnn, test[rng.permutation(len(test))[:32]]),
    }
    for name, (model, x) in inputs.items():
        yield f"run_compare {name}", table_digest(
            experiments.run_compare(model, x, t=MC_SAMPLES, seed=SEED).tables)

    toy = data.standardize_regression(data.gen_toy_regression(300, seed=SEED))
    small = network.mlp_regression(1, hidden=(16, 16), dropout_rate=0.3, seed=SEED, tau=100.0)
    yield "toy_curves small-mlp", table_digest(
        experiments.toy_curves(small, toy, t=MC_SAMPLES, seed=SEED))
    row = experiments.uci_run("toy", toy, hidden=(8,), epochs=2, t_mc=MC_SAMPLES, seed=SEED)
    yield "uci_run toy 300 rows without rt_*", table_digest(
        {k: v for k, v in row.items() if not k.startswith("rt_")})


def stream_key_items():
    seeds = (0, 2**32, 2**128 - 1, 2**128, 2**160)
    yield "stream_keys 5 seeds, passes 0..1023, layers (0, 3, 9)", digest(
        *[mc.stream_keys(seed, range(1024), (0, 3, 9)) for seed in seeds])


def report_file_items():
    rng = np.random.default_rng(SEED)
    ind, ood = held_out_images()
    test = np.concatenate([ind.test_xy()[0], ood.test_xy()[0]])
    inputs = {
        "mlp 16 rows": (network.mlp_regression(3, hidden=(16, 16), dropout_rate=0.3, seed=SEED),
                        rng.uniform(-2.0, 2.0, (16, 3))),
        "held-out-cnn 8 images": (held_out_cnn(), test[rng.permutation(len(test))[:8]]),
    }
    runs = [(f"predict --mode {mode}", ["predict", "--mode", mode], ["predictions"])
            for mode in ("det", "mp", "mc")]
    runs.append(("compare", ["compare"], ["per_example", "summary"]))
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (model, x) in inputs.items():
            model_path, x_path = Path(tmp, "model.mpmdl"), Path(tmp, "x.npy")
            network.save_model(model, model_path)
            np.save(x_path, x)
            for label, args, tables in runs:
                out = Path(tmp, "out")
                result = runner.invoke(cli, [
                    "--seed", str(SEED), "--out", str(out), *args, str(model_path),
                    "--input", str(x_path), "--t", str(MC_SAMPLES)])
                if result.exit_code != 0:
                    raise RuntimeError(f"{label} {name}: {result.output}")
                yield f"{label} {name} CSV bytes", hashlib.sha256(
                    b"".join((out / f"{t}.csv").read_bytes() for t in tables)).hexdigest()


def model_file_items():
    models = {}
    for rate in (0.0, 0.05):
        for hidden in ((), (8,), (16, 16)):
            models[f"mlp hidden={hidden} rate={rate}"] = network.mlp_regression(
                3, hidden=hidden, dropout_rate=rate, seed=SEED)
    for rate in (0.0, 0.3):
        for conv in ((8,), (8, 16)):
            for dense in ((), (64,)):
                models[f"cnn conv={conv} dense={dense} rate={rate}"] = network.cnn_classifier(
                    (1, 16, 16), conv_channels=conv, dense_units=dense, dropout_rate=rate,
                    seed=SEED)
    models["reference-cnn"] = experiments.reference_cnn(seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "model.mpmdl")
        for name, model in models.items():
            network.save_model(model, path)
            saved = path.read_bytes()
            network.save_model(network.load_model(path), path)
            yield f"model file {name}, saved and load-save", hashlib.sha256(
                saved + path.read_bytes()).hexdigest()


def build() -> list[str]:
    """The header: the builds the lines depend on, one ``#`` line each."""
    def blas(config):
        return config["Build Dependencies"]["blas"]["openblas configuration"]
    return [
        f"# numpy {np.__version__}, BLAS {blas(np.show_config(mode='dicts'))}",
        f"# scipy {scipy.__version__}, BLAS {blas(scipy.show_config(mode='dicts'))}",
        f"# machine {platform.machine()}",
    ]


def lines():
    """Every digest line, each group closed by a line over its lines."""
    groups = ((items(), "all"),
              (predict_and_protocol_items(), "all predict and protocols"),
              (compare_toy_and_uci_items(), "all compare, toy and uci"),
              (stream_key_items(), "all stream keys"),
              (report_file_items(), "all report files"),
              (model_file_items(), "all model files"))
    for group, label in groups:
        overall = hashlib.sha256()
        for name, hexdigest in group:
            line = f"{hexdigest}  {name}"
            yield line
            overall.update(line.encode() + b"\n")
        yield f"{overall.hexdigest()}  {label}"


def main():
    for line in build():
        print(line, flush=True)
    for line in lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
