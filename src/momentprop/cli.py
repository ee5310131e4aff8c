"""Command-line orchestration: train models, compare inference modes, run the
experiment protocols, and benchmark runtimes.

Outputs land in a timestamped run directory (or ``--out``): one CSV per table
plus a ``summary.json`` that echoes the fully resolved configuration.  Exit
codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import click
import numpy as np

from . import experiments
from .data import (
    DataError,
    gen_synthetic_images,
    gen_toy_regression,
    load_cifar10,
    load_csv_regression,
    ood_partition,
    standardize_regression,
)
from .metrics import entropy, one_minus_max
from .network import (
    MODEL_FILE_EXTENSION,
    Deterministic,
    MCSample,
    ModelIOError,
    MomentPropagation,
    cnn_classifier,
    load_model,
    mlp_regression,
    predict,
    save_model,
)
from .training import (
    EarlyStopping,
    LrReduction,
    TrainConfig,
    TrainingDivergedError,
    train,
)


class _DataFailure(click.ClickException):
    exit_code = 3


class _NumericFailure(click.ClickException):
    exit_code = 4


class _MappedGroup(click.Group):
    """Translate library exceptions into the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DataError, ModelIOError, FileNotFoundError) as exc:
            raise _DataFailure(str(exc)) from exc
        except (TrainingDivergedError, FloatingPointError) as exc:
            raise _NumericFailure(str(exc)) from exc


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc


def _resolve_out(ctx_obj, experiment: str) -> Path:
    if ctx_obj.get("out"):
        return Path(ctx_obj["out"])
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{experiment}-{stamp}"


def _resolve_data_path(path, data_dir):
    path = Path(path)
    if data_dir and not path.is_absolute():
        return Path(data_dir) / path
    return path


def _dataset_from_config(spec: dict, seed: int, data_dir=None):
    """The dataset a config names; arguments the generators refuse (a
    ValueError or TypeError) are data errors."""
    try:
        return _build_dataset(spec, seed, data_dir)
    except (ValueError, TypeError) as exc:
        raise DataError(f"bad dataset config: {exc}") from exc


def _build_dataset(spec: dict, seed: int, data_dir):
    kind = spec.get("kind")
    if kind == "toy":
        ds = gen_toy_regression(
            n=spec.get("n", 1536),
            x_range=tuple(spec.get("x_range", (-3.0, 19.0))),
            noise_sigma=spec.get("noise_sigma", 0.1),
            seed=spec.get("seed", seed),
        )
        return standardize_regression(ds)
    if kind == "csv":
        return load_csv_regression(
            _resolve_data_path(spec["path"], data_dir),
            spec["target_column"],
            split_fractions=tuple(spec.get("split_fractions", (0.8, 0.1, 0.1))),
            seed=spec.get("seed", seed),
        )
    if kind == "synthetic_images":
        ds = gen_synthetic_images(
            n_per_class=spec.get("n_per_class", 400),
            n_classes=spec.get("n_classes", 10),
            size=spec.get("size", 16),
            noise_sigma=spec.get("noise_sigma", 0.1),
            seed=spec.get("seed", seed),
            split_fractions=tuple(spec.get("split_fractions", (0.7, 0.15, 0.15))),
        )
        if spec.get("ind_classes"):
            ds, _ = ood_partition(ds, spec["ind_classes"])
        return ds
    if kind == "cifar10":
        return load_cifar10(_resolve_data_path(spec["path"], data_dir))
    raise DataError(f"unknown dataset kind {kind!r}")


def _model_from_config(spec: dict, dataset, seed: int):
    kind = spec.get("kind")
    if kind == "mlp":
        return mlp_regression(
            in_dim=dataset.features.shape[1],
            hidden=tuple(spec.get("hidden", (50,))),
            dropout_rate=spec.get("dropout_rate", 0.05),
            seed=spec.get("seed", seed),
            tau=spec.get("tau", 1.0),
            name=spec.get("name", "mlp"),
        )
    if kind == "cnn":
        c, h, w = dataset.features.shape[1:]
        return cnn_classifier(
            input_shape=(c, h, w),
            conv_channels=tuple(spec.get("conv_channels", (8, 16))),
            kernel_size=spec.get("kernel_size", 3),
            dense_units=tuple(spec.get("dense_units", (64,))),
            n_classes=dataset.n_classes,
            dropout_rate=spec.get("dropout_rate", 0.3),
            seed=spec.get("seed", seed),
            name=spec.get("name", "cnn"),
        )
    raise DataError(f"unknown model kind {kind!r}")


def _train_config(spec: dict, seed: int) -> TrainConfig:
    lr_red = spec.get("lr_reduction", {})
    early = spec.get("early_stopping", {})
    return TrainConfig(
        epochs=spec.get("epochs", 100),
        batch_size=spec.get("batch_size", 32),
        optimizer=spec.get("optimizer", "adam"),
        learning_rate=spec.get("learning_rate", 1e-3),
        momentum=spec.get("momentum", 0.0),
        loss=spec.get("loss", "mse"),
        dropout_rates=tuple(spec["dropout_rates"]) if spec.get("dropout_rates") else None,
        lr_reduction=None if lr_red is None else LrReduction(**lr_red),
        early_stopping=None if early is None else EarlyStopping(**early),
        seed=spec.get("seed", seed),
    )


def _read_inputs(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such input file: {path}")
    if path.suffix == ".npy":
        rows = np.load(path)
    elif path.suffix == ".csv":
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    else:
        raise DataError(f"unsupported input format {path.suffix!r} (use .npy or .csv)")
    try:
        x = np.asarray(rows, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise DataError(f"{path}: non-numeric input rows: {exc}") from exc
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        row = bad[0][0] if x.ndim else 0
        raise DataError(f"{path}: input row {row} holds a non-finite value (NaN or inf)")
    return x


@click.group(cls=_MappedGroup)
@click.option("--seed", type=int, default=0, show_default=True, help="Base RNG seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for independent runs.")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config file with experiment overrides.")
@click.option("--data-dir", type=click.Path(), default=None,
              help="Directory against which relative dataset paths resolve.")
@click.pass_context
def cli(ctx, seed, out, threads, config_path, data_dir):
    """Single-pass uncertainty toolkit for dropout networks."""
    ctx.obj = {
        "seed": seed,
        "out": out,
        "threads": threads,
        "config": _load_json(config_path) if config_path else {},
        "data_dir": data_dir,
    }


def main():
    cli(prog_name="momentprop")


@cli.command("train")
@click.argument("config", type=click.Path())
@click.pass_obj
def cmd_train(obj, config):
    """Train a model from a JSON config; writes the model file and report."""
    cfg = _load_json(config)
    seed = cfg.get("seed", obj["seed"])
    out = _resolve_out(obj, cfg.get("name", "train"))
    out.mkdir(parents=True, exist_ok=True)
    dataset = _dataset_from_config(cfg.get("dataset", {}), seed, obj.get("data_dir"))
    model = _model_from_config(cfg.get("model", {}), dataset, seed)
    train_cfg = _train_config(cfg.get("train", {}), seed)
    trained, report = train(model, dataset, train_cfg)
    model_path = out / cfg.get("model_out", f"model{MODEL_FILE_EXTENSION}")
    save_model(trained, model_path)
    (out / "train_report.json").write_text(
        json.dumps({"config": cfg, "report": report.to_dict()}, indent=2)
    )
    click.echo(f"model written to {model_path}")
    click.echo(f"best epoch {report.best_epoch} (val loss {min(report.val_loss):.6g})")


@cli.command("compare")
@click.argument("model_path", type=click.Path())
@click.option("--input", "input_path", type=click.Path(), default=None,
              help=".npy or .csv batch of inputs.")
@click.option("--dataset-config", type=click.Path(), default=None,
              help="Dataset JSON; the test split is compared.")
@click.option("--t", type=int, default=1000, show_default=True)
@click.option("--limit", type=int, default=200, show_default=True)
@click.pass_obj
def cmd_compare(obj, model_path, input_path, dataset_config, t, limit):
    """Per-example propagated moments vs T-sample estimates."""
    model = load_model(model_path)
    if input_path:
        x = _read_inputs(input_path)
    elif dataset_config:
        ds = _dataset_from_config(_load_json(dataset_config), obj["seed"], obj.get("data_dir"))
        x = ds.test_xy()[0]
    else:
        raise click.UsageError("provide --input or --dataset-config")
    x = x[:limit]
    report = experiments.run_compare(model, x, t=t, seed=obj["seed"])
    out = _resolve_out(obj, "compare")
    paths = report.write(out)
    click.echo(f"report written to {paths['summary']}")


@cli.group("experiment")
def cmd_experiment():
    """Run a named experiment protocol end to end."""


def _finish(report, obj, name):
    out = _resolve_out(obj, name)
    paths = report.write(out)
    click.echo(f"report written to {paths['summary']}")


def _run_experiment(obj, section: str, run, options: dict, aliases=None):
    """Run the protocol ``run`` on the command's ``options``, updated by the
    ``--config`` file's ``section``, and write its report.

    The section's keys are ``run``'s parameter names, or their ``aliases``.
    A key that ``run`` does not take, or an argument that its data or model
    set-up refuses (a KeyError, TypeError or ValueError), is a data error
    that names the section; a diverged training stays a numeric failure.
    """
    over = obj["config"].get(section, {})
    if not isinstance(over, dict):
        raise DataError(f"config section {section!r} must be a JSON object")
    aliases = aliases or {}
    kwargs = {**options, **{aliases.get(k, k): v for k, v in over.items()}}
    try:
        report = run(**kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise DataError(f"bad {section!r} config: {detail}") from exc
    _finish(report, obj, section)


@cmd_experiment.command("toy")
@click.option("--t", type=int, default=10000, show_default=True)
@click.option("--epochs", type=int, default=2000, show_default=True)
@click.option("--n", type=int, default=1536, show_default=True)
@click.pass_obj
def cmd_toy(obj, t, epochs, n):
    _run_experiment(obj, "toy", experiments.run_toy_experiment,
                    {"t": t, "seed": obj["seed"], "epochs": epochs, "n": n})


@cmd_experiment.command("uci")
@click.option("--csv", "csv_paths", multiple=True,
              help="CSV spec as path:target_column[:name]; repeatable.")
@click.option("--t", type=int, default=1000, show_default=True)
@click.option("--epochs", type=int, default=200, show_default=True)
@click.pass_obj
def cmd_uci(obj, csv_paths, t, epochs):
    cli_specs = []
    for item in csv_paths:
        parts = item.split(":")
        if len(parts) < 2:
            raise click.UsageError(f"--csv expects path:target_column[:name], got {item!r}")
        cli_specs.append({
            "path": str(_resolve_data_path(parts[0], obj.get("data_dir"))),
            "target_column": parts[1],
            "name": parts[2] if len(parts) > 2 else Path(parts[0]).stem,
        })

    def run(datasets=(), **run_kw):
        specs = [*datasets, *cli_specs]
        if not specs:
            raise click.UsageError("no CSV datasets given (use --csv or a config file)")
        return experiments.run_uci_experiment(specs, **run_kw)

    _run_experiment(obj, "uci", run,
                    {"seed": obj["seed"], "threads": obj["threads"], "t_mc": t, "epochs": epochs},
                    aliases={"t": "t_mc"})


@cmd_experiment.command("ood")
@click.option("--seeds", type=str, default="0", show_default=True,
              help="Comma-separated experiment seeds.")
@click.option("--ensemble", type=int, default=5, show_default=True)
@click.option("--t", type=int, default=50, show_default=True)
@click.pass_obj
def cmd_ood(obj, seeds, ensemble, t):
    seed_list = tuple(int(s) for s in seeds.split(","))
    _run_experiment(obj, "ood", experiments.run_ood_experiment,
                    {"seeds": seed_list, "ensemble_size": ensemble, "t": t,
                     "threads": obj["threads"]},
                    aliases={"ensemble": "ensemble_size"})


@cmd_experiment.command("filter")
@click.option("--t", type=int, default=50, show_default=True)
@click.option("--ensemble", type=int, default=5, show_default=True)
@click.option("--kind", type=click.Choice(["entropy", "one_minus_max"]), default="entropy")
@click.pass_obj
def cmd_filter(obj, t, ensemble, kind):
    _run_experiment(obj, "filter", experiments.run_filter_experiment,
                    {"t": t, "kind": kind, "ensemble_size": ensemble,
                     "seeds": (obj["seed"],), "threads": obj["threads"]},
                    aliases={"ensemble": "ensemble_size"})


@cmd_experiment.command("auc-vs-t")
@click.option("--t-list", type=str, default="1,2,5,10,20,30,50", show_default=True)
@click.option("--repeats", type=int, default=20, show_default=True)
@click.pass_obj
def cmd_auc_vs_t(obj, t_list, repeats):
    ts = tuple(int(s) for s in t_list.split(","))
    _run_experiment(obj, "auc_vs_t", experiments.run_auc_vs_t_experiment,
                    {"t_list": ts, "repeats": repeats, "seed": obj["seed"],
                     "seeds": (obj["seed"],), "ensemble_size": 1, "threads": obj["threads"]})


@cli.command("benchmark")
@click.option("--model", "model_path", type=click.Path(), default=None,
              help="Model file; defaults to the untrained reference net.")
@click.option("--batch", type=int, default=32, show_default=True)
@click.option("--t-list", type=str, default="10,30", show_default=True)
@click.option("--repeats", type=int, default=5, show_default=True)
@click.pass_obj
def cmd_benchmark(obj, model_path, batch, t_list, repeats):
    """Wall-clock comparison of the three forward modes."""
    model = load_model(model_path) if model_path else experiments.reference_cnn()
    rng = np.random.default_rng(obj["seed"])
    x = rng.standard_normal((batch,) + model.input_shape)
    ts = tuple(int(s) for s in t_list.split(","))
    report = experiments.run_benchmark(model, x, t_list=ts, repeats=repeats, seed=obj["seed"])
    _finish(report, obj, "benchmark")
    for row in report.tables["ratios"]:
        click.echo(
            f"T={row['t']}: sampling/propagation {row['mc_over_mp']:.1f}x, "
            f"propagation/deterministic {row['mp_over_det']:.2f}x"
        )


@cli.command("predict")
@click.argument("model_path", type=click.Path())
@click.option("--input", "input_path", type=click.Path(), required=True)
@click.option("--mode", type=click.Choice(["det", "mc", "mp"]), default="mp", show_default=True)
@click.option("--t", type=int, default=100, show_default=True)
@click.pass_obj
def cmd_predict(obj, model_path, input_path, mode, t):
    """Predictive distribution for a batch of inputs."""
    model = load_model(model_path)
    x = _read_inputs(input_path)
    if mode == "mc":
        pred = predict(model, x, MCSample(t, seed=obj["seed"]))
    else:
        pred = predict(model, x, Deterministic() if mode == "det" else MomentPropagation())
    rows = []
    if model.task == "regression":
        total = pred.total_variance
        for i in range(len(x)):
            rows.append({
                "example": i, "mean": pred.mean[i], "variance": pred.variance[i],
                "total_variance": total[i],
            })
    else:
        probs = pred.probs
        for i in range(len(x)):
            row = {"example": i, "predicted_class": int(probs[i].argmax()),
                   "entropy": entropy(probs[i]), "one_minus_max": one_minus_max(probs[i])}
            row.update({f"p{k}": probs[i, k] for k in range(probs.shape[1])})
            rows.append(row)
    report = experiments.ExperimentReport(
        experiment="predict",
        config={"mode": mode, "t": t, "seed": obj["seed"], "model": str(model_path)},
        tables={"predictions": rows},
    )
    _finish(report, obj, "predict")


if __name__ == "__main__":
    main()
