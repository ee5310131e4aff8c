"""Command-line orchestration: train models, compare inference modes, run the
experiment protocols, and benchmark runtimes.

Outputs land in a timestamped run directory (or ``--out``): one CSV per table
plus a ``summary.json`` that echoes the fully resolved configuration.  Exit
codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import inspect
import json
import time
from functools import partial
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
    read_numeric_csv,
    standardize_regression,
)
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
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"config file not found: {path}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DataError(f"config {path} is not a JSON object")
    return cfg


def _int_list(least: int):
    """The click callback that reads an option's comma-separated integers,
    each at least ``least``, as a tuple."""
    def parse(ctx, param, value):
        try:
            items = tuple(int(s) for s in value.split(","))
        except ValueError:
            raise click.BadParameter(
                f"{value!r} is not a comma-separated list of integers") from None
        if min(items) < least:
            raise click.BadParameter(f"{value!r} holds an integer below {least}")
        return items
    return parse


_COUNT = click.IntRange(min=1)


def _check_mc_samples(model, t: int) -> None:
    """A regression model's MC variance needs two passes; a classifier's
    probabilities take one."""
    if model.task == "regression" and t < 2:
        raise DataError(f"--t {t}: a regression model's MC variance needs --t >= 2")


def _resolve_out(ctx_obj, experiment: str) -> Path:
    if ctx_obj.get("out"):
        return Path(ctx_obj["out"])
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{experiment}-{stamp}"


UNSET = object()
"""The CLI default of a key that a config section takes without one of its
own: the constructor's default applies, or the key is required."""


def _load(section: str, spec, build, defaults: dict, data_dir=None, aliases=None):
    """``build(**options)``: the set ``defaults`` of a config ``section``
    updated by its JSON object ``spec``, whose keys must be among them (or
    ``aliases`` of them).  A relative ``path`` resolves against ``data_dir``.
    An unknown key, or a KeyError, TypeError or ValueError raised while
    building, is a data error that names the section."""
    if not isinstance(spec, dict):
        raise DataError(f"bad {section!r} config: {spec!r} is not a JSON object")
    spec = {(aliases or {}).get(k, k): v for k, v in spec.items()}
    if unknown := sorted(set(spec) - set(defaults)):
        raise DataError(f"bad {section!r} config: unknown key {', '.join(map(repr, unknown))} "
                        f"(it takes {', '.join(sorted(defaults))})")
    options = {**{k: v for k, v in defaults.items() if v is not UNSET}, **spec}
    try:
        if "path" in options:
            options["path"] = str(Path(data_dir or "", options["path"]))
        return build(**options)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise DataError(f"bad {section!r} config: {detail}") from exc


def _load_kind(section: str, spec, kinds: dict, *args, data_dir=None):
    """``_load`` for a section whose "kind" picks its constructor and defaults
    from ``kinds``; the constructor takes ``args`` before the options."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not (isinstance(kind, str) and kind in kinds):
        raise DataError(f"bad {section!r} config: kind {kind!r} is not one of {', '.join(kinds)}")
    build, defaults = kinds[kind]
    return _load(section, spec, lambda kind, **kw: build(*args, **kw),
                 {"kind": kind, **defaults}, data_dir)


def _synthetic_images(ind_classes=None, **options):
    data = gen_synthetic_images(**options)
    return ood_partition(data, ind_classes)[0] if ind_classes else data


def _train_schema(seed: int) -> dict:
    """The keys that each section below a train config's top level takes, with
    their CLI defaults; for a "dataset" or "model", per kind with its
    constructor (a model's takes the dataset first)."""
    return {
        "dataset": {
            "toy": (lambda **kw: standardize_regression(gen_toy_regression(**kw)),
                    {"n": 1536, "x_range": UNSET, "noise_sigma": UNSET, "seed": seed}),
            "csv": (load_csv_regression, {"path": UNSET, "target_column": UNSET,
                                          "split_fractions": UNSET, "seed": seed}),
            "synthetic_images": (_synthetic_images, {
                "n_per_class": 400, "n_classes": UNSET, "size": UNSET, "noise_sigma": 0.1,
                "split_fractions": UNSET, "ind_classes": None, "seed": seed}),
            "cifar10": (load_cifar10, {"path": UNSET}),
        },
        "model": {
            "mlp": (lambda data, **kw: mlp_regression(data.features.shape[1], **kw),
                    {"hidden": UNSET, "dropout_rate": UNSET, "tau": UNSET, "name": UNSET,
                     "seed": seed}),
            "cnn": (lambda data, **kw: cnn_classifier(
                        data.features.shape[1:], n_classes=data.n_classes, **kw),
                    {"conv_channels": (8, 16), "kernel_size": UNSET, "dense_units": (64,),
                     "dropout_rate": UNSET, "name": UNSET, "seed": seed}),
        },
        "train": {"epochs": 100, "batch_size": UNSET, "optimizer": UNSET,
                  "learning_rate": UNSET, "momentum": UNSET, "loss": UNSET,
                  "dropout_rates": None, "lr_reduction": {}, "early_stopping": {}, "seed": seed},
        "train.lr_reduction": {"patience": UNSET, "factor": UNSET, "min_lr": UNSET},
        "train.early_stopping": {"patience": UNSET},
    }


def _fit(model, data, schema, dropout_rates, lr_reduction, early_stopping, **options):
    """``train`` on the train section's options; null turns a nested one off."""
    def nested(section, spec, build):
        return None if spec is None else _load(section, spec, build, schema[section])

    return train(model, data, TrainConfig(
        dropout_rates=tuple(dropout_rates) if dropout_rates else None,
        lr_reduction=nested("train.lr_reduction", lr_reduction, LrReduction),
        early_stopping=nested("train.early_stopping", early_stopping, EarlyStopping),
        **options,
    ))


def _fit_inputs(x: np.ndarray, model, source) -> np.ndarray:
    """The inputs read from ``source`` as a batch for the model: a lone
    example becomes a batch of one; no rows, or any other shape than
    (N,) + model.input_shape, is a DataError naming both shapes."""
    if x.shape == model.input_shape:
        return x[None]
    if x.shape[:1] == (0,):
        raise DataError(f"{source}: no input rows")
    if x.shape[1:] != model.input_shape:
        raise DataError(
            f"{source}: inputs of shape {x.shape} do not fit the model's input shape "
            f"{model.input_shape}; give one example or a batch of shape (N, *input shape)"
        )
    return x


def _read_inputs(path, model) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such input file: {path}")
    if path.suffix == ".npy":
        try:
            x = np.asarray(np.load(path), dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise DataError(f"{path}: non-numeric input rows: {exc}") from exc
    elif path.suffix == ".csv":
        x = read_numeric_csv(path)[1]
    else:
        raise DataError(f"unsupported input format {path.suffix!r} (use .npy or .csv)")
    x = _fit_inputs(x, model, path)
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        raise DataError(f"{path}: input row {bad[0][0]} holds a non-finite value (NaN or inf)")
    return x


@click.group(cls=_MappedGroup)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Base RNG seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--threads", type=_COUNT, default=1, show_default=True,
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
    _load("top-level", cfg, partial(_train_run, obj, cfg), {
        "name": "train", "seed": obj["seed"], "dataset": {}, "model": {}, "train": {},
        "model_out": f"model{MODEL_FILE_EXTENSION}"})


def _train_run(obj, cfg, name, seed, dataset, model, train, model_out):
    out = _resolve_out(obj, name)
    out.mkdir(parents=True, exist_ok=True)
    schema = _train_schema(seed)
    data = _load_kind("dataset", dataset, schema["dataset"], data_dir=obj["data_dir"])
    net = _load_kind("model", model, schema["model"], data)
    trained, report = _load("train", train, partial(_fit, net, data, schema), schema["train"])
    model_path = out / model_out
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
@click.option("--t", type=_COUNT, default=1000, show_default=True)
@click.option("--limit", type=_COUNT, default=200, show_default=True)
@click.pass_obj
def cmd_compare(obj, model_path, input_path, dataset_config, t, limit):
    """Per-example propagated moments vs T-sample estimates."""
    model = load_model(model_path)
    _check_mc_samples(model, t)
    if input_path:
        x = _read_inputs(input_path, model)
    elif dataset_config:
        kinds = _train_schema(obj["seed"])["dataset"]
        ds = _load_kind("dataset", _load_json(dataset_config), kinds, data_dir=obj["data_dir"])
        x = _fit_inputs(ds.test_xy()[0], model, dataset_config)
    else:
        raise click.UsageError("provide --input or --dataset-config")
    _finish(experiments.run_compare(model, x[:limit], t=t, seed=obj["seed"]), obj, "compare")


@cli.group("experiment")
def cmd_experiment():
    """Run a named experiment protocol end to end."""


def _finish(report, obj, name):
    out = _resolve_out(obj, name)
    paths = report.write(out)
    click.echo(f"report written to {paths['summary']}")


def _run_experiment(obj, section: str, run, options: dict, *forwards_to, aliases=None):
    """Write the report of the protocol ``run`` on the command's ``options``
    updated by the ``--config`` file's ``section``, which takes the keyword
    parameters of ``run`` and of the functions it passes its extra keywords to
    (``forwards_to``), except a ``setup`` object, which no JSON value is."""
    params = [p for fn in (run, *forwards_to) for p in inspect.signature(fn).parameters.values()]
    takes = {p.name: UNSET for p in params if p.default is not p.empty and p.name != "setup"}
    report = _load(section, obj["config"].get(section, {}), run, {**takes, **options},
                   aliases=aliases)
    _finish(report, obj, section)


@cmd_experiment.command("toy")
@click.option("--t", type=_COUNT, default=10000, show_default=True)
@click.option("--epochs", type=_COUNT, default=2000, show_default=True)
@click.option("--n", type=_COUNT, default=1536, show_default=True)
@click.pass_obj
def cmd_toy(obj, t, epochs, n):
    _run_experiment(obj, "toy", experiments.run_toy_experiment,
                    {"t": t, "seed": obj["seed"], "epochs": epochs, "n": n},
                    experiments.train_toy_model)


@cmd_experiment.command("uci")
@click.option("--csv", "csv_paths", multiple=True,
              help="CSV spec as path:target_column[:name]; repeatable.")
@click.option("--t", type=_COUNT, default=1000, show_default=True)
@click.option("--epochs", type=_COUNT, default=200, show_default=True)
@click.pass_obj
def cmd_uci(obj, csv_paths, t, epochs):
    def entry(spec):
        return _load("uci", spec, dict,
                     dict.fromkeys(("name", "path", "target_column"), UNSET), obj["data_dir"])

    cli_specs = []
    for item in csv_paths:
        parts = item.split(":")
        if len(parts) < 2:
            raise click.UsageError(f"--csv expects path:target_column[:name], got {item!r}")
        cli_specs.append(entry({
            "path": parts[0],
            "target_column": parts[1],
            "name": parts[2] if len(parts) > 2 else Path(parts[0]).stem,
        }))

    def run(datasets=(), **run_kw):
        specs = [*map(entry, datasets), *cli_specs]
        if not specs:
            raise click.UsageError("no CSV datasets given (use --csv or a config file)")
        return experiments.run_uci_experiment(specs, **run_kw)

    _run_experiment(obj, "uci", run,
                    {"seed": obj["seed"], "threads": obj["threads"], "t_mc": t, "epochs": epochs},
                    experiments.run_uci_experiment, experiments.uci_run,
                    aliases={"t": "t_mc"})


@cmd_experiment.command("ood")
@click.option("--seeds", default="0", callback=_int_list(0), show_default=True,
              help="Comma-separated experiment seeds.")
@click.option("--ensemble", type=_COUNT, default=5, show_default=True)
@click.option("--t", type=_COUNT, default=50, show_default=True)
@click.pass_obj
def cmd_ood(obj, seeds, ensemble, t):
    _run_experiment(obj, "ood", experiments.run_ood_experiment,
                    {"seeds": seeds, "ensemble_size": ensemble, "t": t,
                     "threads": obj["threads"]},
                    experiments.build_ood_setup, aliases={"ensemble": "ensemble_size"})


@cmd_experiment.command("filter")
@click.option("--t", type=_COUNT, default=50, show_default=True)
@click.option("--ensemble", type=_COUNT, default=5, show_default=True)
@click.option("--kind", type=click.Choice(["entropy", "one_minus_max"]), default="entropy")
@click.pass_obj
def cmd_filter(obj, t, ensemble, kind):
    _run_experiment(obj, "filter", experiments.run_filter_experiment,
                    {"t": t, "kind": kind, "ensemble_size": ensemble,
                     "seeds": (obj["seed"],), "threads": obj["threads"]},
                    experiments.build_ood_setup, aliases={"ensemble": "ensemble_size"})


@cmd_experiment.command("auc-vs-t")
@click.option("--t-list", default="1,2,5,10,20,30,50", show_default=True,
              callback=_int_list(1))
@click.option("--repeats", type=_COUNT, default=20, show_default=True)
@click.pass_obj
def cmd_auc_vs_t(obj, t_list, repeats):
    _run_experiment(obj, "auc_vs_t", experiments.run_auc_vs_t_experiment,
                    {"t_list": t_list, "repeats": repeats, "seed": obj["seed"],
                     "seeds": (obj["seed"],), "ensemble_size": 1, "threads": obj["threads"]},
                    experiments.build_ood_setup)


@cli.command("benchmark")
@click.option("--model", "model_path", type=click.Path(), default=None,
              help="Model file; defaults to the untrained reference net.")
@click.option("--batch", type=_COUNT, default=32, show_default=True)
@click.option("--t-list", default="10,30", show_default=True, callback=_int_list(1))
@click.option("--repeats", type=_COUNT, default=5, show_default=True)
@click.pass_obj
def cmd_benchmark(obj, model_path, batch, t_list, repeats):
    """Wall-clock comparison of the three forward modes."""
    model = load_model(model_path) if model_path else experiments.reference_cnn()
    rng = np.random.default_rng(obj["seed"])
    x = rng.standard_normal((batch,) + model.input_shape)
    report = experiments.run_benchmark(model, x, t_list=t_list, repeats=repeats, seed=obj["seed"])
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
@click.option("--t", type=_COUNT, default=100, show_default=True)
@click.pass_obj
def cmd_predict(obj, model_path, input_path, mode, t):
    """Predictive distribution for a batch of inputs."""
    model = load_model(model_path)
    if mode == "mc":
        _check_mc_samples(model, t)
    x = _read_inputs(input_path, model)
    modes = {"det": Deterministic, "mc": lambda: MCSample(t, obj["seed"]), "mp": MomentPropagation}
    pred = predict(model, x, modes[mode]())
    if model.task == "regression":
        columns = {"mean": pred.mean, "variance": pred.variance,
                   "total_variance": pred.total_variance}
    else:
        columns = {"predicted_class": pred.probs.argmax(axis=1).tolist(),
                   "entropy": pred.entropy(), "one_minus_max": pred.one_minus_max(),
                   **{f"p{k}": p for k, p in enumerate(pred.probs.T)}}
    report = experiments.ExperimentReport(
        experiment="predict",
        config={"mode": mode, "t": t, "seed": obj["seed"], "model": str(model_path)},
        tables={"predictions": experiments.table_rows(example=range(len(x)), **columns)},
    )
    _finish(report, obj, "predict")


if __name__ == "__main__":
    main()
