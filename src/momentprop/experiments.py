"""End-to-end experiment protocols behind the CLI: toy-curve comparison,
benchmark-table runs on regression CSVs, the held-out-class detection study,
filter curves, the AUC-versus-sample-count sweep, and runtime benchmarks.

Every reported number comes from an operation in ``metrics``; runtimes are
measured around forward calls only (at least ``repeats`` calls), except the
toy protocol's one call of ``toy_curves`` and the training wall times.
"""

from __future__ import annotations

import csv
import inspect
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .data import (
    Dataset,
    destandardize_mean_var,
    gen_synthetic_images,
    gen_toy_regression,
    load_csv_regression,
    ood_partition,
    standardize_regression,
)
from .mc import mc_forward
from .network import (
    Deterministic,
    MCSample,
    ModelSpec,
    MomentPropagation,
    _check_samples,
    cnn_classifier,
    forward_det,
    forward_mp,
    mlp_regression,
    predict,
)
from .training import TrainConfig, grid_search_uci, train


@dataclass
class ExperimentReport:
    """Structured results: config echo, named tables and runtimes."""

    experiment: str
    config: dict
    tables: dict[str, list[dict]] = field(default_factory=dict)
    runtimes: dict[str, dict] = field(default_factory=dict)

    def write(self, out_dir) -> dict[str, str]:
        """Write one CSV per table plus a JSON summary; returns the paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, rows in self.tables.items():
            path = out / f"{name}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                if rows:
                    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                    writer.writeheader()
                    writer.writerows(rows)
            paths[name] = str(path)
        summary = {
            "experiment": self.experiment,
            "config": self.config,
            "runtimes": self.runtimes,
            "tables": paths,
        }
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2, default=float))
        paths["summary"] = str(summary_path)
        return paths


def _echo(fn, **kwargs) -> dict:
    """The keyword arguments of a call ``fn(..., **kwargs)`` with the defaults
    of ``fn`` filled in and tuples written as lists: a report's config echo."""
    bound = inspect.signature(fn).bind_partial(**kwargs)
    bound.apply_defaults()
    return {k: list(v) if isinstance(v, tuple) else v for k, v in bound.arguments.items()}


def table_rows(**columns) -> list[dict]:
    """The rows of a report table given as equal-length columns, each row
    keyed in argument order; a column of another length raises ValueError."""
    return [dict(zip(columns, row)) for row in zip(*columns.values(), strict=True)]


MIN_TIMED_S = 1.5
"""Measured seconds ``_timed_with_median`` accumulates before it stops."""


def _timed_with_median(fn, repeats):
    """Last result, and the mean, SE and median of per-call wall time and the
    number of calls timed, ``{"mean_s", "se_s", "median_s", "repeats"}``,
    after one untimed warm-up call.

    ``repeats`` is the least number of calls timed.  Short-running calls
    are repeated beyond it until ``MIN_TIMED_S`` of measured time accumulates
    or 200 calls are timed, which keeps the median stable against scheduler
    noise on shared hosts.
    """
    fn()  # warmup
    times = []
    total = 0.0
    while len(times) < repeats or (total < MIN_TIMED_S and len(times) < 200):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        times.append(elapsed)
        total += elapsed
    mean, se = metrics.mean_with_se(times)
    return result, {"mean_s": mean, "se_s": se, "median_s": float(np.median(times)),
                    "repeats": len(times)}


def _parallel_map(fn, items, threads: int = 1):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# compare: per-example propagated moments vs sampling estimates


def run_compare(model: ModelSpec, x, t: int = 1000, seed: int = 0) -> ExperimentReport:
    """Tabulate propagated (E, V) against T-sample estimates per example."""
    x = np.asarray(x, dtype=np.float64)
    mp = predict(model, x, MomentPropagation())
    if model.task == "regression":
        est = mc_forward(model, x, t, seed=seed).moments()
        mean_mc, se_mc = est.mean[..., 0], est.standard_error_mean[..., 0]
        diff = mp.mean - mean_mc
        # an output that no dropout mask moves has no SE; its z-score is 0
        z = np.divide(diff, se_mc, out=np.zeros_like(diff), where=se_mc > 0)
        abs_diff, abs_z = np.abs(diff), np.abs(z)
        columns = {"e_mp": mp.mean, "v_mp": mp.variance, "mean_mc": mean_mc,
                   "var_mc": est.variance[..., 0], "se_mc": se_mc,
                   "abs_diff": abs_diff, "z_score": z}
        stats = {"max_abs_z": float(abs_z.max()),
                 "frac_within_3se": float((abs_z <= 3.0).mean()),
                 "max_abs_diff": float(abs_diff.max())}
    else:
        mc = predict(model, x, MCSample(t, seed))
        prob_diff = np.abs(mp.probs - mc.probs).max(axis=1)
        columns = {"max_abs_prob_diff": prob_diff.tolist(),
                   "entropy_mp": mp.entropy(), "entropy_mc": mc.entropy()}
        stats = {"max_abs_prob_diff": float(prob_diff.max())}
    return ExperimentReport(
        experiment="compare",
        config={"t": t, "seed": seed, "task": model.task, "n_examples": len(x)},
        tables={"per_example": table_rows(example=range(len(x)), **columns),
                "summary": [{"t": t, **stats}]},
    )


# ---------------------------------------------------------------------------
# toy 1-D regression


def train_toy_model(
    n: int = 1536,
    hidden: tuple[int, ...] = (256, 256, 256),
    dropout_rate: float = 0.3,
    epochs: int = 2000,
    batch_size: int = 128,
    learning_rate: float = 1e-3,
    tau: float = 100.0,
    seed: int = 0,
    data_seed: int = 1,
):
    """Train the 1-D toy regressor on standardized data.

    Fixed-epoch protocol: no early stopping, best-validation weights kept.
    Returns (model, standardized dataset).
    """
    data = standardize_regression(gen_toy_regression(n, seed=data_seed))
    model = mlp_regression(
        1, hidden=hidden, dropout_rate=dropout_rate, seed=seed, tau=tau, name="toy-mlp"
    )
    cfg = TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        optimizer="adam",
        learning_rate=learning_rate,
        loss="mse",
        early_stopping=None,
        lr_reduction=None,
        seed=seed,
    )
    model, report = train(model, data, cfg)
    return model, data, report


def toy_curves(model: ModelSpec, data: Dataset, t: int = 10_000, seed: int = 0) -> list[dict]:
    """Per-grid-point comparison of the three inference modes (original units)."""
    x_test, _ = data.test_xy()
    rec = data.standardization
    det = predict(model, x_test).mean
    mp = predict(model, x_test, MomentPropagation())
    est = mc_forward(model, x_test, t, seed=seed).moments()
    det_o, _ = destandardize_mean_var(rec, det, np.zeros_like(det))
    mp_mean, mp_var = destandardize_mean_var(rec, mp.mean, mp.variance)
    mc_mean, mc_var = destandardize_mean_var(rec, est.mean[:, 0], est.variance[:, 0])
    _, mc_se_sq = destandardize_mean_var(
        rec, np.zeros_like(det), np.square(est.standard_error_mean[:, 0])
    )
    return table_rows(
        x=rec.feature_mean[0] + rec.feature_std[0] * x_test[:, 0],
        det_mean=det_o, mp_mean=mp_mean, mp_sd=np.sqrt(mp_var),
        mc_mean=mc_mean, mc_sd=np.sqrt(mc_var), mc_se_mean=np.sqrt(mc_se_sq),
    )


def run_toy_experiment(t: int = 10_000, seed: int = 0, **train_kw) -> ExperimentReport:
    """Train the toy model (``train_toy_model`` on ``seed`` and ``train_kw``)
    and tabulate its curves at T samples."""
    model, data, train_report = train_toy_model(seed=seed, **train_kw)
    started = time.perf_counter()
    rows = toy_curves(model, data, t=t, seed=seed)
    curve_s = time.perf_counter() - started
    return ExperimentReport(
        experiment="toy",
        config={"t": t, **_echo(train_toy_model, seed=seed, **train_kw)},
        tables={"curves": rows},
        runtimes={
            "curve_evaluation": {"mean_s": curve_s, "se_s": 0.0, "repeats": 1},
            "training": {"mean_s": train_report.wall_clock_seconds, "se_s": 0.0, "repeats": 1},
        },
    )


# ---------------------------------------------------------------------------
# regression CSV benchmark rows


def uci_run(
    name: str,
    data: Dataset,
    p_grid=(0.01, 0.05),
    tau_grid=(0.25, 1.0, 4.0),
    hidden: tuple[int, ...] = (50,),
    epochs: int = 200,
    t_mc: int = 1000,
    seed: int = 0,
    timing_repeats: int = 3,
) -> dict:
    """One benchmark-table row: pick hyperparameters on validation NLL, then
    score the test split with sampling (T passes) and with propagation."""
    in_dim = data.features.shape[1]
    cfg = TrainConfig(epochs=epochs, batch_size=32, loss="mse", seed=seed)

    def build(p_star):
        return mlp_regression(in_dim, hidden=hidden, dropout_rate=p_star, seed=seed, tau=1.0)

    result = grid_search_uci(build, data, p_grid, tau_grid, cfg)
    model = result.model
    x_test, y_test_std = data.test_xy()
    rec = data.standardization
    y_test = rec.target_mean + rec.target_std * y_test_std
    s2 = rec.target_std**2
    tau_orig = result.tau / s2

    batch, rt_mc = _timed_with_median(
        lambda: mc_forward(model, x_test, t_mc, seed=seed), timing_repeats)
    pred, rt_mp = _timed_with_median(
        lambda: predict(model, x_test, MomentPropagation()), timing_repeats)
    mu = rec.target_mean + rec.target_std * batch.outputs[..., 0]
    score_mc = metrics.score_regression_mc(mu, tau_orig, y_test)
    mean, var = destandardize_mean_var(rec, pred.mean, pred.variance)
    score_mp = metrics.score_regression_mp(mean, var, tau_orig, y_test)
    _, nll_mc_se = metrics.mean_with_se(-score_mc.log_densities)
    _, nll_mp_se = metrics.mean_with_se(-score_mp.log_densities)
    return {
        "dataset": name,
        "n": len(data),
        "q": in_dim,
        "p_star": result.p_star,
        "tau": result.tau,
        "t_mc": t_mc,
        "rmse_mc": score_mc.rmse,
        "nll_mc": score_mc.nll,
        "nll_mc_se": nll_mc_se,
        "rt_mc_s": rt_mc["mean_s"],
        "rt_mc_se_s": rt_mc["se_s"],
        "rmse_mp": score_mp.rmse,
        "nll_mp": score_mp.nll,
        "nll_mp_se": nll_mp_se,
        "rt_mp_s": rt_mp["mean_s"],
        "rt_mp_se_s": rt_mp["se_s"],
    }


def run_uci_experiment(
    csv_specs: list[dict],
    seed: int = 0,
    threads: int = 1,
    **run_kw,
) -> ExperimentReport:
    """csv_specs entries: {"name", "path", "target_column"}."""
    def one(spec):
        data = load_csv_regression(spec["path"], spec["target_column"], seed=seed)
        return uci_run(spec["name"], data, seed=seed, **run_kw)

    rows = _parallel_map(one, csv_specs, threads)
    return ExperimentReport(
        experiment="uci",
        config={"datasets": csv_specs, "threads": threads,
                **_echo(uci_run, seed=seed, **run_kw)},
        tables={"benchmark": rows},
    )


# ---------------------------------------------------------------------------
# held-out-class (OOD) study on synthetic images


@dataclass
class OodSetup:
    ind_data: Dataset
    ood_data: Dataset
    members: dict[int, list[ModelSpec]]  # experiment seed -> ensemble members
    config: dict


def build_ood_setup(
    seeds=(0,),
    ensemble_size: int = 1,
    n_per_class: int = 400,
    n_classes: int = 10,
    image_size: int = 16,
    ind_classes=(0, 1, 4, 5, 8),
    data_seed: int = 7,
    split_fractions=(0.5, 0.125, 0.375),
    conv_channels=(8, 16),
    dense_units=(64,),
    dropout_rate: float = 0.3,
    epochs: int = 40,
    batch_size: int = 64,
    learning_rate: float = 1e-3,
    threads: int = 1,
) -> OodSetup:
    """Generate the image benchmark, hold out half the classes, and train one
    ensemble of classifiers per experiment seed on the in-distribution part."""
    config = _echo(build_ood_setup, **locals())
    if not seeds:
        raise ValueError("seeds must name at least one experiment seed")
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
    data = gen_synthetic_images(
        n_per_class, n_classes=n_classes, size=image_size,
        seed=data_seed, split_fractions=split_fractions,
    )
    ind_data, ood_data = ood_partition(data, ind_classes)

    def train_member(args):
        seed, member = args
        init_seed = 1000 * seed + member
        model = cnn_classifier(
            input_shape=(1, image_size, image_size),
            conv_channels=conv_channels,
            dense_units=dense_units,
            n_classes=len(ind_classes),
            dropout_rate=dropout_rate,
            seed=init_seed,
            name=f"ood-cnn-s{seed}m{member}",
        )
        cfg = TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            optimizer="adam",
            learning_rate=learning_rate,
            loss="categorical_nll",
            seed=init_seed,
        )
        trained, _ = train(model, ind_data, cfg)
        return trained

    jobs = [(seed, member) for seed in seeds for member in range(ensemble_size)]
    models = _parallel_map(train_member, jobs, threads)
    members: dict[int, list[ModelSpec]] = {seed: [] for seed in seeds}
    for (seed, _), model in zip(jobs, models):
        members[seed].append(model)
    return OodSetup(ind_data=ind_data, ood_data=ood_data, members=members, config=config)


def _member_probs(model: ModelSpec, x, t: int, mc_seed: int) -> dict:
    """``{"nn"|"mc"|"mp": predict(...)}`` for one model on a batch: the plain
    forward, T-pass MC dropout and moment propagation."""
    modes = {"nn": Deterministic(), "mc": MCSample(t, mc_seed), "mp": MomentPropagation()}
    return {method: predict(model, x, mode) for method, mode in modes.items()}


def ensemble_probs(models: list[ModelSpec], x, t: int, mc_seed: int) -> dict:
    """Each method's members' predictions combined by ``ensemble_combine``."""
    members = [_member_probs(model, x, t, mc_seed + 17 * j) for j, model in enumerate(models)]
    return {m: metrics.ensemble_combine([p[m] for p in members]) for m in members[0]}


def ood_seed_metrics(setup: OodSetup, seed: int, t: int = 50) -> dict:
    """Correlation and detection metrics for one experiment seed.

    Entropy of the predictive distribution is the detection score; the
    held-out classes are the positive class.  MC dropout draws from seeds
    9000 + seed onwards.
    """
    return _ood_seed(setup, seed, t)[0]


def _ood_seed(setup: OodSetup, seed: int, t: int):
    """``ood_seed_metrics``' row, and the first member's entropies on the
    in-distribution and held-out test sets (``{"ind"|"ood": {method: array}}``)
    from which its correlations and single-model AUCs come."""
    mc_seed = 9000 + seed
    models = setup.members[seed]
    x_ind, y_ind = setup.ind_data.test_xy()
    x_ood, _ = setup.ood_data.test_xy()
    result = {"seed": seed, "t": t, "ens": len(models)}
    probs1 = {"ind": _member_probs(models[0], x_ind, t, mc_seed),
              "ood": _member_probs(models[0], x_ood, t, mc_seed + 1)}
    ent1 = {sub: {m: p.entropy() for m, p in d.items()} for sub, d in probs1.items()}
    for sub, ent in ent1.items():
        for method in ("mp", "nn"):
            key = f"pearson_{method}_mc_{sub}"
            result[key], result[f"{key}_lo"], result[f"{key}_hi"] = metrics.pearson_ci(
                ent[method], ent["mc"]
            )
    labels = np.r_[np.zeros(len(x_ind)), np.ones(len(x_ood))]
    for method in ("nn", "mc", "mp"):
        scores = np.r_[ent1["ind"][method], ent1["ood"][method]]
        result[f"auc_{method}"] = metrics.roc_auc(scores, labels).auc
    result["accuracy_ind"] = float((probs1["ind"]["mp"].probs.argmax(axis=1) == y_ind).mean())
    if len(models) > 1:
        ens_ind = ensemble_probs(models, x_ind, t, mc_seed + 2)
        ens_ood = ensemble_probs(models, x_ood, t, mc_seed + 3)
        for method in ("nn", "mc", "mp"):
            scores = np.r_[ens_ind[method].entropy(), ens_ood[method].entropy()]
            result[f"auc_{method}_ens"] = metrics.roc_auc(scores, labels).auc
    return result, ent1


def run_ood_experiment(
    seeds=(0,),
    ensemble_size: int = 5,
    t: int = 50,
    setup: OodSetup | None = None,
    **setup_kw,
) -> ExperimentReport:
    if setup is None:
        setup = build_ood_setup(seeds=seeds, ensemble_size=ensemble_size, **setup_kw)
    per_seed = [_ood_seed(setup, seed, t) for seed in setup.members]
    rows = [row for row, _ in per_seed]
    # the first seed's entropies, those behind its row's auc_nn, auc_mc and auc_mp
    ent_rows = [row for sub, h in per_seed[0][1].items() for row in table_rows(
        subset=[sub] * len(h["nn"]), example=range(len(h["nn"])),
        entropy_nn=h["nn"], entropy_mc=h["mc"], entropy_mp=h["mp"])]
    return ExperimentReport(
        experiment="ood",
        config={**setup.config, "t": t},
        tables={"ood_metrics": rows, "entropies": ent_rows},
    )


# ---------------------------------------------------------------------------
# filter experiment


def run_filter_experiment(
    setup: OodSetup | None = None,
    t: int = 50,
    kind: str = "entropy",
    **setup_kw,
) -> ExperimentReport:
    """Sort test predictions by uncertainty and report prefix accuracies for
    every method, using the in-distribution test split."""
    if setup is None:
        setup = build_ood_setup(**setup_kw)
    seed0 = next(iter(setup.members))
    models = setup.members[seed0]
    x, y = setup.ind_data.test_xy()
    rows = []
    variants = [("1", _member_probs(models[0], x, t, 9100))]
    if len(models) > 1:
        variants.append((str(len(models)), ensemble_probs(models, x, t, 9200)))
    for ens_tag, probs in variants:
        for method in ("nn", "mc", "mp"):
            for row in metrics.filter_curve(probs[method].probs, y, kind=kind):
                rows.append({"method": method, "ensemble": ens_tag, **row})
    return ExperimentReport(
        experiment="filter",
        config={**setup.config, "t": t, "kind": kind},
        tables={"filter": rows},
    )


# ---------------------------------------------------------------------------
# AUC versus number of stochastic passes


def auc_vs_t_rows(
    model: ModelSpec,
    setup: OodSetup,
    t_list=(1, 2, 5, 10, 20, 30, 50),
    repeats: int = 20,
    seed: int = 0,
    max_per_side: int = 400,
) -> tuple[list[dict], dict]:
    """AUC of the sampling method at each T (prefix-nested within a repeat),
    plus the fixed deterministic and propagated baselines."""
    if not t_list:
        raise ValueError("t_list must hold at least one sample count")
    try:
        t_list = [_check_samples(t) for t in t_list]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"t_list: {exc}") from None
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    x_ind, _ = setup.ind_data.test_xy()
    x_ood, _ = setup.ood_data.test_xy()
    if len(x_ind) > max_per_side:
        x_ind = x_ind[rng.choice(len(x_ind), max_per_side, replace=False)]
    if len(x_ood) > max_per_side:
        x_ood = x_ood[rng.choice(len(x_ood), max_per_side, replace=False)]
    x = np.concatenate([x_ind, x_ood])
    labels = np.r_[np.zeros(len(x_ind)), np.ones(len(x_ood))]
    auc_nn = metrics.roc_auc(predict(model, x).entropy(), labels).auc
    auc_mp = metrics.roc_auc(predict(model, x, MomentPropagation()).entropy(), labels).auc
    t_max = max(t_list)
    rows = []
    for rep in range(repeats):
        outputs = mc_forward(model, x, t_max, seed=seed + 1000 * rep).outputs
        cum = np.cumsum(outputs, axis=0)
        for t in t_list:
            probs = cum[t - 1] / t
            auc = metrics.roc_auc(metrics.entropy(probs), labels).auc
            rows.append({"t": t, "repeat": rep, "auc_mc": auc})
    baselines = {"auc_nn": auc_nn, "auc_mp": auc_mp}
    return rows, baselines


def run_auc_vs_t_experiment(
    t_list=(1, 2, 5, 10, 20, 30, 50),
    repeats: int = 20,
    seed: int = 0,
    setup: OodSetup | None = None,
    **setup_kw,
) -> ExperimentReport:
    if setup is None:
        setup = build_ood_setup(**setup_kw)
    seed0 = next(iter(setup.members))
    model = setup.members[seed0][0]
    rows, baselines = auc_vs_t_rows(model, setup, t_list=t_list, repeats=repeats, seed=seed)
    medians = []
    for t in t_list:
        aucs = [r["auc_mc"] for r in rows if r["t"] == t]
        medians.append(
            {"t": t, "auc_mc_median": float(np.median(aucs)), **baselines}
        )
    return ExperimentReport(
        experiment="auc_vs_t",
        config={**setup.config, "t_list": list(t_list), "repeats": repeats, "seed": seed},
        tables={"auc_vs_t": rows, "auc_vs_t_median": medians},
    )


# ---------------------------------------------------------------------------
# runtime benchmark


def reference_cnn(seed: int = 0) -> ModelSpec:
    """The three-block 16/32/64 conv net with two 128-unit dense stages and
    10 classes used for runtime measurements on 32x32x3 inputs."""
    return cnn_classifier(
        input_shape=(3, 32, 32),
        conv_channels=(16, 32, 64),
        dense_units=(128, 128),
        n_classes=10,
        dropout_rate=0.3,
        seed=seed,
        name="reference-cnn",
    )


def run_benchmark(
    model: ModelSpec,
    batch,
    t_list=(10, 30),
    repeats: int = 5,
    seed: int = 0,
) -> ExperimentReport:
    """Wall-clock for deterministic, propagated, and T-sample forwards.

    Tables report mean +/- SE over the repeats; the speedup ratios use the
    per-mode medians, which are robust to scheduler noise on shared hosts.
    """
    batch = np.asarray(batch, dtype=np.float64)
    forwards = [("det", 1, lambda: forward_det(model, batch)),
                ("mp", 1, lambda: forward_mp(model, batch))]
    forwards += [("mc", t, lambda t=t: mc_forward(model, batch, t, seed=seed)) for t in t_list]
    timings = [(mode, t, _timed_with_median(fn, repeats)[1]) for mode, t, fn in forwards]
    rows = [{"mode": mode, "t": t, **timing} for mode, t, timing in timings]
    med = {(r["mode"], r["t"]): r["median_s"] for r in rows}
    ratios = [
        {
            "t": t,
            "mc_over_mp": med["mc", t] / med["mp", 1],
            "mc_over_det": med["mc", t] / med["det", 1],
            "mp_over_det": med["mp", 1] / med["det", 1],
        }
        for t in t_list
    ]
    return ExperimentReport(
        experiment="benchmark",
        config={"batch": int(batch.shape[0]), "t_list": list(t_list),
                "repeats": repeats, "seed": seed, "model": model.metadata.name},
        tables={"timings": rows, "ratios": ratios},
        runtimes={mode: timing for mode, _, timing in timings[:2]},
    )
