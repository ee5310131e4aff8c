"""End-to-end experiment protocols behind the CLI: toy-curve comparison,
benchmark-table runs on regression CSVs, the held-out-class detection study,
filter curves, the AUC-versus-sample-count sweep, and runtime benchmarks.

Every reported number comes from an operation in ``metrics``; runtimes are
measured around forward calls only and over at least three repeats.
"""

from __future__ import annotations

import csv
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
    CategoricalPrediction,
    ModelSpec,
    cnn_classifier,
    forward_det,
    forward_mp,
    mlp_regression,
)
from .training import TrainConfig, train


@dataclass
class ExperimentReport:
    """Structured results: config echo, named tables, runtimes, artifacts."""

    experiment: str
    config: dict
    tables: dict[str, list[dict]] = field(default_factory=dict)
    runtimes: dict[str, dict] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)

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
            "artifacts": self.artifacts,
        }
        summary_path = out / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2, default=float))
        paths["summary"] = str(summary_path)
        return paths


def timed(fn, repeats: int = 3, warmup: bool = True):
    """Run fn repeatedly; returns (last result, mean seconds, se seconds).

    One untimed warmup call settles allocator and cache state so the mean
    reflects steady-state cost.
    """
    if repeats < 3:
        repeats = 3
    if warmup:
        result = fn()
    times = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    mean, se = metrics.mean_with_se(times)
    return result, mean, se


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
    batch = mc_forward(model, x, t, seed=seed)
    est = batch.moments()
    rows = []
    if model.task == "regression":
        mt = forward_mp(model, x)
        e_mp, v_mp = mt.expectation[..., 0], mt.variance[..., 0]
        mean_mc, var_mc = est.mean[..., 0], est.variance[..., 0]
        se_mc = est.standard_error_mean[..., 0]
        for i in range(len(x)):
            z = (e_mp[i] - mean_mc[i]) / se_mc[i] if se_mc[i] > 0 else 0.0
            rows.append(
                {
                    "example": i,
                    "e_mp": e_mp[i],
                    "v_mp": v_mp[i],
                    "mean_mc": mean_mc[i],
                    "var_mc": var_mc[i],
                    "se_mc": se_mc[i],
                    "abs_diff": abs(e_mp[i] - mean_mc[i]),
                    "z_score": z,
                }
            )
        zs = np.array([abs(r["z_score"]) for r in rows])
        summary = [{
            "t": t,
            "max_abs_z": float(zs.max()),
            "frac_within_3se": float((zs <= 3.0).mean()),
            "max_abs_diff": float(max(r["abs_diff"] for r in rows)),
        }]
    else:
        probs_mp = forward_mp(model, x)
        probs_mc = batch.outputs.mean(axis=0)
        for i in range(len(x)):
            diff = np.abs(probs_mp[i] - probs_mc[i])
            rows.append(
                {
                    "example": i,
                    "max_abs_prob_diff": float(diff.max()),
                    "entropy_mp": metrics.entropy(probs_mp[i]),
                    "entropy_mc": metrics.entropy(probs_mc[i]),
                }
            )
        summary = [{
            "t": t,
            "max_abs_prob_diff": float(max(r["max_abs_prob_diff"] for r in rows)),
        }]
    report = ExperimentReport(
        experiment="compare",
        config={"t": t, "seed": seed, "task": model.task, "n_examples": len(x)},
        tables={"per_example": rows, "summary": summary},
    )
    return report


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
    det = forward_det(model, x_test)[:, 0]
    mt = forward_mp(model, x_test)
    est = mc_forward(model, x_test, t, seed=seed).moments()
    det_o, _ = destandardize_mean_var(rec, det, np.zeros_like(det))
    mp_mean, mp_var = destandardize_mean_var(rec, mt.expectation[:, 0], mt.variance[:, 0])
    mc_mean, mc_var = destandardize_mean_var(rec, est.mean[:, 0], est.variance[:, 0])
    _, mc_se_sq = destandardize_mean_var(
        rec, np.zeros_like(det), np.square(est.standard_error_mean[:, 0])
    )
    x_orig = rec.feature_mean[0] + rec.feature_std[0] * x_test[:, 0]
    rows = []
    for i in range(len(x_test)):
        rows.append(
            {
                "x": x_orig[i],
                "det_mean": det_o[i],
                "mp_mean": mp_mean[i],
                "mp_sd": np.sqrt(mp_var[i]),
                "mc_mean": mc_mean[i],
                "mc_sd": np.sqrt(mc_var[i]),
                "mc_se_mean": np.sqrt(mc_se_sq[i]),
            }
        )
    return rows


def run_toy_experiment(
    t: int = 10_000, seed: int = 0, epochs: int = 2000, n: int = 1536, **train_kw
) -> ExperimentReport:
    model, data, train_report = train_toy_model(n=n, epochs=epochs, seed=seed, **train_kw)
    rows, mean_s, se_s = timed(lambda: toy_curves(model, data, t=t, seed=seed))
    config = {
        "t": t, "seed": seed, "epochs": epochs, "n": n,
        "hidden": list(train_kw.get("hidden", (256, 256, 256))),
        "dropout_rate": train_kw.get("dropout_rate", 0.3),
    }
    return ExperimentReport(
        experiment="toy",
        config=config,
        tables={"curves": rows},
        runtimes={
            "curve_evaluation": {"mean_s": mean_s, "se_s": se_s, "repeats": 3},
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
    from .training import grid_search_uci

    in_dim = data.features.shape[1]
    cfg = TrainConfig(epochs=epochs, batch_size=32, loss="mse", seed=seed)

    def build(p_star):
        return mlp_regression(in_dim, hidden=hidden, dropout_rate=p_star, seed=seed, tau=1.0)

    result = grid_search_uci(build, data, p_grid, tau_grid, cfg, score_mode="mp")
    model, _ = train(build(result.p_star), data, cfg)
    x_test, y_test_std = data.test_xy()
    rec = data.standardization
    y_test = rec.target_mean + rec.target_std * y_test_std
    s2 = rec.target_std**2
    tau_orig = result.tau / s2

    def eval_mc():
        batch = mc_forward(model, x_test, t_mc, seed=seed)
        mu = rec.target_mean + rec.target_std * batch.outputs[..., 0]
        return metrics.score_regression_mc(mu, tau_orig, y_test)

    def eval_mp():
        mt = forward_mp(model, x_test)
        mean, var = destandardize_mean_var(rec, mt.expectation[:, 0], mt.variance[:, 0])
        return metrics.score_regression_mp(mean, var, tau_orig, y_test)

    score_mc, rt_mc, rt_mc_se = timed(eval_mc, timing_repeats)
    score_mp, rt_mp, rt_mp_se = timed(eval_mp, timing_repeats)
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
        "rt_mc_s": rt_mc,
        "rt_mc_se_s": rt_mc_se,
        "rmse_mp": score_mp.rmse,
        "nll_mp": score_mp.nll,
        "nll_mp_se": nll_mp_se,
        "rt_mp_s": rt_mp,
        "rt_mp_se_s": rt_mp_se,
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
        config={"seed": seed, "threads": threads, "datasets": csv_specs, **run_kw},
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
    config = {
        "seeds": list(seeds), "ensemble_size": ensemble_size,
        "n_per_class": n_per_class, "n_classes": n_classes,
        "image_size": image_size, "ind_classes": list(ind_classes),
        "data_seed": data_seed, "conv_channels": list(conv_channels),
        "dense_units": list(dense_units), "dropout_rate": dropout_rate,
        "epochs": epochs, "batch_size": batch_size, "learning_rate": learning_rate,
    }
    return OodSetup(ind_data=ind_data, ood_data=ood_data, members=members, config=config)


def _member_probs(model: ModelSpec, x, t: int, mc_seed: int):
    """(nn, mc, mp) probability matrices for one model on a batch."""
    probs_nn = forward_det(model, x)
    probs_mc = mc_forward(model, x, t, seed=mc_seed).outputs.mean(axis=0)
    probs_mp = forward_mp(model, x)
    return probs_nn, probs_mc, probs_mp


def ensemble_probs(models: list[ModelSpec], x, t: int, mc_seed: int):
    """Average each method's probabilities across ensemble members."""
    per_method = {"nn": [], "mc": [], "mp": []}
    for j, model in enumerate(models):
        nn, mc, mp_ = _member_probs(model, x, t, mc_seed + 17 * j)
        per_method["nn"].append(CategoricalPrediction(nn))
        per_method["mc"].append(CategoricalPrediction(mc))
        per_method["mp"].append(CategoricalPrediction(mp_))
    return {k: metrics.ensemble_combine(v).probs for k, v in per_method.items()}


def ood_seed_metrics(setup: OodSetup, seed: int, t: int = 50, mc_seed: int | None = None) -> dict:
    """Correlation and detection metrics for one experiment seed.

    Entropy of the predictive distribution is the detection score; the
    held-out classes are the positive class.
    """
    if mc_seed is None:
        mc_seed = 9000 + seed
    models = setup.members[seed]
    x_ind, y_ind = setup.ind_data.test_xy()
    x_ood, _ = setup.ood_data.test_xy()
    sizes = {"ens": len(models)}
    result = {"seed": seed, "t": t, **sizes}
    probs1 = {
        "ind": {m: p for m, p in zip(("nn", "mc", "mp"), _member_probs(models[0], x_ind, t, mc_seed))},
        "ood": {m: p for m, p in zip(("nn", "mc", "mp"), _member_probs(models[0], x_ood, t, mc_seed + 1))},
    }
    ent1 = {sub: {m: metrics.entropy(p) for m, p in d.items()} for sub, d in probs1.items()}
    for sub in ("ind", "ood"):
        r_mp, lo_mp, hi_mp = metrics.pearson_ci(ent1[sub]["mp"], ent1[sub]["mc"])
        r_nn, lo_nn, hi_nn = metrics.pearson_ci(ent1[sub]["nn"], ent1[sub]["mc"])
        result[f"pearson_mp_mc_{sub}"] = r_mp
        result[f"pearson_mp_mc_{sub}_lo"] = lo_mp
        result[f"pearson_mp_mc_{sub}_hi"] = hi_mp
        result[f"pearson_nn_mc_{sub}"] = r_nn
        result[f"pearson_nn_mc_{sub}_lo"] = lo_nn
        result[f"pearson_nn_mc_{sub}_hi"] = hi_nn
    labels = np.r_[np.zeros(len(x_ind)), np.ones(len(x_ood))]
    for method in ("nn", "mc", "mp"):
        scores = np.r_[ent1["ind"][method], ent1["ood"][method]]
        result[f"auc_{method}"] = metrics.roc_auc(scores, labels).auc
    result["accuracy_ind"] = float((probs1["ind"]["mp"].argmax(axis=1) == y_ind).mean())
    if len(models) > 1:
        ens_ind = ensemble_probs(models, x_ind, t, mc_seed + 2)
        ens_ood = ensemble_probs(models, x_ood, t, mc_seed + 3)
        for method in ("nn", "mc", "mp"):
            scores = np.r_[metrics.entropy(ens_ind[method]), metrics.entropy(ens_ood[method])]
            result[f"auc_{method}_ens"] = metrics.roc_auc(scores, labels).auc
    return result


def run_ood_experiment(
    seeds=(0,),
    ensemble_size: int = 5,
    t: int = 50,
    threads: int = 1,
    setup: OodSetup | None = None,
    include_entropy_table: bool = True,
    **setup_kw,
) -> ExperimentReport:
    if setup is None:
        setup = build_ood_setup(
            seeds=seeds, ensemble_size=ensemble_size, threads=threads, **setup_kw
        )
    rows = [ood_seed_metrics(setup, seed, t=t) for seed in setup.members]
    tables = {"ood_metrics": rows}
    if include_entropy_table:
        seed0 = next(iter(setup.members))
        model = setup.members[seed0][0]
        ent_rows = []
        for sub, (x, _) in (("ind", (setup.ind_data.test_xy())),
                            ("ood", (setup.ood_data.test_xy()))):
            nn, mc, mp_ = _member_probs(model, x, t, 9000 + seed0)
            h_nn, h_mc, h_mp = (metrics.entropy(p) for p in (nn, mc, mp_))
            for i in range(len(x)):
                ent_rows.append(
                    {"subset": sub, "example": i,
                     "entropy_nn": h_nn[i], "entropy_mc": h_mc[i], "entropy_mp": h_mp[i]}
                )
        tables["entropies"] = ent_rows
    return ExperimentReport(
        experiment="ood",
        config={**setup.config, "t": t},
        tables=tables,
    )


# ---------------------------------------------------------------------------
# filter experiment


def run_filter_experiment(
    setup: OodSetup | None = None,
    t: int = 50,
    kind: str = "entropy",
    threads: int = 1,
    **setup_kw,
) -> ExperimentReport:
    """Sort test predictions by uncertainty and report prefix accuracies for
    every method, using the in-distribution test split."""
    if setup is None:
        setup = build_ood_setup(threads=threads, **setup_kw)
    seed0 = next(iter(setup.members))
    models = setup.members[seed0]
    x, y = setup.ind_data.test_xy()
    rows = []
    variants = [("1", {m: p for m, p in zip(("nn", "mc", "mp"),
                                            _member_probs(models[0], x, t, 9100))})]
    if len(models) > 1:
        variants.append((str(len(models)), ensemble_probs(models, x, t, 9200)))
    for ens_tag, probs in variants:
        for method in ("nn", "mc", "mp"):
            for row in metrics.filter_curve(probs[method], y, kind=kind):
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
    rng = np.random.default_rng(seed)
    x_ind, _ = setup.ind_data.test_xy()
    x_ood, _ = setup.ood_data.test_xy()
    if len(x_ind) > max_per_side:
        x_ind = x_ind[rng.choice(len(x_ind), max_per_side, replace=False)]
    if len(x_ood) > max_per_side:
        x_ood = x_ood[rng.choice(len(x_ood), max_per_side, replace=False)]
    x = np.concatenate([x_ind, x_ood])
    labels = np.r_[np.zeros(len(x_ind)), np.ones(len(x_ood))]
    auc_nn = metrics.roc_auc(metrics.entropy(forward_det(model, x)), labels).auc
    auc_mp = metrics.roc_auc(metrics.entropy(forward_mp(model, x)), labels).auc
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
    threads: int = 1,
    **setup_kw,
) -> ExperimentReport:
    if setup is None:
        setup = build_ood_setup(threads=threads, **setup_kw)
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


def reference_cnn(n_classes: int = 10, seed: int = 0) -> ModelSpec:
    """The three-block 16/32/64 conv net with two 128-unit dense stages used
    for runtime measurements on 32x32x3 inputs."""
    return cnn_classifier(
        input_shape=(3, 32, 32),
        conv_channels=(16, 32, 64),
        dense_units=(128, 128),
        n_classes=n_classes,
        dropout_rate=0.3,
        seed=seed,
        name="reference-cnn",
    )


def _timed_with_median(fn, repeats, min_total_s: float = 1.5):
    """Mean/SE/median of per-call wall time.

    Short-running calls are repeated until at least ``min_total_s`` of
    measured time accumulates (never fewer than ``repeats`` calls), which
    keeps the median stable against scheduler noise on shared hosts.
    """
    if repeats < 3:
        repeats = 3
    fn()  # warmup
    times = []
    total = 0.0
    while len(times) < repeats or (total < min_total_s and len(times) < 200):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        times.append(elapsed)
        total += elapsed
    mean, se = metrics.mean_with_se(times)
    return mean, se, float(np.median(times)), len(times)


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
    rows = []
    det_s, det_se, det_med, n_det = _timed_with_median(lambda: forward_det(model, batch), repeats)
    rows.append({"mode": "det", "t": 1, "mean_s": det_s, "se_s": det_se,
                 "median_s": det_med, "repeats": n_det})
    mp_s, mp_se, mp_med, n_mp = _timed_with_median(lambda: forward_mp(model, batch), repeats)
    rows.append({"mode": "mp", "t": 1, "mean_s": mp_s, "se_s": mp_se,
                 "median_s": mp_med, "repeats": n_mp})
    mc_med = {}
    for t in t_list:
        mc_s, mc_se, med, n_mc = _timed_with_median(
            lambda t=t: mc_forward(model, batch, t, seed=seed), repeats
        )
        rows.append({"mode": "mc", "t": t, "mean_s": mc_s, "se_s": mc_se,
                     "median_s": med, "repeats": n_mc})
        mc_med[t] = med
    ratios = [
        {
            "t": t,
            "mc_over_mp": mc_med[t] / mp_med,
            "mc_over_det": mc_med[t] / det_med,
            "mp_over_det": mp_med / det_med,
        }
        for t in t_list
    ]
    return ExperimentReport(
        experiment="benchmark",
        config={"batch": int(batch.shape[0]), "t_list": list(t_list),
                "repeats": repeats, "seed": seed, "model": model.metadata.name},
        tables={"timings": rows, "ratios": ratios},
        runtimes={"det": {"mean_s": det_s, "se_s": det_se, "repeats": n_det},
                  "mp": {"mean_s": mp_s, "se_s": mp_se, "repeats": n_mp}},
    )
