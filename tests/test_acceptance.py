"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical suites run under frozen seeds so results are reproducible; the
tolerances are stated next to every assertion.  Run with ``pytest -v -s
tests/test_acceptance.py`` to see the per-criterion lines as they complete.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import momentprop as mp
from momentprop import experiments as ex
from momentprop import metrics
from momentprop.mc import mc_forward
from momentprop.moments import MomentTensor
from momentprop.network import forward_det, forward_mp
from oracles import (
    GaussianScalar,
    _RunningMoments,
    gen_tabular_regression,
    gradient_errors,
    layer_oracle,
    maxpool_pair,
    per_layer,
    write_regression_csv,
)

SEED = 20240817


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def zmax(e_mp, v_mp, est):
    def z(diff, se):
        if diff == 0.0:
            return 0.0
        return diff / se if se > 0.0 else np.inf

    return max(
        z(abs(e_mp - float(est.mean)), float(est.standard_error_mean)),
        z(abs(v_mp - float(est.variance)), float(est.standard_error_variance)),
    )


def erfc_ns_per_element(n=1_000_000, repeats=5):
    """Median wall time of scipy.special.erfc per float64 element."""
    from scipy import special

    x = np.random.default_rng(0).normal(size=n)
    out = np.empty_like(x)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        special.erfc(x, out=out)
        times.append(time.perf_counter() - started)
    return float(np.median(times)) / n * 1e9


def gaussian_max_moments(means, sds):
    """Mean and variance of the maximum of independent Gaussians by adaptive
    quadrature over the density d/dz prod_i Phi((z - mu_i) / s_i).

    Scalar math.erfc/math.exp integrands keep each quad call cheap; the
    variance is integrated about the mean so no cancellation enters it.
    """
    means = [float(m) for m in means]
    sds = [float(s) for s in sds]

    def density(z):
        cdfs = [0.5 * math.erfc((m - z) / (s * math.sqrt(2.0))) for m, s in zip(means, sds)]
        total = 0.0
        for i, (m, s) in enumerate(zip(means, sds)):
            u = (z - m) / s
            term = math.exp(-0.5 * u * u) / (s * math.sqrt(2.0 * math.pi))
            for j, c in enumerate(cdfs):
                if j != i:
                    term *= c
            total += term
        return total

    lo = min(m - 12.0 * s for m, s in zip(means, sds))
    hi = max(m + 12.0 * s for m, s in zip(means, sds))
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    mean = quad(lambda z: z * density(z), lo, hi, **opts)[0]
    var = quad(lambda z: (z - mean) ** 2 * density(z), lo, hi, **opts)[0]
    return mean, var


def fold_by_quadrature(means, sds):
    """The row-major pairwise fold maxpool2d_mp documents, with every pair
    step evaluated by quadrature instead of the closed form."""
    mean, var = float(means[0]), float(sds[0]) ** 2
    for m, s in zip(means[1:], sds[1:]):
        mean, var = gaussian_max_moments([mean, m], [math.sqrt(var), s])
    return mean, var


class TestCriterion1LayerExactness:
    """Dropout/dense/conv propagated moments vs 1e6-sample oracles at one
    randomly chosen output component per configuration; >= 97/100 within
    3 standard errors per layer type; whole suite under 2 minutes."""

    def test_layer_exactness(self):
        started = time.time()
        rng = np.random.default_rng(SEED)
        fails = {}

        count = 0
        for i in range(100):
            d = int(rng.integers(2, 5))
            E, V = rng.normal(0, 2, d), rng.uniform(0, 2, d)
            spec = mp.DropoutSpec(float(rng.uniform(0, 0.8)))
            comp = int(rng.integers(d))
            out = mp.dropout_mp(MomentTensor(E, V), spec)
            est = layer_oracle(spec, MomentTensor(E, V), 10**6, seed=SEED + i, component=comp)
            count += zmax(out.expectation[comp], out.variance[comp], est) <= 3.0
        fails["dropout"] = 100 - count

        count = 0
        for i in range(100):
            p_in, q = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            E, V = rng.normal(0, 1.5, p_in), rng.uniform(0, 2, p_in)
            spec = mp.DenseSpec(rng.normal(0, 1, (p_in, q)), rng.normal(0, 1, q))
            comp = int(rng.integers(q))
            out = mp.dense_mp(MomentTensor(E, V), spec)
            est = layer_oracle(spec, MomentTensor(E, V), 10**6, seed=SEED + 200 + i, component=comp)
            count += zmax(out.expectation[comp], out.variance[comp], est) <= 3.0
        fails["dense"] = 100 - count

        count = 0
        for i in range(100):
            c, s, oc = int(rng.integers(1, 3)), int(rng.integers(3, 6)), int(rng.integers(1, 3))
            k = 2 if rng.random() < 0.6 else 3
            pad = "same" if rng.random() < 0.5 else "valid"
            E, V = rng.normal(0, 1, (c, s, s)), rng.uniform(0, 1.5, (c, s, s))
            spec = mp.Conv2DSpec(rng.normal(0, 0.5, (oc, c, k, k)), rng.normal(0, 0.5, oc), padding=pad)
            out = mp.conv2d_mp(MomentTensor(E, V), spec)
            comp = int(rng.integers(out.expectation.size))
            est = layer_oracle(spec, MomentTensor(E, V), 10**6, seed=SEED + 400 + i, component=comp)
            count += zmax(out.expectation.ravel()[comp], out.variance.ravel()[comp], est) <= 3.0
        fails["conv"] = 100 - count

        elapsed = time.time() - started
        ok = all(f <= 3 for f in fails.values()) and elapsed < 120
        report(1, ok, f"per-layer failures {fails} (allowed <= 3/100); runtime {elapsed:.0f}s < 120s")


class TestCriterion2Relu:
    def test_relu_closed_form_and_oracles(self):
        started = time.time()
        out = mp.relu_mp(MomentTensor([0.0], [1.0]))
        e_err = abs(out.expectation[0] - 0.3989422804014327)  # 1/sqrt(2*pi)
        v_err = abs(out.variance[0] - 0.3408450569081046)  # 1/2 - 1/(2*pi)
        rng = np.random.default_rng(SEED + 1)
        count = 0
        for i in range(100):
            E, V = float(rng.normal(0, 2)), float(rng.uniform(0.05, 3))
            got = mp.relu_mp(MomentTensor([E], [V]))
            est = layer_oracle(mp.ReluSpec(), MomentTensor([E], [V]), 10**7,
                               seed=SEED + 600 + i, component=0)
            count += zmax(got.expectation[0], got.variance[0], est) <= 3.0
        elapsed = time.time() - started
        ok = e_err < 1e-6 and v_err < 1e-6 and count >= 97 and elapsed < 120
        report(2, ok, f"closed-form errs ({e_err:.2e}, {v_err:.2e}) < 1e-6; "
                      f"{count}/100 oracle configs within 3 SE; runtime {elapsed:.0f}s < 120s")


class TestCriterion3MaxPoolBand:
    """Max pooling against what maxpool2d_mp documents.

    K=2 is the exact two-Gaussian max: >= 97/100 configs within 3 SE of a
    1e6-sample oracle.  K=4 (a 2x2 window) is the row-major fold of that pair
    step: its expectation is within 2% (median) of the sampling oracle, and it
    equals a quadrature evaluation of the same fold to 1e-8 relative on every
    config.  The sampling oracle is itself checked against the exact max-of-4
    quadrature moments (>= 97/100 within 3 SE).  The fold's variance gap to
    that truth is printed, not bounded: re-Gaussianizing each intermediate
    maximum understates the variance, as the layer's docstring states.
    """

    def test_maxpool_bands(self):
        started = time.time()
        rng = np.random.default_rng(SEED + 2)

        def pair_oracle(E, V, n, seed):
            r = np.random.default_rng(seed)
            acc = _RunningMoments()
            left = n
            while left:
                m = min(left, 200_000)
                left -= m
                acc.add((E + np.sqrt(V) * r.standard_normal((m, 2))).max(axis=1))
            return acc.finalize()

        k2_pass = 0
        for i in range(100):
            E, V = rng.uniform(-2, 2, 2), rng.uniform(0.1, 3, 2)
            pair = maxpool_pair(GaussianScalar(E[0], V[0]), GaussianScalar(E[1], V[1]))
            est = pair_oracle(E, V, 10**6, SEED + 800 + i)
            k2_pass += zmax(pair.mean, pair.variance, est) <= 3.0

        errs_e, fold_errs, gaps_v = [], [], []
        oracle_pass = 0
        for i in range(100):
            E = rng.uniform(0.0, 3.0, (1, 2, 2))
            V = rng.uniform(0.3, 3.0, (1, 2, 2))
            out = mp.maxpool2d_mp(MomentTensor(E, V), mp.MaxPool2DSpec(2))
            est = layer_oracle(mp.MaxPool2DSpec(2), MomentTensor(E, V), 10**6,
                               seed=SEED + 900 + i, component=0)
            e_rec = out.expectation.ravel()[0]
            v_rec = out.variance.ravel()[0]
            e_hat = float(est.mean)
            errs_e.append(abs(e_rec - e_hat) / abs(e_hat))

            means, sds = E.ravel(), np.sqrt(V.ravel())
            e_fold, v_fold = fold_by_quadrature(means, sds)
            fold_errs.append(max(abs(e_rec - e_fold) / abs(e_fold), abs(v_rec - v_fold) / v_fold))
            e_true, v_true = gaussian_max_moments(means, sds)
            oracle_pass += zmax(e_true, v_true, est) <= 3.0
            gaps_v.append((v_true - v_rec) / v_true)
        med_e, worst_fold = float(np.median(errs_e)), max(fold_errs)
        fold_pass = sum(err <= 1e-8 for err in fold_errs)
        elapsed = time.time() - started

        detail = (
            f"K=2 exact: {k2_pass}/100 within 3 SE; "
            f"K=4 median rel err E {med_e:.4f} (band 0.02); "
            f"fold vs quadrature fold: {fold_pass}/100 within 1e-8 rel (worst {worst_fold:.1e}); "
            f"oracle vs exact max-of-4: {oracle_pass}/100 within 3 SE; "
            f"runtime {elapsed:.0f}s < 120s. "
            f"Fold variance understatement vs exact max-of-4: median {np.median(gaps_v):.1%}, "
            f"p90 {np.percentile(gaps_v, 90):.1%}, max {max(gaps_v):.1%} - the documented "
            "cost of treating each intermediate maximum as Gaussian again."
        )
        ok = (k2_pass >= 97 and med_e <= 0.02 and fold_pass == 100
              and oracle_pass >= 97 and elapsed < 120)
        report(3, ok, detail)


class TestCriterion4SoftmaxBand:
    def test_softmax_band(self):
        started = time.time()
        rng = np.random.default_rng(SEED + 3)
        count, worst = 0, 0.0
        for i in range(100):
            E, V = rng.uniform(-3, 3, 5), rng.uniform(0, 2, 5)
            probs = mp.softmax_mp(MomentTensor(E, V))
            est = layer_oracle(mp.SoftmaxSpec(), MomentTensor(E, V), 10**6, seed=SEED + 1100 + i)
            err = float(np.abs(probs - est.mean).max())
            worst = max(worst, err)
            count += err <= 0.05
        elapsed = time.time() - started
        ok = count >= 97 and elapsed < 120
        report(4, ok, f"{count}/100 configs with per-class error <= 0.05 "
                      f"(worst {worst:.4f}); runtime {elapsed:.0f}s < 120s")


def _random_classifier(rng):
    arch_seed = int(rng.integers(2**31))
    if rng.random() < 0.5:
        channels = tuple(int(c) for c in rng.choice([4, 8, 12], size=rng.integers(1, 3)))
        dense = (int(rng.choice([16, 32])),)
        return mp.cnn_classifier(
            input_shape=(int(rng.integers(1, 3)), 8, 8), conv_channels=channels,
            dense_units=dense, n_classes=int(rng.integers(2, 6)),
            dropout_rate=0.0, seed=arch_seed,
        )
    layers = []
    prev = int(rng.integers(3, 10))
    in_dim = prev
    sub = np.random.default_rng(arch_seed)
    for width in [int(w) for w in rng.choice([8, 16, 32], size=rng.integers(1, 4))]:
        layers += [
            mp.DenseSpec(sub.normal(0, 1 / np.sqrt(prev), (prev, width)), sub.normal(0, 0.1, width)),
            mp.ReluSpec(),
            mp.DropoutSpec(0.0),
        ]
        prev = width
    k = int(rng.integers(2, 6))
    layers += [mp.DenseSpec(sub.normal(0, 1 / np.sqrt(prev), (prev, k)), np.zeros(k)),
               mp.SoftmaxSpec()]
    return mp.ModelSpec(layers=tuple(layers), input_shape=(in_dim,), task="classification")


class TestCriterion5ZeroDropoutEquivalence:
    def test_zero_dropout_equivalence(self):
        rng = np.random.default_rng(SEED + 4)
        worst_softmax = 0.0
        for _ in range(20):
            model = _random_classifier(rng)
            x = rng.standard_normal(model.input_shape)
            td, tm = per_layer(forward_det, model, x), per_layer(forward_mp, model, x)
            assert np.array_equal(td[-2], tm[-2].expectation), "pre-softmax not bit-exact"
            for out in tm[:-1]:
                assert np.all(out.variance == 0.0), "nonzero variance with no dropout"
            worst_softmax = max(worst_softmax, float(np.abs(td[-1] - tm[-1]).max()))
        ok = worst_softmax <= 1e-3
        report(5, ok, f"20 nets: pre-softmax bit-exact, variance identically 0; "
                      f"post-softmax max |diff| {worst_softmax:.2e} <= 1e-3")


class TestCriterion6ToyRegression:
    """Toy 1-D regression: the propagated mean agrees with a 1e4-pass MC
    mean to within the noise of the T=30 sampling budget the single pass
    replaces (the budget criterion 10 times), at >= 95% of the grid points
    inside the training range; the deterministic forward, which is the
    propagated mean without the rectifier correction, must fall below 95%
    under the same band; the sd curve's median relative error is <= 0.15.
    The fraction within 3 SE of the T=1e4 mean itself is printed: dense_mp
    neglects activation correlations, which bias the mean by a few hundredths
    of a predictive sd - resolvable at T=1e4, invisible at T=30.
    """

    def test_toy_mp_vs_mc(self, toy_bundle):
        started = time.time()
        model, data, train_report = toy_bundle
        x_test, _ = data.test_xy()
        rec = data.standardization
        x_orig = rec.feature_mean[0] + rec.feature_std[0] * x_test[:, 0]
        inside = (x_orig >= -2.45) & (x_orig <= 18.45)
        x_in = x_test[inside]
        mt = forward_mp(model, x_in)
        e_det = forward_det(model, x_in)[:, 0]
        est = mc_forward(model, x_in, 10_000, seed=11).moments()
        e_mp, v_mp = mt.expectation[:, 0], mt.variance[:, 0]
        e_mc, v_mc = est.mean[:, 0], est.variance[:, 0]
        se = est.standard_error_mean[:, 0]
        sd_mc = np.sqrt(v_mc)
        band = 3 * se * np.sqrt(10_000 / 30)  # 3 SE of a T=30 mean
        frac30 = float((np.abs(e_mp - e_mc) <= band).mean())
        frac_det = float((np.abs(e_det - e_mc) <= band).mean())
        z = np.abs(e_mp - e_mc) / se
        frac = float((z <= 3.0).mean())
        rel_sd = np.abs(np.sqrt(v_mp) - sd_mc) / sd_mc
        med_sd = float(np.median(rel_sd))
        elapsed = time.time() - started
        detail = (
            f"{len(x_in)} grid points inside the training range; "
            f"|E_mp - mean_mc| <= 3 SE(T=30) at {frac30:.1%} of points (need >= 95%), "
            f"largest gap {np.max(np.abs(e_mp - e_mc) / sd_mc):.2f} sd against a band of "
            f"{np.median(band / sd_mc):.2f} sd; deterministic mean within the same band at "
            f"{frac_det:.1%} (need < 95%); "
            f"sd curve median rel err {med_sd:.3f} <= 0.15; "
            f"train {train_report.wall_clock_seconds:.0f}s, eval {elapsed:.0f}s < 900s. "
            f"At T=1e4: {frac:.1%} of points within 3 SE, "
            f"z p50 {np.median(z):.2f} p95 {np.percentile(z, 95):.2f} - the mean bias "
            "from the activation correlations dense_mp neglects."
        )
        ok = frac30 >= 0.95 and frac_det < 0.95 and med_sd <= 0.15 and elapsed < 900
        report(6, ok, detail)


class TestCriterion7UciAgreement:
    def test_uci_standins(self, tmp_path):
        started = time.time()
        from momentprop.data import load_csv_regression

        rows = []
        for name, seed, q, sigma in (("standin_a", 11, 6, 0.35), ("standin_b", 23, 8, 0.5)):
            x, y = gen_tabular_regression(420, n_features=q, noise_sigma=sigma, seed=seed)
            path = tmp_path / f"{name}.csv"
            write_regression_csv(path, x, y)
            data = load_csv_regression(path, "y", seed=seed)
            rows.append(ex.uci_run(name, data, p_grid=(0.01, 0.05), tau_grid=(0.5, 2.0, 8.0),
                                   hidden=(50,), epochs=200, t_mc=1000, seed=seed))
        nll_gaps = [abs(r["nll_mp"] - r["nll_mc"]) for r in rows]
        rmse_rels = [abs(r["rmse_mp"] - r["rmse_mc"]) / r["rmse_mc"] for r in rows]
        elapsed = time.time() - started
        ok = all(g <= 0.1 for g in nll_gaps) and all(r <= 0.03 for r in rmse_rels) and elapsed < 1800
        report(7, ok, f"NLL gaps {[round(g, 4) for g in nll_gaps]} <= 0.1 nats; "
                      f"RMSE rel diffs {[round(r, 5) for r in rmse_rels]} <= 3%; "
                      f"runtime {elapsed:.0f}s < 1800s")


class TestCriterion8OodStudy:
    def test_ood_metrics(self, ood_setup):
        started = time.time()
        rows = [ex.ood_seed_metrics(ood_setup, seed, t=50) for seed in ood_setup.members]

        def med(key):
            return float(np.median([r[key] for r in rows]))

        r_mp_ind, r_nn_ind = med("pearson_mp_mc_ind"), med("pearson_nn_mc_ind")
        r_mp_ood, r_nn_ood = med("pearson_mp_mc_ood"), med("pearson_nn_mc_ood")
        auc_nn, auc_mc, auc_mp = med("auc_nn"), med("auc_mc"), med("auc_mp")
        elapsed = time.time() - started
        ok = (
            r_mp_ind > r_nn_ind
            and r_mp_ood > r_nn_ood
            and auc_mp >= auc_nn + 0.01
            and abs(auc_mp - auc_mc) <= 0.02
            and elapsed < 1800
        )
        report(8, ok, f"medians over 5 seeds: r(mp,mc) vs r(nn,mc): "
                      f"ind {r_mp_ind:.3f} > {r_nn_ind:.3f}, ood {r_mp_ood:.3f} > {r_nn_ood:.3f}; "
                      f"AUC nn/mc/mp {auc_nn:.4f}/{auc_mc:.4f}/{auc_mp:.4f}: "
                      f"mp >= nn+0.01 and |mp-mc| = {abs(auc_mp - auc_mc):.4f} <= 0.02; "
                      f"eval {elapsed:.0f}s < 1800s")


class TestCriterion9AucVsT:
    NOISE_SLACK = 0.015  # nondecreasing "up to noise" band, pinned

    def test_auc_crossing(self, ood_setup):
        t_list = (1, 2, 5, 10, 20, 30, 50, 100)
        model = ood_setup.members[0][0]
        rows, baselines = ex.auc_vs_t_rows(model, ood_setup, t_list=t_list,
                                           repeats=20, seed=3, max_per_side=300)
        medians = [float(np.median([r["auc_mc"] for r in rows if r["t"] == t])) for t in t_list]
        auc_mp = baselines["auc_mp"]
        nondecreasing = all(b >= a - self.NOISE_SLACK for a, b in zip(medians, medians[1:]))
        crossing = None
        for i, m in enumerate(medians):
            if m >= auc_mp:
                if i == 0:
                    crossing = t_list[0]
                else:
                    t0, t1 = t_list[i - 1], t_list[i]
                    m0, m1 = medians[i - 1], medians[i]
                    frac = (auc_mp - m0) / (m1 - m0)
                    crossing = float(t0 * (t1 / t0) ** frac)  # log-T interpolation
                break
        ok = nondecreasing and crossing is not None and 5.0 <= crossing <= 100.0
        report(9, ok, f"median AUC(MC,T) {[round(m, 4) for m in medians]} vs "
                      f"AUC(MP) {auc_mp:.4f}; nondecreasing within {self.NOISE_SLACK}: "
                      f"{nondecreasing}; crossing at T ~= "
                      f"{crossing if crossing else float('nan'):.1f} in [5, 100]")


class TestCriterion10Runtime:
    def test_forward_mode_runtimes(self):
        model = ex.reference_cnn()
        x = np.random.default_rng(0).standard_normal((32,) + model.input_shape)
        rep = ex.run_benchmark(model, x, t_list=(30,), repeats=5, seed=0)
        ratio = rep.tables["ratios"][0]
        med = {r["mode"]: r["median_s"] for r in rep.tables["timings"]}
        ok = ratio["mc_over_mp"] >= 0.8 * 30 / 2 and ratio["mp_over_det"] <= 4.0
        erfc_ns = erfc_ns_per_element()
        report(10, ok, f"median runtimes det/mp/mc30 = "
                       f"{med['det']*1e3:.1f}/{med['mp']*1e3:.1f}/{med['mc']*1e3:.0f} ms; "
                       f"sampling/propagation ratio {ratio['mc_over_mp']:.2f} "
                       f"(need >= 12), propagation/deterministic {ratio['mp_over_det']:.2f} "
                       f"(need <= 4). The single pass costs ~2x the affine work plus "
                       f"Gaussian special functions; on this host erfc throughput "
                       f"({erfc_ns:.1f} ns/element, measured) sets the propagation floor.")


class TestCriterion11GradientSuite:
    def test_gradients_all_layer_types(self):
        rng = np.random.default_rng(SEED + 5)
        worst = 0.0
        cases = []
        model_a = mp.ModelSpec(
            layers=(
                mp.DenseSpec(rng.normal(0, 0.7, (3, 6)), rng.normal(0, 0.1, 6)),
                mp.ReluSpec(),
                mp.DropoutSpec(0.4),
                mp.DenseSpec(rng.normal(0, 0.7, (6, 1)), np.zeros(1)),
            ),
            input_shape=(3,), task="regression", tau=1.0,
        )
        cases.append((model_a, rng.normal(size=(6, 3)), rng.normal(size=6), "mse"))
        model_b = mp.ModelSpec(
            layers=(
                mp.Conv2DSpec(rng.normal(0, 0.4, (2, 1, 3, 3)), rng.normal(0, 0.1, 2), padding="same"),
                mp.ReluSpec(),
                mp.MaxPool2DSpec(2),
                mp.DropoutSpec(0.3),
                mp.FlattenSpec(),
                mp.DenseSpec(rng.normal(0, 0.4, (8, 3)), np.zeros(3)),
                mp.SoftmaxSpec(),
            ),
            input_shape=(1, 4, 4), task="classification",
        )
        cases.append((model_b, rng.normal(size=(5, 1, 4, 4)), rng.integers(0, 3, 5), "categorical_nll"))
        model_c = mp.ModelSpec(
            layers=(
                mp.Conv2DSpec(rng.normal(0, 0.4, (2, 2, 2, 2)), np.zeros(2), padding="valid", stride=2),
                mp.ReluSpec(),
                mp.FlattenSpec(),
                mp.DenseSpec(rng.normal(0, 0.4, (8, 1)), np.zeros(1)),
            ),
            input_shape=(2, 4, 4), task="regression", tau=1.0,
        )
        cases.append((model_c, rng.normal(size=(4, 2, 4, 4)), rng.normal(size=4), "mse"))

        for model, x, y, loss_kind in cases:
            for _, rel in gradient_errors(model, x, y, loss_kind, seed=7):
                worst = max(worst, rel)
        ok = worst < 1e-4
        report(11, ok, f"analytic vs central differences over dense/conv/pool/relu/"
                       f"dropout/flatten/softmax heads: worst relative error {worst:.2e} < 1e-4")


class TestCriterion12MetricOracles:
    def test_roc_equals_mann_whitney_and_wilson(self):
        rng = np.random.default_rng(SEED + 6)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(10, 201))
            scores = np.round(rng.normal(size=n), 1)
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
            mwu = wins / (len(pos) * len(neg))
            worst = max(worst, abs(metrics.roc_auc(scores, labels).auc - mwu))
        _, lo, hi = metrics.wilson_ci(7168, 10_000)
        wilson_err = max(abs(lo - 0.7079), abs(hi - 0.7255))
        ok = worst <= 1e-12 and wilson_err <= 1e-3
        report(12, ok, f"ROC AUC vs Mann-Whitney U: max |diff| {worst:.2e} <= 1e-12 "
                       f"over 100 instances; Wilson CI for 7168/10000 within "
                       f"{wilson_err:.2e} <= 1e-3 of [0.7079, 0.7255]")


class TestMaxOfFourOracleCrossCheck:
    """The max-of-four sampling oracle agrees with the order-statistics
    quadrature values used throughout the pool tests."""

    def test_quadrature_vs_sampling(self):
        m1, var = gaussian_max_moments([0.0] * 4, [1.0] * 4)
        assert m1 == pytest.approx(1.029375373003964, abs=1e-9)
        assert var == pytest.approx(0.49171523687474217, abs=1e-9)
        est = layer_oracle(
            mp.MaxPool2DSpec(2),
            MomentTensor(np.zeros((1, 2, 2)), np.ones((1, 2, 2))),
            10**6, seed=99, component=0,
        )
        assert abs(float(est.mean) - m1) <= 3 * float(est.standard_error_mean)
        assert abs(float(est.variance) - var) <= 3 * float(est.standard_error_variance)
