"""Scoring rules, uncertainty scores, ROC/AUC, confidence intervals, filter
curves, and ensemble combination.

Natural logarithms everywhere: entropies and negative log-likelihoods are in
nats.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .network import CategoricalPrediction, GaussianPrediction, PredictiveDistribution

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class RegressionScore:
    rmse: float
    nll: float
    log_densities: np.ndarray  # per-point log predictive densities

    def __post_init__(self):
        if not (self.rmse >= 0.0):
            raise ValueError("rmse must be >= 0")


@dataclass(frozen=True)
class RocResult:
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def _mu_array(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim > 1 and arr.shape[-1] == 1:
        arr = arr[..., 0]
    return arr


def regression_nll_mc(samples, tau: float, y) -> np.ndarray | float:
    """Negative log-likelihood of y under the T-component Gaussian mixture
    (1/T) sum_t N(y; mu_t, 1/tau), evaluated with log-sum-exp.

    samples is an array of shape (T,), (T, B) or (T, B, 1).
    Returns a scalar for a single example, else one NLL per example.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    mu = _mu_array(samples)
    y = np.asarray(y, dtype=np.float64)
    t = mu.shape[0]
    log_comp = -0.5 * (_LOG_2PI - np.log(tau)) - 0.5 * tau * np.square(y - mu)
    log_mix = special.logsumexp(log_comp, axis=0) - np.log(t)
    nll = -log_mix
    return float(nll) if nll.ndim == 0 else nll


def regression_nll_mp(mean, variance, tau: float, y) -> np.ndarray | float:
    """Negative log density of y under N(mean, variance + 1/tau)."""
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    mean = np.asarray(mean, dtype=np.float64)
    variance = np.asarray(variance, dtype=np.float64)
    if np.any(variance < 0.0):
        raise ValueError("variance must be >= 0")
    y = np.asarray(y, dtype=np.float64)
    total = variance + 1.0 / tau
    nll = 0.5 * (_LOG_2PI + np.log(total)) + 0.5 * np.square(y - mean) / total
    return float(nll) if nll.ndim == 0 else nll


def score_regression_mc(samples, tau: float, y) -> RegressionScore:
    """RMSE of the sample mean plus mixture NLL, averaged over examples."""
    mu = _mu_array(samples)
    y = np.asarray(y, dtype=np.float64)
    nll = np.atleast_1d(regression_nll_mc(mu, tau, y))
    rmse = float(np.sqrt(np.mean(np.square(mu.mean(axis=0) - y))))
    return RegressionScore(rmse=rmse, nll=float(nll.mean()), log_densities=-nll)


def score_regression_mp(mean, variance, tau: float, y) -> RegressionScore:
    y = np.asarray(y, dtype=np.float64)
    nll = np.atleast_1d(regression_nll_mp(mean, variance, tau, y))
    rmse = float(np.sqrt(np.mean(np.square(np.asarray(mean) - y))))
    return RegressionScore(rmse=rmse, nll=float(nll.mean()), log_densities=-nll)


def entropy(probs) -> np.ndarray | float:
    """Shannon entropy -sum p ln p (0 ln 0 := 0) along the last axis."""
    p = np.asarray(probs, dtype=np.float64)
    if not np.allclose(p.sum(axis=-1), 1.0, atol=1e-6):
        raise ValueError("probabilities must sum to 1")
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    h = -terms.sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def one_minus_max(probs) -> np.ndarray | float:
    """Uncertainty score 1 - max_i p_i, in [0, 1 - 1/K]."""
    p = np.asarray(probs, dtype=np.float64)
    s = 1.0 - p.max(axis=-1)
    return float(s) if s.ndim == 0 else s


def roc_auc(scores, labels) -> RocResult:
    """ROC sweep over all distinct score thresholds, higher score => positive.

    The trapezoidal AUC credits ties with half weight and therefore equals
    the normalized Mann-Whitney U statistic.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tp = np.cumsum(pos[order])
    fp = np.cumsum(~pos[order])
    # keep only the last index of each tied-score block
    last = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    tp, fp = tp[last], fp[last]
    thresholds = sorted_scores[last]
    tpr = np.r_[0.0, tp / n_pos]
    fpr = np.r_[0.0, fp / n_neg]
    auc = float(np.trapezoid(tpr, fpr))
    return RocResult(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=auc)


def filter_curve(probs, labels, kind: str = "entropy") -> list[dict]:
    """Accuracy of the most-confident prefixes.

    Sort examples by the chosen uncertainty score ascending, then report for
    every prefix the score cutoff, retained count, and accuracy of argmax
    predictions inside the prefix.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if len(probs) == 0:
        raise ValueError("need at least one example")
    if kind == "entropy":
        scores = np.atleast_1d(entropy(probs))
    elif kind == "one_minus_max":
        scores = np.atleast_1d(one_minus_max(probs))
    else:
        raise ValueError(f"unknown uncertainty kind {kind!r}")
    order = np.argsort(scores, kind="stable")
    correct = (probs.argmax(axis=-1) == labels)[order].astype(np.float64)
    cum_acc = np.cumsum(correct) / np.arange(1, len(correct) + 1)
    sorted_scores = scores[order]
    return [
        {"cutoff": float(sorted_scores[i]), "retained": i + 1, "accuracy": float(cum_acc[i])}
        for i in range(len(correct))
    ]


def pearson_ci(x, y, level: float = 0.95) -> tuple[float, float, float]:
    """Pearson correlation with a Fisher z-transform confidence interval."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 4 or len(y) != n:
        raise ValueError("need n >= 4 paired observations")
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance in x or y")
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))
    r = min(1.0, max(-1.0, r))
    z_crit = float(-special.ndtri((1.0 - level) / 2.0))
    with np.errstate(divide="ignore"):
        z = np.arctanh(r)
    half = z_crit / np.sqrt(n - 3)
    return r, float(np.tanh(z - half)), float(np.tanh(z + half))


def wilson_ci(successes: int, n: int, level: float = 0.95) -> tuple[float, float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1 or not (0 <= successes <= n):
        raise ValueError("need 0 <= successes <= n and n >= 1")
    z = float(-special.ndtri((1.0 - level) / 2.0))
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4 * n * n)) / denom
    return p_hat, float(center - half), float(center + half)


def ensemble_combine(members: list[PredictiveDistribution]) -> PredictiveDistribution:
    """Average a homogeneous ensemble of predictive distributions.

    Classification: arithmetic mean of the probability vectors.  Regression:
    mixture moments; the returned variance is the total predictive variance
    (mean of per-member total variances plus the spread of the means), so the
    result carries tau=None.
    """
    if not members:
        raise ValueError("need at least one ensemble member")
    if all(isinstance(m, CategoricalPrediction) for m in members):
        probs = np.mean([m.probs for m in members], axis=0)
        return CategoricalPrediction(probs)
    if all(isinstance(m, GaussianPrediction) for m in members):
        means = np.stack([np.asarray(m.mean) for m in members])
        totals = np.stack([np.asarray(m.total_variance) for m in members])
        mean = means.mean(axis=0)
        variance = totals.mean(axis=0) + np.square(means).mean(axis=0) - np.square(mean)
        return GaussianPrediction(mean, np.maximum(variance, 0.0), tau=None)
    raise ValueError("ensemble members must share one task")


def mean_with_se(values) -> tuple[float, float]:
    """Sample mean and its standard error (used for reported metric tables)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return float(arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
