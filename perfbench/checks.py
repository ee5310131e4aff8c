"""Output checks: separate computations and properties the method must have.

Nothing here compares against a stored copy of earlier output.  The plain-
numpy reference forward below is written from the layer definitions in the
package docstrings (non-inverted dropout, "same" padding, row-major pooling
windows) and shares no code with ``momentprop.layers``.
"""

from __future__ import annotations

import numpy as np

from momentprop import mc, network, training
from momentprop.layers import (
    Conv2DSpec,
    DenseSpec,
    DropoutSpec,
    FlattenSpec,
    MaxPool2DSpec,
    ReluSpec,
    SoftmaxSpec,
)
from momentprop.moments import MomentTensor

from workloads import MC_SAMPLES, PROBE_T

# Separately computed float64 results may differ by summation order only.
ROUNDING = dict(rtol=1e-9, atol=1e-12)
# Share of outputs whose mp mean must lie within 3 standard errors of a T=30
# MC mean (the band and share acceptance criterion 6 uses).
BAND_SHARE = 0.95


def _conv(x, spec: Conv2DSpec):
    kh, kw = spec.kernel_size
    s = spec.stride
    b, c, h, w = x.shape
    if spec.padding == "same":
        oh, ow = -(-h // s), -(-w // s)
        ph, pw = max((oh - 1) * s + kh - h, 0), max((ow - 1) * s + kw - w, 0)
        x = np.pad(x, ((0, 0), (0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    else:
        oh, ow = (h - kh) // s + 1, (w - kw) // s + 1
    out = np.zeros((b, spec.out_channels, oh, ow))
    for i in range(kh):
        for j in range(kw):
            patch = x[:, :, i : i + (oh - 1) * s + 1 : s, j : j + (ow - 1) * s + 1 : s]
            out += np.einsum("bchw,oc->bohw", patch, spec.kernel[:, :, i, j])
    return out + spec.bias[None, :, None, None]


def _maxpool(x, n):
    h, w = (x.shape[2] // n) * n, (x.shape[3] // n) * n
    out = x[:, :, 0:h:n, 0:w:n]
    for i in range(n):
        for j in range(n):
            out = np.maximum(out, x[:, :, i:h:n, j:w:n])
    return out


def reference_forward(model, xb, mask_for=None):
    """Forward a batch through the stack.  ``mask_for(layer_index, shape)``
    gives the 0/1 dropout mask; without it dropout scales by the keep rate."""
    h = np.asarray(xb, dtype=np.float64)
    for idx, layer in enumerate(model.layers):
        if isinstance(layer, DropoutSpec):
            h = h * (1.0 - layer.rate) if mask_for is None else h * mask_for(idx, h.shape)
        elif isinstance(layer, DenseSpec):
            h = np.einsum("bi,io->bo", h, layer.weights) + layer.bias
        elif isinstance(layer, Conv2DSpec):
            h = _conv(h, layer)
        elif isinstance(layer, MaxPool2DSpec):
            h = _maxpool(h, layer.size)
        elif isinstance(layer, ReluSpec):
            h = np.where(h > 0.0, h, 0.0)
        elif isinstance(layer, FlattenSpec):
            h = h.reshape(h.shape[0], -1)
        elif isinstance(layer, SoftmaxSpec):
            z = np.exp(h - h.max(axis=1, keepdims=True))
            h = z / z.sum(axis=1, keepdims=True)
        else:
            raise TypeError(f"no reference for {type(layer).__name__}")
    return h


def reference_mc(model, xb, t: int, seed: int):
    """T masked forwards with masks drawn from ``mc.sample_stream(seed,
    sample, layer)``; returns (T, B, ...) outputs.

    The streams come from the program's own function on purpose: this checks
    how ``mc_forward`` applies them (one stream per pass and dropout layer,
    masks over the whole batch, passes stacked in order), not how a stream
    is derived from its key, which may change as long as it stays keyed."""
    outs = []
    for i in range(t):
        def mask_for(idx, shape, i=i):
            rate = model.layers[idx].rate
            return mc.sample_stream(seed, i, idx).random(shape) >= rate
        outs.append(reference_forward(model, xb, mask_for))
    return np.stack(outs)


def _as_batch(model, x):
    x = np.asarray(x, dtype=np.float64)
    return x[None] if x.shape == model.input_shape else x


def mp_arrays(out):
    """(expectation, variance or None) of an mp forward result."""
    if isinstance(out, MomentTensor):
        return out.expectation, out.variance
    return out, None


# ---------------------------------------------------------------------------
# per-call properties (cheap; run on every output of the timed loop)


def _probabilities_ok(p) -> bool:
    return bool(
        np.all(np.isfinite(p)) and p.min() >= -1e-12 and p.max() <= 1.0 + 1e-12
        and np.allclose(p.sum(axis=-1), 1.0, rtol=0.0, atol=1e-9)
    )


def output_ok(model, mode: str, out) -> bool:
    classify = model.task == network.TASK_CLASSIFICATION
    if mode == "det":
        return _probabilities_ok(out) if classify else bool(np.all(np.isfinite(out)))
    if mode == "mp":
        e, v = mp_arrays(out)
        if classify:
            return _probabilities_ok(e)
        return bool(np.all(np.isfinite(e)) and np.all(np.isfinite(v)) and v.min() >= 0.0)
    if mode == "mc30":
        o = out.outputs
        return out.t == MC_SAMPLES and (_probabilities_ok(o) if classify else bool(np.all(np.isfinite(o))))
    if mode == "step":
        loss, grads = out
        return bool(np.isfinite(loss) and all(np.all(np.isfinite(g)) for d in grads for g in d.values()))
    report = out[1]
    return bool(np.all(np.isfinite(report.train_loss)) and np.all(np.isfinite(report.val_loss)))


# ---------------------------------------------------------------------------
# once-per-run checks; each returns a list of failure messages


def check_model_file(loaded, saved: bytes, path) -> list[str]:
    """Saving the model loaded from ``saved`` must reproduce it byte for byte."""
    network.save_model(loaded, path)
    return [] if path.read_bytes() == saved else ["mpmdl save -> load -> save is not byte-identical"]


def check_mp_agreement(model, xb, seed: int) -> list[str]:
    """Acceptance criterion 6's band: the mp mean must lie within 3 standard
    errors of a T=30 mean of the reference, a PROBE_T-pass MC mean, on at
    least BAND_SHARE of the outputs; the standard deviation is taken from
    the PROBE_T passes."""
    xb = _as_batch(model, xb)
    e, _ = mp_arrays(network.forward_mp(model, xb))
    samples = mc.mc_forward(model, xb, PROBE_T, seed=seed).outputs.reshape(PROBE_T, len(xb), -1)
    band = 3.0 * samples.std(axis=0, ddof=1) / np.sqrt(MC_SAMPLES)
    share = float(np.mean(np.abs(e.reshape(len(xb), -1) - samples.mean(axis=0)) <= band))
    if share < BAND_SHARE:
        return [f"mp mean within 3 SE(T={MC_SAMPLES}) of the T={PROBE_T} MC mean on "
                f"{share:.1%} of outputs (need {BAND_SHARE:.0%})"]
    return []


def check_forwards(model, xb, seed: int, det) -> list[str]:
    """det against the reference forward, mp against det without dropout, and
    MC reproducibility; ``det`` is the program's output on the batch ``xb``."""
    fails = []
    xb = _as_batch(model, xb)
    det = det.reshape(len(xb), -1)
    if not np.allclose(det, reference_forward(model, xb).reshape(len(xb), -1), **ROUNDING):
        fails.append("forward_det differs from the numpy reference forward")

    zero = training.override_dropout(model, (0.0,) * len(model.dropout_rates))
    e0, v0 = mp_arrays(network.forward_mp(zero, xb))
    if not np.allclose(e0, network.forward_det(zero, xb), **ROUNDING) or (
        v0 is not None and np.any(v0 != 0.0)
    ):
        fails.append("with every dropout rate 0, forward_mp differs from forward_det")

    few = xb[:2]
    a = mc.mc_forward(model, few, MC_SAMPLES, seed=seed).outputs
    b = mc.mc_forward(model, few, MC_SAMPLES, seed=seed).outputs
    if not np.array_equal(a, b):
        fails.append("two mc30 calls with the same seed differ")
    ref = reference_mc(model, few, MC_SAMPLES, seed).reshape(a.shape)
    if not np.allclose(a, ref, **ROUNDING):
        fails.append("mc30 differs from the numpy reference with keyed mask streams")
    return fails


def check_single_responses(model, responses, seed: int) -> list[str]:
    """Each one-example response must equal that example's row of the batched
    forward (det, mp), or the reference MC forward of that example (mc30)."""
    fails = []
    for mode in ("det", "mp"):
        xs = np.stack([x for x, _ in responses[mode]])
        batched = (network.forward_det if mode == "det" else network.forward_mp)(model, xs)
        be, bv = mp_arrays(batched)
        for row, (_, out) in enumerate(responses[mode]):
            oe, ov = mp_arrays(out)
            if not np.allclose(oe, be[row], **ROUNDING) or (
                ov is not None and not np.allclose(ov, bv[row], **ROUNDING)
            ):
                fails.append(f"{mode} response {row} differs from its row of the batched forward")
                break
    for row, (x, out) in enumerate(responses["mc30"][:8]):
        ref = reference_mc(model, _as_batch(model, x), MC_SAMPLES, seed)
        if not np.allclose(out.outputs.reshape(ref.shape), ref, **ROUNDING):
            fails.append(f"mc30 response {row} differs from the reference MC forward")
            break
    return fails


def check_training(model, train_data, cfg, reports, seed: int) -> list[str]:
    """Repeated seeded train() calls agree, multi-epoch training lowers the
    loss, and analytic gradients match central finite differences."""
    fails = []
    curves = {tuple(r.train_loss) for r in reports}
    if len(curves) != 1:
        fails.append("seeded train() calls gave different loss curves")
    if any(r.epochs_run != cfg.epochs for r in reports):
        fails.append("train() did not run the fixed epoch count")
    loss = reports[0].train_loss
    if cfg.epochs > 1 and not loss[-1] < loss[0]:
        fails.append(f"training loss did not fall: {loss[0]:.4f} -> {loss[-1]:.4f}")

    x, y = train_data.train_xy()
    xb, yb = x[:8], y[:8]
    params = training.extract_params(model)
    masks = training.draw_masks_for(model, params, xb.shape, seed=seed)
    _, grads = training.grads_with_params(model, params, xb, yb, cfg.loss, masks)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(16):
        layer = int(rng.choice([i for i, p in enumerate(params) if p]))
        key = str(rng.choice(sorted(params[layer])))
        flat = params[layer][key].reshape(-1)
        k = int(rng.integers(flat.size))
        g = grads[layer][key].reshape(-1)[k]
        base = flat[k]
        # A step that straddles a ReLU or max-pool switch gives a wrong
        # quotient; each smaller step makes that less likely, so the
        # parameter passes if any of them agrees.
        errors = []
        for eps in (1e-5, 1e-6, 1e-7, 1e-8):
            flat[k] = base + eps
            up = training.loss_with_params(model, params, xb, yb, cfg.loss, masks)
            flat[k] = base - eps
            down = training.loss_with_params(model, params, xb, yb, cfg.loss, masks)
            fd = (up - down) / (2 * eps)
            errors.append(abs(g - fd) / max(abs(g), abs(fd), 1e-3))
        flat[k] = base
        worst = max(worst, min(errors))
    if worst > 1e-4:
        fails.append(f"grads_with_params disagrees with finite differences (rel {worst:.2e})")
    return fails
