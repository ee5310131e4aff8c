"""One run of the momentprop benchmark on one workload.

    python3 perfbench/run.py --workload cnn-batch32 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/``; the benchmark's inputs are generated from ``--seed``.  A run sets
up the workload several times (the median is ``setup_s``), checks the
program's outputs against separate computations, then repeats whole rounds
of det / mp / mc30 forwards, train() calls and trainer steps for
``--seconds``, checking every output again.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics named in ``BENCHMARK.json``;
with ``--trace 1`` it carries the per-layer metrics, from spans recorded on
every other round (the rounds in between run untraced and give the tracing
overhead).  Every time, set-ups and layer spans included, is scaled to a
reference host speed (see ``HostSpeed``).  Details and spans go to
``perfbench/out/``; ``perfbench/README.md`` describes the workloads, checks
and metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS before numpy loads: one thread per process keeps the figures
# steady on a small shared host (it is at most nproc on any host).
BLAS_THREADS = 1
# The reference kernel's time on the 2-core host the benchmark was built on;
# times are reported at that host speed.
REFERENCE_MS = 3.0
# The kernel is timed again before a call once this long has passed since
# its last timing, and once after the last round.
KERNEL_EVERY_S = 0.2
# A time is scaled by the median of the kernel timings within this many
# seconds of it: slow stretches last longer, and one timing is noisy.
KERNEL_WINDOW_S = 2.0
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-ups per run: at least SETUP_MIN, and until SETUP_MIN_S seconds of them.
SETUP_MIN = 5
SETUP_MIN_S = 1.0

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def host_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


class HostSpeed:
    """A fixed numpy kernel, timed between calls, that tracks how fast the
    host runs at the moment.

    On a shared host the CPU runs in fast and slow stretches lasting seconds
    to minutes (see README.md).  The kernel does what the program does, a
    GEMM plus Gaussian-CDF, exp and maximum over a few MB, so a slow stretch
    slows it about as much as it slows the calls around it.
    """

    def __init__(self):
        import numpy as np
        from scipy import special

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((512, 256))
        self._b = rng.standard_normal((256, 256))
        self._v = rng.standard_normal(50_000)
        self._w = rng.random(500_000)
        self._np, self._special = np, special
        self.when: list[float] = []  # start of each timing
        self.seconds: list[float] = []

    def _once(self) -> float:
        started = time.perf_counter()
        self._a @ self._b
        self._special.ndtr(self._v)
        self._np.exp(self._w)
        self._np.maximum(self._w, 0.5)
        return time.perf_counter() - started

    def measure(self) -> None:
        """Time the kernel, the faster of two back-to-back timings."""
        self.when.append(time.perf_counter())
        self.seconds.append(min(self._once(), self._once()))

    def due(self) -> bool:
        return time.perf_counter() - self.when[-1] >= KERNEL_EVERY_S

    def factor(self, start: float, seconds: float) -> float:
        """Factor that takes a time measured from ``start`` for ``seconds``
        to the reference host speed: REFERENCE_MS over the median kernel
        timing within KERNEL_WINDOW_S of it."""
        lo = bisect.bisect_left(self.when, start - KERNEL_WINDOW_S)
        hi = bisect.bisect_right(self.when, start + seconds + KERNEL_WINDOW_S)
        return 1e-3 * REFERENCE_MS / statistics.median(self.seconds[lo:hi])


def run(args, declared: dict) -> dict:
    import numpy as np

    import checks
    import tracing
    from momentprop import mc, network, training
    from workloads import MC_SAMPLES, MODES, PROBE_SEED, agreement_probe, set_up

    def call(w, mode, x):
        if mode == "det":
            return network.forward_det(w.model, x)
        if mode == "mp":
            return network.forward_mp(w.model, x)
        if mode == "mc30":
            return mc.mc_forward(w.model, x, MC_SAMPLES, seed=w.mc_seed)
        if mode == "step":
            params, xb, yb = w.step_inputs
            masks = training.draw_masks_for(w.train_model, params, xb.shape, seed=w.mc_seed)
            return training.grads_with_params(w.train_model, params, xb, yb, w.train_cfg.loss, masks)
        return training.train(w.train_model, w.train_data, w.train_cfg)

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    host = HostSpeed()
    fails: list[str] = []
    attempted = failed = 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setups = []  # (seconds, start, root span index)
        host.measure()
        while len(setups) < SETUP_MIN or sum(t for t, _, _ in setups) < SETUP_MIN_S:
            tracer.active = bool(args.trace)
            root, start = len(tracer.spans), time.perf_counter()
            w, saved, seconds = set_up(args.workload, args.seed, Path(tmp) / "model.mpmdl", tracer)
            tracer.active = False
            host.measure()
            setups.append((seconds, start, root))
        fails += checks.check_model_file(w.model, saved, Path(tmp) / "again.mpmdl")

    # Checked forwards and one training call; they also warm every path.
    xb = w.pool[0] if w.examples_per_call > 1 else np.stack(w.pool)
    fails += checks.check_forwards(w.model, xb, w.mc_seed, call(w, "det", xb))
    for mode in ("mp", "mc30"):
        if not checks.output_ok(w.model, mode, call(w, mode, xb)):
            fails.append(f"{mode} output failed its property check")
    fails += checks.check_mp_agreement(*agreement_probe(args.workload), PROBE_SEED)
    reports = [call(w, "train", None)[1]]

    untraced = {m: [] for m in MODES}  # (seconds, start)
    traced = {m: [] for m in MODES}  # (seconds, start, root span index)
    host.measure()
    responses = {m: [] for m in ("det", "mp", "mc30")}
    bad_outputs = set()
    started = time.perf_counter()
    r = 0
    while True:
        tracer.active = bool(args.trace) and r % 2 == 0
        for mode, x in w.round_ops(r):
            attempted += 1
            if host.due():
                host.measure()
            root = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                if tracer.active:
                    with tracer.span(mode):
                        out = call(w, mode, x)
                else:
                    out = call(w, mode, x)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            seconds = time.perf_counter() - t0
            if tracer.active:
                traced[mode].append((seconds, t0, root))
            else:
                untraced[mode].append((seconds, t0))
            model = w.train_model if mode in ("train", "step") else w.model
            if not checks.output_ok(model, mode, out):
                bad_outputs.add(mode)
            if mode == "train":
                reports.append(out[1])
            elif mode in responses and w.examples_per_call == 1 and len(responses[mode]) < 64:
                responses[mode].append((x, out))
        r += 1
        # traced runs need an untraced round too, for the overhead
        if r >= 1 + args.trace and time.perf_counter() - started >= args.seconds:
            break
    tracer.active = False
    host.measure()

    setup_s = [t * host.factor(start, t) for t, start, _ in setups]
    times = {m: [t * host.factor(t0, t) for t, t0 in untraced[m]] for m in MODES}
    traced_times = {m: [t * host.factor(t0, t) for t, t0, _ in traced[m]] for m in MODES}

    fails += [f"{m} output failed its property check" for m in sorted(bad_outputs)]
    if w.examples_per_call == 1:
        fails += checks.check_single_responses(w.model, responses, w.mc_seed)
    fails += checks.check_training(w.train_model, w.train_data, w.train_cfg, reports, args.seed)

    if args.trace:
        # root span index -> factor of the set-up or call the span records
        span_scale = {
            root: host.factor(t0, t) for t, t0, root in setups + sum(traced.values(), [])
        }
        metrics = per_layer_metrics(w, tracer.summary(span_scale), tracer, times, traced_times)
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json", span_scale)
        tracer.restore()
    else:
        metrics = end_to_end_metrics(w, setup_s, times)
    missing = set(declared) ^ set(metrics)
    if missing:
        _fail(f"computed metrics differ from BENCHMARK.json: {sorted(missing)}")

    raw = {m: [t for t, _ in untraced[m]] for m in MODES}
    kernel_s = host.seconds
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": r, "host": host_record(), "fails": fails,
        "setups": len(setups), "setup_raw_p50_s": statistics.median(t for t, _, _ in setups),
        "kernel_ms": {"median": 1e3 * statistics.median(kernel_s), "min": 1e3 * min(kernel_s),
                      "max": 1e3 * max(kernel_s)},
        "calls": {m: len(raw[m]) for m in MODES},
        "raw_p50_ms": {m: 1e3 * statistics.median(raw[m]) for m in MODES if raw[m]},
        "raw_p90_ms": {m: 1e3 * float(np.quantile(raw[m], 0.9)) for m in MODES if len(raw[m]) >= 100},
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**detail, "metrics": metrics, "setup_raw": setups, "setup_s": setup_s,
                    "untraced": untraced, "traced": traced,
                    "kernel": list(zip(host.when, host.seconds))}, indent=1)
    )
    print(json.dumps(detail))
    for message in fails:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }


def end_to_end_metrics(w, setup_s, times) -> dict:
    """Set-up median, peak memory, and per mode the median call, the times
    already scaled to the reference host speed."""
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for mode in ("det", "mp", "mc30"):
        p50 = statistics.median(times[mode])
        metrics[f"{mode}_examples_per_s"] = w.examples_per_call / p50
        metrics[f"{mode}_p50_ms"] = 1e3 * p50
    metrics["train_examples_per_s"] = w.train_examples_per_call / statistics.median(times["train"])
    return metrics


def per_layer_metrics(w, s, tracer, times, traced_times) -> dict:
    """Busy time per call of the mode (per epoch for training, per set-up for
    set-up), exact work counts per forward, self times and tracing overhead.
    ``s`` summarizes the spans at the reference host speed, and ``times``
    and ``traced_times`` are scaled to it."""
    from momentprop import network
    from tracing import DET_LAYERS, MC_LAYERS, MP_LAYERS

    # exact work counts, one counted forward per mode outside the timed rounds
    tracer.active = tracer.counting = True
    x = w.pool[0]
    with tracer.span("det.count"):
        network.forward_det(w.model, x)
    with tracer.span("mp.count"):
        network.forward_mp(w.model, x)
    tracer.active = tracer.counting = False

    n = {m: len(traced_times[m]) for m in traced_times}
    n_setup = s.roots["setup"]
    epochs = n["train"] * w.train_cfg.epochs
    ms = 1e3
    m = {}
    for root, names in (("det", DET_LAYERS), ("mp", MP_LAYERS), ("mc30", MC_LAYERS)):
        for name in names:
            m[f"{root}.layers.{name}.ms"] = ms * s.per(s.busy, root, f"layers.{name}", n[root])
    m["mp.layers.cdf_evals"] = tracer.counts[("mp.count", "cdf_evals")]
    m["mp.layers.zero_variance_calls"] = tracer.counts[("mp.count", "zero_variance_calls")]
    m["det.layers.gemm_flops"] = tracer.counts[("det.count", "gemm_flops")]
    m["mp.layers.gemm_flops"] = tracer.counts[("mp.count", "gemm_flops")]
    m["det.network.self.ms"] = ms * s.per(s.self_time, "det", "network.forward_det", n["det"])
    m["mp.network.self.ms"] = ms * s.per(s.self_time, "mp", "network.forward_mp", n["mp"])
    m["mc30.mc.sample_stream.ms"] = ms * s.per(s.busy, "mc30", "mc.sample_stream", n["mc30"])
    m["mc30.mc.sample_stream.calls"] = s.per(s.calls, "mc30", "mc.sample_stream", n["mc30"])
    m["mc30.mc.self.ms"] = ms * s.per(s.self_time, "mc30", "mc.mc_forward", n["mc30"])
    m["setup.network.save_model.ms"] = ms * s.per(s.busy, "setup", "network.save_model", n_setup)
    m["setup.network.load_model.ms"] = ms * s.per(s.busy, "setup", "network.load_model", n_setup)
    m["setup.data.ms"] = ms * s.per(s.busy, "setup", "data", n_setup)
    m["train.epoch.ms"] = ms * s.per(s.busy, "train", "training.train", epochs)
    m["train.network.forward_mp.ms"] = ms * s.per(s.busy, "train", "network.forward_mp", epochs)
    m["train.training.grads_with_params.ms"] = ms * s.per(
        s.busy, "step", "training.grads_with_params", n["step"]
    )
    m["train.training.draw_masks_for.ms"] = ms * s.per(
        s.busy, "step", "training.draw_masks_for", n["step"]
    )
    for mode in ("det", "mp", "mc30", "train"):
        m[f"{mode}.trace.overhead.ms"] = ms * (
            statistics.median(traced_times[mode]) - statistics.median(times[mode])
        )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "momentprop" / "__init__.py").is_file():
        _fail(f"no momentprop sources under {ROOT / 'src'}; run from a source checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {wl["name"] for wl in spec["workloads"]}:
        _fail(f"unknown workload {args.workload!r}")
    declared = {
        mt["name"]: mt["unit"] for mt in spec["per_layer" if args.trace else "end_to_end"]
    }
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args, declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
