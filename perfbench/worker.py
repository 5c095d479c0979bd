"""One repetition of a benchmark workload, in a fresh process.

Generates the data, certifies the expander, augments the pattern, then
runs train_estimator, train_final (each with a temporary run directory,
so artifact writes are timed) and predict over all nodes, and checks the
outputs.  Set-up is
timed from the first line of this file, so it includes importing numpy,
scipy and the library.  Each training epoch is timed on its own (see
UnitClock), and so is each predict call.  With ``--trace 1`` the library's public functions
are wrapped while the pipeline runs (see tracing.py) and the spans are
written next to the result.

The result is one JSON file (``--out``).  run.py starts this script; to
run one repetition by hand, from the repository root:

    python3 perfbench/worker.py --workload readme-192 --seed 0 --trace 0 \
        --out result.json
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sparsegt.attention as attention  # noqa: E402
import sparsegt.datasets as datasets  # noqa: E402
import sparsegt.graphs as graphs  # noqa: E402
import sparsegt.numerics as numerics  # noqa: E402
import sparsegt.pipeline as pipeline  # noqa: E402
import sparsegt.sampling as sampling  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import EXPANDER_CYCLES, WORKLOADS  # noqa: E402

PHASES = ("setup", "estimator", "final", "predict")
# Full-degree predict and the full-pattern forward run the same float32
# arithmetic on differently sized row blocks; BLAS may round those apart.
EQUIVALENCE_TOL = 1e-5


class CheckFailed(Exception):
    pass


class UnitClock:
    """Start and end of every timed unit: training epochs and predict calls.

    Both trainers call ``AdamW.step(epoch)`` once per update; ``install``
    wraps it.  An epoch runs from the first step of its own to the first
    step of the next one: its remaining batches, validation, the next draw
    and forward-backward pass.  The fixed costs before a trainer's first
    epoch and after its last are left out.  Between two epochs the host's
    speed is read when a reading is due (see hostspeed.py), outside both
    spans.

    While the pipeline runs the clock only appends numbers to lists made
    beforehand.  It allocates nothing the collector counts, so the
    collections -- which free the tape's reference cycles and so set the
    pipeline's peak memory -- fall where they would without it.
    """

    def __init__(self, speed):
        self.speed = speed
        self.epoch, self.epoch_end, self.epoch_start = [], [], []  # per epoch
        self.final_from = 0      # index of train_final's first epoch
        self.predict_start, self.predict_end = [], []
        self._original = numerics.AdamW.step
        epochs, ends, starts, clock = self.epoch, self.epoch_end, self.epoch_start, \
            time.perf_counter
        original = self._original

        # AdamW.step's own signature, so a call builds no argument tuple
        def step(opt, epoch):
            if not epochs or epochs[-1] != epoch:
                ends.append(clock())
                speed.read_if_due()
                starts.append(clock())
                epochs.append(epoch)
            return original(opt, epoch)

        step.__wrapped__ = original
        self._step = step

    def install(self):
        numerics.AdamW.step = self._step

    def restore(self):
        numerics.AdamW.step = self._original

    def epochs(self, phase) -> list:
        """The (start, end) span of every whole epoch of ``phase``."""
        lo, hi = ((0, self.final_from) if phase == "estimator"
                  else (self.final_from, len(self.epoch)))
        n, e, s = self.epoch, self.epoch_end, self.epoch_start
        return [(s[i], e[i + 1]) for i in range(lo, hi - 1) if n[i + 1] == n[i] + 1]

    def predicts(self) -> list:
        return list(zip(self.predict_start, self.predict_end))


def setup(wl, seed):
    g = datasets.gen_dataset(datasets.SyntheticSpec(seed=seed, **wl.spec))
    expander = graphs.build_expander(g.n, num_cycles=EXPANDER_CYCLES, seed=seed)
    return g, graphs.augment(g, expander, layers=wl.layers)


def _phases(wl, seed, run_dir, span, clock, marks):
    """The timed pipeline; appends a clock reading after each phase.

    ``clock`` times every epoch and predict call and reads the host's
    speed between them.  predict runs ``wl.predict_calls`` times; the
    pipeline ends with the first.
    """
    speed = clock.speed
    with span("bench.setup"):
        g, pattern = setup(wl, seed)
    marks.append(time.perf_counter())
    speed.read()
    clock.install()
    try:
        est = pipeline.train_estimator(g, pattern,
                                       pipeline.TrainConfig(seed=seed, **wl.estimator),
                                       run_dir=run_dir / "estimator")
        marks.append(time.perf_counter())
        clock.final_from = len(clock.epoch)
        cfg = pipeline.TrainConfig(seed=seed, **wl.final)
        res = pipeline.train_final(g, est.scores, cfg, run_dir=run_dir / "final")
        marks.append(time.perf_counter())
    finally:
        clock.restore()
    # the prefilter train_final applies to its own test metric
    k_prime = 4 * max(cfg.degs) if cfg.prefilter else None
    for _ in range(wl.predict_calls):
        speed.read()
        clock.predict_start.append(time.perf_counter())
        probs, _ = pipeline.predict(res.network, g.features, est.scores, cfg.degs,
                                    np.arange(g.n), seed=seed,
                                    n_samples=wl.predict_samples,
                                    batch_size=cfg.batch_size, k_prime=k_prime,
                                    tail_eps=cfg.tail_eps, loss_name=res.loss_name)
        clock.predict_end.append(time.perf_counter())
        if len(marks) == 4:
            marks.append(time.perf_counter())
    speed.read()
    return g, est, res, probs


def _probabilities(loss_name, logits):
    z = np.asarray(logits, dtype=np.float64)
    if loss_name == "ce":
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    p = 1.0 / (1.0 + np.exp(-z))
    return p.reshape(-1) if loss_name == "bce" else p


def _check_scores(wl, g, est, res, probs):
    sampling.validate_scores(est.scores)
    return "every score row is a distribution"


def _check_probabilities(wl, g, est, res, probs):
    p = np.asarray(probs)
    if p.shape[0] != g.n:
        raise CheckFailed(f"{p.shape[0]} rows for {g.n} nodes")
    if not np.isfinite(p).all():
        raise CheckFailed("non-finite probability")
    if p.min() < 0.0 or p.max() > 1.0:
        raise CheckFailed(f"probability outside [0, 1]: {p.min()}..{p.max()}")
    if p.ndim == 2:
        dev = float(np.abs(p.sum(axis=1) - 1.0).max())
        if dev > 1e-6:
            raise CheckFailed(f"row sums deviate from 1 by {dev:.3e}")
    return f"{p.shape} finite, rows are distributions"


def _check_floor(wl, g, est, res, probs):
    if not res.test_metric >= wl.test_floor:
        raise CheckFailed(f"test metric {res.test_metric} below floor {wl.test_floor}")
    return f"test metric {res.test_metric:.4f} >= {wl.test_floor}"


def _check_equivalence(wl, g, est, res, probs):
    """Full-degree predict equals an eval forward over the whole pattern."""
    kmax = int(np.diff(est.scores.layers[0].row_ptr).max())
    # a full-degree plan draws nothing, so the seed does not matter
    full_degree, _ = pipeline.predict(res.network, g.features, est.scores,
                                      (kmax,) * wl.layers, np.arange(g.n), seed=0,
                                      loss_name=res.loss_name)
    geoms = [attention.pattern_geometry(layer) for layer in est.scores.layers]
    with numerics.no_grad():
        logits, _ = res.network.forward(np.asarray(g.features, dtype=res.network.cfg.dtype),
                                        geoms, tau=1.0, training=False)
    dev = float(np.abs(_probabilities(res.loss_name, logits.data) - full_degree).max())
    if not dev <= EQUIVALENCE_TOL:
        raise CheckFailed(f"max probability deviation {dev:.3e} > {EQUIVALENCE_TOL}")
    return f"max probability deviation {dev:.3e}"


def checks_for(wl):
    out = [("scores_valid", _check_scores),
           ("probabilities_valid", _check_probabilities),
           ("test_metric_floor", _check_floor)]
    if wl.full_degree_check:
        out.append(("full_degree_equivalence", _check_equivalence))
    return out


def run_pipeline(wl, seed, work_dir, t0, tracer=None) -> dict:
    """One timed pipeline plus its output checks.

    Every phase and every check is one operation; a phase that raises
    fails itself and every operation after it.
    """
    checks = checks_for(wl)
    failures = []
    marks = [t0]
    clock = UnitClock(HostSpeed())
    outputs = None
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_dir))
    if tracer is not None:
        tracer.install()
    # The pipeline starts with the collector emptied of the benchmark's own
    # objects, so when the collector runs -- and frees the tape's reference
    # cycles, which sets peak memory -- depends on the library alone.  The
    # collection is not timed.
    start = time.perf_counter()
    gc.collect()
    skipped = time.perf_counter() - start
    try:
        outputs = _phases(wl, seed, run_dir,
                          tracer.span if tracer is not None else lambda _: nullcontext(),
                          clock, marks)
    except Exception as exc:  # a failed operation is counted, not fatal
        failures.append(f"{PHASES[len(marks) - 1]}: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(run_dir, ignore_errors=True)

    details = {}
    for name, check in checks:
        if outputs is None:
            failures.append(f"{name}: skipped, the pipeline failed")
            continue
        try:
            details[name] = check(wl, *outputs)
        except Exception as exc:  # a failed check is counted, not fatal
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    result = {"attempted": len(PHASES) + len(checks),
              "failed": len(failures) + (len(PHASES) - len(marks) if outputs is None else 0),
              "failures": failures, "checks": details}
    if outputs is not None:
        g, est, res, _ = outputs
        result["metrics"], result["samples"], result["raw"] = _timings(
            wl, g.n, clock, marks, skipped)
        result["test_metric"] = res.test_metric
    return result


def _timings(wl, n, clock, marks, skipped):
    """(single metrics, pooled samples, raw figures) of one pipeline run.

    Every time is scaled to the host's fast speed (see hostspeed.py); the
    raw figures keep the unscaled times and the host readings.
    """
    speed = clock.speed
    units = {"estimator": clock.epochs("estimator"), "final": clock.epochs("final"),
             "predict": clock.predicts()}

    def scaled(start, end, spent=0.0):
        return (end - start - spent) * speed.scale(start, end)

    # the collection and the readings inside the pipeline are left out
    spent = skipped + sum(speed.spans_within(marks[0], marks[4]))
    nodes = n * wl.predict_samples
    metrics = {
        "setup_s": scaled(marks[0], marks[1], skipped),
        "pipeline_s": scaled(marks[0], marks[4], spent),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "estimator_ms_per_epoch": [1e3 * scaled(a, b) for a, b in units["estimator"]],
        "final_ms_per_epoch": [1e3 * scaled(a, b) for a, b in units["final"]],
        "predict_nodes_per_s": [nodes / scaled(a, b) for a, b in units["predict"]],
    }
    raw = {
        "setup_s": marks[1] - marks[0] - skipped,
        "pipeline_s": marks[4] - marks[0] - spent,
        "estimator_ms_per_epoch": [1e3 * (b - a) for a, b in units["estimator"]],
        "final_ms_per_epoch": [1e3 * (b - a) for a, b in units["final"]],
        "predict_nodes_per_s": [nodes / (b - a) for a, b in units["predict"]],
        # phase wall time over epochs, fixed costs included
        "estimator_phase_ms_per_epoch": 1e3 * (marks[2] - marks[1]) / wl.estimator["epochs"],
        "final_phase_ms_per_epoch": 1e3 * (marks[3] - marks[2]) / wl.final["epochs"],
        "host_reading_times": [t - marks[0] for t in speed.times],
        "host_reading_ms": speed.ms,
    }
    return metrics, samples, raw


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    result = run_pipeline(wl, args.seed, args.out.parent, T_START, tracer)
    if tracer is not None:
        from tracing import unit_of
        result["per_layer"] = tracer.metrics()
        result["per_layer_units"] = {n: unit_of(n) for n in result["per_layer"]}
        tracer.dump(args.out.with_suffix(".spans.json"))
    result["seed"] = args.seed
    result["env"] = environment()
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
