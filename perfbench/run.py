"""Pipeline benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload readme-192 --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from
src/, nothing needs installing.  Every repetition runs in its own fresh
process (worker.py) with BLAS fixed to one thread, so set-up pays the cold
start a command-line user pays.

--trace 0 runs the end-to-end measurement: whole-pipeline processes
until --seconds have passed; END_TO_END says how each metric combines
them.  --trace 1 runs one untraced and one traced pipeline and reports
the per-layer metrics of the traced one, with the tracing overhead as
their difference in pipeline_s.

Each metric is printed by name with its unit, then the environment, then
-- as the last line -- a JSON object with keys correct, attempted, failed
and metrics.  A full record, including every repetition, goes to
.perfbench/results/.  Exits non-zero without a result when the library
cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BLAS_THREADS = 1            # at most nproc; one thread is the steadiest on a shared host
DEADLINE_S = 170.0          # the whole run, worker time included
INPUTS_PER_SEED = 1000      # pipeline runs of one benchmark run before inputs repeat


# name -> (unit, how a run combines the values its pipeline runs measured).
# Every time is scaled to the host's fast speed by the worker (see
# hostspeed.py).  The timed phases pool their short units of work --
# single epochs, single predict calls -- over every pipeline run of the
# run and report the mean: each pipeline run has other inputs (see
# input_seed), and a median would jump between the inputs' costs.  For a
# rate that is total work over total time, the harmonic mean.  Set-up time
# is the median of the run's set-ups; peak RSS does not depend on speed.
END_TO_END = {
    "setup_s": ("s", statistics.median),
    "estimator_ms_per_epoch": ("ms", statistics.fmean),
    "final_ms_per_epoch": ("ms", statistics.fmean),
    "predict_nodes_per_s": ("nodes/s", statistics.harmonic_mean),
    "pipeline_s": ("s", statistics.fmean),
    "peak_rss_mb": ("MB", statistics.median),
}


class WorkerCrashed(RuntimeError):
    pass


def run_worker(workload, seed, trace, tag, deadline) -> dict:
    out = WORK / f"{workload}-seed{seed}-{tag}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS",
                                                  "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerCrashed(f"a run of {workload} passed the deadline") from None
    if proc.returncode != 0 or not out.is_file():
        raise WorkerCrashed(f"a run of {workload} exited {proc.returncode}:\n"
                            f"{proc.stderr[-3000:]}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def pooled(reps, name, raw=False):
    """Every value of ``name`` the repetitions measured, pooled.

    With ``raw``, the unscaled wall-clock values instead.
    """
    values = []
    for r in reps:
        if raw:
            value = r.get("raw", {}).get(name)
            values += value if isinstance(value, list) else [] if value is None else [value]
        elif name in r.get("samples", {}):
            values += r["samples"][name]
        elif name in r.get("metrics", {}):
            values.append(r["metrics"][name])
    return values


def unscaled(reps):
    """Every timed metric combined from the unscaled wall-clock values."""
    out = {}
    for name, (_, how) in END_TO_END.items():
        values = pooled(reps, name, raw=True)
        if values:
            out[name] = how(values)
    return out


def input_seed(seed, i):
    """The seed of the ``i``-th pipeline run of a benchmark run with ``seed``.

    Each pipeline run takes other inputs, so a run measures the workload
    over many graphs rather than over the one the seed alone would give;
    how fast a phase runs depends on the graph and on what the estimator
    learned from it by as much as 25%.
    """
    return seed * INPUTS_PER_SEED + i % INPUTS_PER_SEED


def measure(workload, seed, seconds, deadline):
    """Pipeline runs until ``seconds`` have passed, at least one."""
    reps = []
    window_end = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        reps.append(run_worker(workload, input_seed(seed, len(reps)), 0,
                               f"run{len(reps)}", deadline))
        # start another run only if one as long as the last fits the window
        if time.monotonic() + (time.monotonic() - started) > window_end:
            break
    return (reps, *summarize(reps))


def summarize(reps):
    """(value, unit, sample count) of every end-to-end metric, as dicts."""
    metrics, units, samples = {}, {}, {}
    for name, (unit, how) in END_TO_END.items():
        values = pooled(reps, name)
        metrics[name] = how(values) if values else None
        units[name] = unit
        samples[name] = len(values)
    return metrics, units, samples


def measure_traced(workload, seed, deadline):
    """One untraced and one traced pipeline run; per-layer metrics of the second."""
    seed = input_seed(seed, 0)
    from_plain = run_worker(workload, seed, 0, "untraced", deadline)
    traced = run_worker(workload, seed, 1, "traced", deadline)
    spans = WORK / f"{workload}-seed{seed}-traced.spans.json"
    spans.replace(WORK / "results" / spans.name)
    metrics = dict(traced.get("per_layer", {}))
    plain_s, traced_s = pooled([from_plain], "pipeline_s"), pooled([traced], "pipeline_s")
    metrics["trace.pipeline_s"] = traced_s[0] if traced_s else None
    metrics["trace.overhead_s"] = traced_s[0] - plain_s[0] if traced_s and plain_s else None
    units = {**traced.get("per_layer_units", {}), "trace.pipeline_s": "s",
             "trace.overhead_s": "s"}
    samples = {name: 1 for name in metrics}
    return [from_plain, traced], metrics, units, samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD's commit read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    if not git.is_dir():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def report(workload, seed, seconds, trace, reps, metrics, units, samples, results_dir):
    """Write the full record, print every metric, and end with the result line."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    env = {"git_sha": git_sha(), "source_sha256": source_digest(),
           "blas_threads_requested": BLAS_THREADS, **reps[0]["env"]}
    wall = unscaled(reps)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted,
              "metrics": {n: {"value": v, "unit": units[n], "samples": samples[n]}
                          for n, v in metrics.items()},
              "unscaled": wall, "runs": reps}
    (results_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"perfbench {workload} seed={seed} trace={trace}: "
          f"{len(reps)} runs, {attempted} operations")
    for n, v in metrics.items():
        note = f"; {wall[n]:.6g} unscaled" if n in wall and n != "peak_rss_mb" else ""
        print(f"  {n:<44} {v!r:>24} {units[n]:<8} (n={samples[n]}{note})")
    print(f"  {'error_rate':<44} {failed / attempted!r:>24} {'ratio':<8} "
          f"({failed} of {attempted} operations failed)")
    for r in reps:
        for failure in r["failures"]:
            print(f"perfbench: failed: {failure}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sparsegt" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'sparsegt'}", file=sys.stderr)
        return 2
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            reps, metrics, units, samples = measure_traced(args.workload, args.seed, deadline)
        else:
            reps, metrics, units, samples = measure(args.workload, args.seed,
                                                    args.seconds, deadline)
    except WorkerCrashed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    report(args.workload, args.seed, args.seconds, args.trace, reps, metrics, units,
           samples, WORK / "results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
