"""Run every workload over several seeds and summarise it as a BENCH file.

    python3 perfbench/baseline.py --seeds 11-20 --seconds 55 --out perfbench/BENCH_baseline.json

For each workload this runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` on the first seed, one at a time, then writes per
end-to-end metric the ten values, their median and quartiles and the
spread (q3 - q1) / median -- the figures a regression check compares --
plus the same figures over every single pipeline run, the final test
metrics, and the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench" / "results"
sys.path.insert(0, str(HERE))

from run import END_TO_END, pooled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _record(workload, seed, trace, seconds):
    """Run the benchmark once and return the full record it wrote."""
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def _stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def summarise(workload, seeds, seconds):
    records = [_record(workload, s, 0, seconds) for s in seeds]
    traced = _record(workload, seeds[0], 1, seconds)
    return {
        "correct": all(rec["failed"] == 0 for rec in records + [traced]),
        "attempted": sum(rec["attempted"] for rec in records),
        "end_to_end": {name: _stats([rec["metrics"][name]["value"] for rec in records])
                       for name in END_TO_END},
        "unscaled": {name: _stats([rec["unscaled"][name] for rec in records])
                     for name in END_TO_END if name in records[0]["unscaled"]},
        "every_pipeline_run": {
            name: _stats(pooled([r for rec in records for r in rec["runs"]], name))
            for name in END_TO_END},
        "test_metric": [rec["runs"][-1]["test_metric"] for rec in records],
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        "env": records[0]["env"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("11-20"))
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    out = {"seeds": args.seeds, "seconds": args.seconds,
           "workloads": {w: summarise(w, args.seeds, args.seconds) for w in WORKLOADS}}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for w, s in out["workloads"].items():
        print(w, "correct" if s["correct"] else "FAILED")
        for name, st in s["end_to_end"].items():
            print(f"  {name:<26} median {st['median']:>12.4f}  spread {st['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
