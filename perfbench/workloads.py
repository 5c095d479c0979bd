"""The benchmark's workloads: what each one runs and why it is there.

Every workload is the README pipeline -- gen_dataset -> build_expander ->
augment -> train_estimator -> train_final -> predict -- on a different
graph.  The workload seed (``--seed``) feeds the data generator, the
expander and both training configs, so one seed names one set of inputs.

This module imports nothing outside the standard library, so run.py can
read it without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

EXPANDER_CYCLES = 3


@dataclass(frozen=True)
class Workload:
    spec: dict              # SyntheticSpec fields; the seed comes from --seed
    estimator: dict         # TrainConfig fields of phase one
    final: dict             # TrainConfig fields of phase two
    predict_samples: int    # sampled patterns averaged by one predict call
    predict_calls: int      # predict calls per pipeline run, each timed
    full_degree_check: bool  # check predict at degree (kmax, kmax) against the full pattern
    test_floor: float       # lowest acceptable final test metric over all seeds

    @property
    def layers(self) -> int:
        return self.estimator["layers"]


WORKLOADS = {
    # The README's five-line pipeline as written: n=192, 400 estimator
    # epochs, degree-4 sampling.  Arrays are tiny, so per-op tape overhead
    # and the per-query sampler loop dominate.  The final test accuracy
    # ranges from 0.39 to 0.97 over seeds 0-23 (0.974 at seed 0), so the
    # floor only rejects degenerate output.  At n=192 a full-degree predict
    # is cheap, so this workload also checks the README's equivalence claim.
    "readme-192": Workload(
        spec={},
        estimator=dict(width=8, layers=2, epochs=400),
        final=dict(width=32, layers=2, epochs=30, degs=(4, 4)),
        predict_samples=4,
        predict_calls=6,
        full_degree_check=True,
        test_floor=0.25,
    ),
    # 40 hub components of 100 nodes joined by 20 bridges: kmax 107 against
    # a mean row of ~10, so 91% of phase one's padded slots are dead.
    # Padding, gather/scatter and memory dominate phase one; the hub rows go
    # through the score prefilter; n > 2048 takes the power-iteration
    # spectral gap.  Few epochs keep a run short; at that length the model
    # stays near chance (0.48-0.58 over seeds 0-5 and 11-20), so the floor
    # only rejects degenerate output.
    "hub-4000": Workload(
        spec=dict(num_components=40, component_size=100, num_bridges=20),
        estimator=dict(width=8, layers=2, epochs=4),
        final=dict(width=32, layers=2, epochs=3, degs=(4, 4)),
        predict_samples=1,
        predict_calls=3,
        full_degree_check=False,
        test_floor=0.25,
    ),
}
