"""Sparse graph attention in two phases: estimate scores, then sample.

A narrow estimator network is trained over the input graph augmented
with a certified expander and self loops; its attention rows become
per-layer sampling scores.  The wide final network then trains on
fixed-degree supports drawn from those scores, redrawn every epoch, so
its cost scales with the degree budget instead of the pattern size.
"""

from .analysis import (ConsistencyResult, attention_entropy, consistency_study,
                       edge_type_attribution, energy_distance,
                       noisy_sampling_check, profile_scores,
                       projection_distortion_check, spectral_sample_check,
                       topk_mass)
from .attention import (LayerGeometry, ModelConfig, Network,
                        TemperatureSchedule, attention_sublayer,
                        pattern_geometry, temperature_at)
from .datasets import (SyntheticSpec, gen_dataset, homophily_ratio,
                       load_dataset, write_dataset)
from .errors import (ContractError, ConvergenceError, DivergenceError,
                     ExpanderGapError, FormatError, ShapeError)
from .graphs import (AttentionPattern, EdgeType, ExpanderGraph, Graph,
                     PatternLayer, augment, build_expander, edges_to_csr,
                     load_expander, load_graph, load_pattern, save_expander,
                     save_pattern, spectral_gap)
from .pipeline import (EstimatorResult, FinalResult, FinalRun, TrainConfig,
                       build_network, edge_percent, load_final_run, load_run_scores,
                       predict, predict_by_law, train_estimator, train_final)
from .sampling import (BatchPlan, SampleStats, SamplingLaw, load_scores_npz,
                       plan_geometries, resample_epoch, sample_batch,
                       sampling_law, save_scores_npz, uniform_scores,
                       validate_scores)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
