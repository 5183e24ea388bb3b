"""Entropy-weighted adversarial open-set domain adaptation with GEV rejection."""

from .data import (BlobShiftConfig, DatasetPool, DomainBatch, RoleSplit,
                   apply_roles, digits_split, gen_shifted_blobs, load_idx,
                   sample_batch_triple)
from .evt import (GevParams, TailConfig, fit_gev_mle, gev_cdf, gev_pdf, gev_quantile,
                  gev_sample, rejection_threshold)
from .model import (MlpSpec, ModelParams, default_specs, forward_classifier,
                    forward_features, init_params, load_checkpoint, save_checkpoint)
from .objective import (LossWeights, WeightConfig, batch_weights, entropy,
                        loss_classification, loss_domain, loss_entropy_unknown,
                        total_step_gradients)
from .pipeline import (EvalReport, TrainConfig, TrainResult, evaluate, infer_batch,
                       predict, run_ablations, train)

__version__ = "0.1.0"
