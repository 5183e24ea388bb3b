"""Entropy-weighted adversarial open-set domain adaptation with GEV rejection.

The names below, and the submodules themselves, resolve on first access
(PEP 562): ``import adagev`` loads neither numpy nor a numerical module, so
``adagev --help`` starts without them. ``adagev.train`` or
``from adagev import train`` imports ``adagev.pipeline`` then.
"""

import sys

# Each re-exported name, by the submodule that defines it.
_EXPORTS = {
    "data": ("BlobShiftConfig", "DatasetPool", "DomainBatch", "RoleSplit", "apply_roles",
             "digits_split", "gen_shifted_blobs", "load_idx", "sample_batch_triple"),
    "evt": ("GevParams", "fit_gev_mle", "gev_cdf", "gev_pdf", "gev_quantile", "gev_sample",
            "rejection_threshold"),
    "model": ("MlpSpec", "ModelParams", "default_specs", "forward_classifier",
              "forward_features", "init_params", "load_checkpoint", "save_checkpoint"),
    "objective": ("LossWeights", "batch_weights", "entropy", "loss_classification",
                  "loss_domain", "loss_entropy_unknown", "total_step_gradients"),
    "pipeline": ("EvalReport", "TrainConfig", "TrainResult", "evaluate", "infer_batch",
                 "predict", "run_ablations", "train"),
}
_SUBMODULES = ("autodiff", "cli", *_EXPORTS)
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    short = name if name in _SUBMODULES else _SOURCE.get(name)
    if short is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import statement's path, which -X importtime
    # logs; importlib.import_module does not
    __import__(f"{__name__}.{short}")
    module = sys.modules[f"{__name__}.{short}"]
    return module if short == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
