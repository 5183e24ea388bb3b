"""The package surface: every name ``adagev`` re-exports, and the submodules,
resolve on first access to the very objects their modules define."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adagev

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(adagev.__file__).resolve().parents[1]

# Every name that adagev re-exports, by the submodule that defines it.
EXPORTED = {
    "data": ["BlobShiftConfig", "DatasetPool", "DomainBatch", "RoleSplit", "apply_roles",
             "digits_split", "gen_shifted_blobs", "load_idx", "sample_batch_triple"],
    "evt": ["GevParams", "fit_gev_mle", "gev_cdf", "gev_pdf", "gev_quantile", "gev_sample",
            "rejection_threshold"],
    "model": ["MlpSpec", "ModelParams", "default_specs", "forward_classifier",
              "forward_features", "init_params", "load_checkpoint", "save_checkpoint"],
    "objective": ["LossWeights", "batch_weights", "entropy", "loss_classification",
                  "loss_domain", "loss_entropy_unknown", "total_step_gradients"],
    "pipeline": ["EvalReport", "TrainConfig", "TrainResult", "evaluate", "infer_batch",
                 "predict", "run_ablations", "train"],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_all_lists_exactly_the_exported_names():
    assert len(PAIRS) == 39
    assert sorted(adagev.__all__) == sorted(name for _, name in PAIRS)


@pytest.mark.parametrize("module,name", PAIRS, ids=[name for _, name in PAIRS])
def test_exported_name_is_its_modules_object(module, name):
    defined = getattr(importlib.import_module(f"adagev.{module}"), name)
    namespace = {}
    exec(f"from adagev import {name}", namespace)
    assert getattr(adagev, name) is defined
    assert namespace[name] is defined
    assert name in dir(adagev)


def test_traced_modules_resolve_as_attributes():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from spans import MODULES
    finally:
        sys.path.remove(str(PERFBENCH))
    assert len(MODULES) == 7
    for short in MODULES:
        assert getattr(adagev, short) is importlib.import_module(f"adagev.{short}")


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'adagev' has no attribute 'no_such_name'"):
        adagev.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from adagev import no_such_name", {})


def test_import_loads_a_module_on_first_access_only():
    code = ("import sys, adagev\n"
            "before = 'numpy' in sys.modules or 'adagev.pipeline' in sys.modules\n"
            "adagev.TrainConfig\n"
            "print(before, 'adagev.pipeline' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "True"]
