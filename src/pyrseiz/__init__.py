"""Pyramidal 1D-CNN ensemble for EEG epilepsy detection.

From-scratch strided convolutions, batch normalization, Adam and
backpropagation; window-based data augmentation; majority-vote ensemble
inference; and a stratified cross-validation experiment battery.

The package namespace holds the names the command line, the benchmark
harness and the README use; everything else is imported from its submodule
(``pyrseiz.evaluation.run_cv``, ``pyrseiz.training.train``, ...). The names
are resolved on first use, so ``import pyrseiz`` imports no numpy and
``pyrseiz.cli`` can choose the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_OF = {
    "load_checkpoint": "checkpoint",
    "define_case": "dataset",
    "load_bonn_root": "dataset",
    "predict_instance": "ensemble",
    "init_parameters": "network",
    "model_config": "network",
    "parameter_shapes": "network",
    "get_scheme": "windowing",
    "segment_testing": "windowing",
}


def __getattr__(name: str):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
