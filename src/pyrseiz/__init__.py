"""Pyramidal 1D-CNN ensemble for EEG epilepsy detection.

From-scratch strided convolutions, batch normalization, Adam and
backpropagation; window-based data augmentation; majority-vote ensemble
inference; and a stratified cross-validation experiment battery.

The package namespace holds the names the command line, the benchmark
harness and the README use; everything else is imported from its submodule
(``pyrseiz.evaluation.run_cv``, ``pyrseiz.training.train``, ...).
"""

from .checkpoint import load_checkpoint
from .dataset import define_case, load_bonn_root
from .ensemble import predict_instance
from .network import init_parameters, model_config, parameter_shapes
from .windowing import get_scheme, segment_testing

__version__ = "0.1.0"
