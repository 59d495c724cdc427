"""Pyramidal 1D-CNN ensemble for EEG epilepsy detection.

From-scratch strided convolutions, batch normalization, Adam and
backpropagation; window-based data augmentation; majority-vote ensemble
inference; and a stratified cross-validation experiment battery.
"""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .dataset import (
    BONN_ALIASES,
    BONN_RECORD_LENGTH,
    SET_LETTERS,
    BandSpec,
    EegRecord,
    ExperimentCase,
    FoldPlan,
    define_case,
    ids_by_set,
    load_bonn_root,
    load_bonn_set,
    load_record,
    plan_folds,
    read_samples,
    save_record,
    synthesize_dataset,
    write_bonn_dataset,
)
from .ensemble import VoteRecord, classify, majority_vote, predict_instance
from .evaluation import (
    BATTERY_CASES,
    BatteryReport,
    FoldResult,
    MetricsReport,
    MetricsValues,
    compute_metrics,
    emit_battery,
    emit_battery_comparison,
    emit_report,
    run_battery,
    run_cv,
)
from .network import (
    MODEL_GRID,
    MODEL_NAMES,
    ModelConfig,
    ModelVariant,
    NetworkParameters,
    backward,
    count_parameters,
    forward,
    init_parameters,
    model_config,
    parameter_shapes,
)
from .training import (
    AdamState,
    EpochStats,
    TrainingConfig,
    adam_step,
    init_adam_state,
    train,
    write_history_csv,
)
from .windowing import (
    SCHEME_1,
    SCHEME_2,
    SchemeSpec,
    TestInstance,
    WindowSet,
    augment_training,
    count_windows,
    get_scheme,
    normalize,
    segment_signal,
    segment_testing,
)

__version__ = "0.1.0"
