"""Metrics, confusion matrices, cross-validation, and the 16-case battery."""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import write_atomic
from .dataset import EegRecord, ExperimentCase, FoldPlan, define_case, ids_by_set, plan_folds
from .ensemble import classify
from .network import ModelConfig, NetworkParameters
from .training import TrainingConfig, train
from .windowing import SchemeSpec, augment_training, segment_testing

# Window accuracy, voted accuracy, then the rates compute_metrics derives
# from a confusion matrix; every report lists them in this order.
METRIC_KEYS = ("acc", "acc_v", "sen", "spe", "precision", "f_m", "g_m")
_RATE_KEYS = METRIC_KEYS[2:]

# The 16 benchmark set combinations, in their conventional order, with the
# reference ensemble accuracies (percent) embedded into the battery
# comparison file's paper_acc column for side-by-side display.
REFERENCE_ACC_V = {
    "AB-CD-E": 99.1,
    "AB-CD": 99.9,
    "AB-E": 99.8,
    "A-E": 100.0,
    "B-E": 99.8,
    "CD-E": 99.7,
    "C-E": 99.1,
    "D-E": 99.4,
    "BCD-E": 99.3,
    "BC-E": 99.5,
    "BD-E": 99.6,
    "AC-E": 99.7,
    "ABCD-E": 99.7,
    "AB-CDE": 99.5,
    "ABC-E": 99.97,
    "ACD-E": 99.8,
}
BATTERY_CASES = tuple(REFERENCE_ACC_V)


def _safe_ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def _one_vs_rest_rates(cm: np.ndarray, positive: int) -> tuple[float | None, ...]:
    """The rates of one class against the rest, in ``_RATE_KEYS`` order."""
    tp = float(cm[positive, positive])
    fn = float(cm[positive].sum() - tp)
    fp = float(cm[:, positive].sum() - tp)
    tn = float(cm.sum() - tp - fn - fp)
    sen = _safe_ratio(tp, tp + fn)
    spe = _safe_ratio(tn, tn + fp)
    precision = _safe_ratio(tp, tp + fp)
    if sen is None or precision is None or precision + sen == 0:
        f_m = None
    else:
        f_m = 2.0 * precision * sen / (precision + sen)
    g_m = None if sen is None or spe is None else math.sqrt(spe * sen)
    return sen, spe, precision, f_m, g_m


def compute_metrics(cm: np.ndarray) -> dict[str, float | None]:
    """Accuracy, sensitivity, specificity, precision, F-measure, G-mean,
    keyed ``acc`` and the rate keys of ``METRIC_KEYS``, in that order.

    Binary matrices read TP/TN/FP/FN against the last class, the seizure
    side of every benchmark case. Three or more classes are scored
    one-vs-rest per class and macro-averaged; accuracy is always trace/total.
    Zero denominators leave a metric undefined (None) rather than coerced
    to 0.
    """
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] < 2:
        raise ValueError(f"expected a square confusion matrix, got shape {cm.shape}")
    if np.any(cm < 0):
        raise ValueError("confusion matrix counts must be nonnegative")
    total = float(cm.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty")
    acc = float(cm.trace()) / total
    num_classes = cm.shape[0]
    if num_classes == 2:
        rates = _one_vs_rest_rates(cm, 1)
    else:
        per_class = [_one_vs_rest_rates(cm, c) for c in range(num_classes)]
        rates = tuple(
            None if None in column else float(np.mean(column)) for column in zip(*per_class)
        )
    return {"acc": acc, **dict(zip(_RATE_KEYS, rates))}


@dataclass
class FoldResult:
    """Window- and instance-level scores of one cross-validation fold;
    ``metrics`` is keyed by ``METRIC_KEYS``, in that order."""

    fold: int
    metrics: dict[str, float | None]
    ties: int
    confusion: np.ndarray
    params: NetworkParameters | None = field(default=None, repr=False, compare=False)

    @property
    def undefined(self) -> tuple[str, ...]:
        """The metric keys whose value is undefined (None)."""
        return tuple(key for key, value in self.metrics.items() if value is None)


@dataclass
class MetricsReport:
    """Per-fold and aggregate metrics of one cross-validation run.

    ``runtime_seconds`` is informational only and never serialized, so
    reports from identical runs are byte-identical.
    """

    case: str
    scheme_id: int
    model: str
    folds: list[FoldResult]
    mean: dict[str, float | None]
    std: dict[str, float | None]
    mean_confusion: np.ndarray
    ties_total: int
    settings: dict[str, object]
    runtime_seconds: float = 0.0


def _aggregate(folds: Sequence[FoldResult]) -> tuple[dict[str, float | None], dict[str, float | None]]:
    mean: dict[str, float | None] = {}
    std: dict[str, float | None] = {}
    for key in METRIC_KEYS:
        values = [f.metrics[key] for f in folds]
        defined = [v for v in values if v is not None]
        if defined:
            mean[key] = float(np.mean(defined))
            std[key] = float(np.std(defined))
        else:
            mean[key] = None
            std[key] = None
    return mean, std


def _settings_echo(
    model_config: ModelConfig, training_config: TrainingConfig, fold_plan: FoldPlan
) -> dict[str, object]:
    # Training always shuffles and weights every class equally; the report
    # still states both.
    return {
        **asdict(model_config),
        **asdict(training_config),
        "shuffle": True,
        "balance_classes": False,
        "folds": fold_plan.k,
        "fold_seed": fold_plan.seed,
    }


def _run_fold(args: tuple) -> FoldResult:
    (
        fold,
        case,
        scheme,
        model_config,
        training_config,
        fold_plan,
        by_set,
        keep_params,
    ) = args
    train_records: list[EegRecord] = []
    test_records: list[EegRecord] = []
    for letter in sorted(case.class_of_set):
        test_ids = set(fold_plan.test_ids(letter, fold))
        train_ids = set(fold_plan.train_ids(letter, fold))
        overlap = sorted(test_ids & train_ids)
        if overlap:
            raise ValueError(
                f"fold {fold}: records {letter}{overlap} appear in both the "
                f"train and test pools"
            )
        records = by_set[letter]
        test_records.extend(records[i] for i in sorted(test_ids))
        train_records.extend(records[i] for i in sorted(train_ids))

    training_set = augment_training(train_records, case, scheme)
    fold_config = replace(training_config, seed=training_config.seed + fold)
    params, _ = train(model_config, training_set, fold_config)

    instances = [
        instance for record in test_records for instance in segment_testing(record, case, scheme)
    ]
    votes = classify(params, model_config, np.stack([inst.windows for inst in instances]))
    cm = np.zeros((case.num_classes, case.num_classes), dtype=np.int64)
    window_correct = 0
    for inst, vote in zip(instances, votes):
        cm[inst.label, vote.final] += 1
        window_correct += vote.votes.count(inst.label)
    window_acc = window_correct / (len(instances) * scheme.ensemble_width)
    # compute_metrics scores the voted instances, so its accuracy is acc_v
    voted = compute_metrics(cm).values()
    return FoldResult(
        fold=fold + 1,
        metrics=dict(zip(METRIC_KEYS, (window_acc, *voted))),
        ties=sum(vote.tie_broken for vote in votes),
        confusion=cm,
        params=params if keep_params else None,
    )


def _model_label(config: ModelConfig) -> str:
    """The report's model name when none is given, e.g. ``pyramid-fc20``."""
    return f"{config.family}-fc{config.fc1_width}"


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def run_cv(
    records: Iterable[EegRecord],
    case: ExperimentCase,
    scheme: SchemeSpec,
    model_config: ModelConfig,
    training_config: TrainingConfig,
    fold_plan: FoldPlan,
    jobs: int = 1,
    keep_params: bool = False,
    model_name: str | None = None,
) -> MetricsReport:
    """Train and score one model per fold; report per-fold and mean metrics.

    Window accuracy (acc) counts every individual test window; voted accuracy
    (acc_v) and the confusion matrix count 1024-sample test instances, four
    per record. Fold f tests on fold_plan's group f of every set; the other
    groups train. Fold training seeds are training_config.seed + fold. Folds
    run in ``jobs`` processes (serially at 1).
    """
    start = time.perf_counter()
    _check_jobs(jobs)
    if model_config.num_classes != case.num_classes:
        raise ValueError(
            f"model has {model_config.num_classes} classes, case {case.name} "
            f"has {case.num_classes}"
        )
    by_set: dict[str, dict[int, EegRecord]] = {}
    for record in records:
        if record.set_label in case.class_of_set:
            by_set.setdefault(record.set_label, {})[record.index] = record
    for letter in sorted(case.class_of_set):
        if letter not in fold_plan.assignments:
            raise ValueError(f"fold plan has no assignments for set {letter}")
        planned = {i for chunk in fold_plan.assignments[letter] for i in chunk}
        missing = sorted(planned - set(by_set.get(letter, {})))
        if missing:
            raise ValueError(
                f"fold plan references records absent from the dataset: "
                f"{letter}{missing[:5]}"
            )
    fold_args = [
        (
            fold,
            case,
            scheme,
            model_config,
            training_config,
            fold_plan,
            by_set,
            keep_params,
        )
        for fold in range(fold_plan.k)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(_run_fold, fold_args))
    else:
        folds = [_run_fold(args) for args in fold_args]
    mean, std = _aggregate(folds)
    mean_confusion = np.mean([f.confusion for f in folds], axis=0)
    return MetricsReport(
        case=case.name,
        scheme_id=scheme.id,
        model=model_name or _model_label(model_config),
        folds=folds,
        mean=mean,
        std=std,
        mean_confusion=mean_confusion,
        ties_total=sum(f.ties for f in folds),
        settings=_settings_echo(model_config, training_config, fold_plan),
        runtime_seconds=time.perf_counter() - start,
    )


@dataclass
class BatteryRow:
    case: str
    mean_acc: float
    mean_acc_v: float
    reference_acc_v: float | None


@dataclass
class BatteryReport:
    """One cross-validation run per benchmark case, same model family and seed."""

    scheme_id: int
    model: str
    seed: int
    k: int
    rows: list[BatteryRow]


def run_battery(
    records: Sequence[EegRecord],
    scheme: SchemeSpec,
    model_template: ModelConfig,
    training_config: TrainingConfig,
    k: int = 10,
    cases: Sequence[str] = BATTERY_CASES,
    jobs: int = 1,
    model_name: str | None = None,
) -> BatteryReport:
    """Run run_cv over every case spec, reusing one fold plan for all sets.

    The model template's class count is re-derived per case; everything else
    (kernels, widths, dropout) is shared. Deterministic for fixed seeds.
    """
    _check_jobs(jobs)
    plan = plan_folds(ids_by_set(records), k=k, seed=training_config.seed)
    rows: list[BatteryRow] = []
    for spec in cases:
        case = define_case(spec)
        config = replace(model_template, num_classes=case.num_classes)
        report = run_cv(
            records,
            case,
            scheme,
            config,
            training_config,
            plan,
            jobs=jobs,
            model_name=model_name,
        )
        rows.append(
            BatteryRow(
                case=case.name,
                mean_acc=report.mean["acc"],
                mean_acc_v=report.mean["acc_v"],
                reference_acc_v=REFERENCE_ACC_V.get(case.name),
            )
        )
    return BatteryReport(
        scheme_id=scheme.id,
        model=model_name or _model_label(model_template),
        seed=training_config.seed,
        k=k,
        rows=rows,
    )


REPORT_CSV_HEADER = ",".join(("case", "scheme", "model", "fold", *METRIC_KEYS, "ties"))


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def _report_row(
    report: MetricsReport, fold: str, metrics: dict[str, float | None], ties: int
) -> str:
    cells = [report.case, str(report.scheme_id), report.model, fold]
    cells += [_cell(metrics[key]) for key in METRIC_KEYS]
    cells.append(str(ties))
    return ",".join(cells)


def report_to_dict(report: MetricsReport) -> dict:
    """JSON-ready view of a report; runtime is intentionally omitted."""
    return {
        "case": report.case,
        "scheme": report.scheme_id,
        "model": report.model,
        "settings": report.settings,
        "folds": [
            {
                "fold": fold.fold,
                **fold.metrics,
                "ties": fold.ties,
                "undefined": list(fold.undefined),
                "confusion": fold.confusion.tolist(),
            }
            for fold in report.folds
        ],
        "mean": dict(report.mean),
        "std": dict(report.std),
        "mean_confusion": report.mean_confusion.tolist(),
        "ties_total": report.ties_total,
    }


def emit_report(report: MetricsReport, path: str | Path, fmt: str = "csv") -> Path:
    """Write a cross-validation report as CSV or structured JSON text.

    The CSV carries one row per fold plus a mean row; the JSON round-trips
    every numeric field exactly.
    """
    if fmt == "csv":
        lines = [REPORT_CSV_HEADER]
        for fold in report.folds:
            lines.append(_report_row(report, str(fold.fold), fold.metrics, fold.ties))
        if report.folds:
            lines.append(_report_row(report, "mean", report.mean, report.ties_total))
        return write_atomic(path, "\n".join(lines) + "\n")
    if fmt == "json":
        return write_atomic(path, json.dumps(report_to_dict(report), indent=2) + "\n")
    raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


BATTERY_CSV_HEADER = "case,scheme,model,mean_acc,mean_acc_v"


def emit_battery(report: BatteryReport, path: str | Path, fmt: str = "csv") -> Path:
    """Write the battery summary (one row per case)."""
    if fmt == "csv":
        lines = [BATTERY_CSV_HEADER]
        for row in report.rows:
            lines.append(
                ",".join(
                    [
                        row.case,
                        str(report.scheme_id),
                        report.model,
                        _cell(row.mean_acc),
                        _cell(row.mean_acc_v),
                    ]
                )
            )
        return write_atomic(path, "\n".join(lines) + "\n")
    if fmt == "json":
        payload = {
            "scheme": report.scheme_id,
            "model": report.model,
            "seed": report.seed,
            "folds": report.k,
            "rows": [
                {
                    "case": row.case,
                    "mean_acc": row.mean_acc,
                    "mean_acc_v": row.mean_acc_v,
                    "paper_acc": row.reference_acc_v,
                }
                for row in report.rows
            ],
        }
        return write_atomic(path, json.dumps(payload, indent=2) + "\n")
    raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


def emit_battery_comparison(report: BatteryReport, path: str | Path) -> Path:
    """Side-by-side file: case,paper_acc,our_acc (both in percent)."""
    lines = ["case,paper_acc,our_acc"]
    for row in report.rows:
        reference = "" if row.reference_acc_v is None else repr(float(row.reference_acc_v))
        ours = repr(round(100.0 * row.mean_acc_v, 4))
        lines.append(f"{row.case},{reference},{ours}")
    return write_atomic(path, "\n".join(lines) + "\n")
