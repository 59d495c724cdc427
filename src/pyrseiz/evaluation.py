"""Metrics, confusion matrices, cross-validation, and the 16-case battery."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .artifacts import write_atomic
from .blas import pin_one_thread
from .dataset import EegRecord, ExperimentCase, FoldPlan, define_case, ids_by_set, plan_folds
from .ensemble import classify
from .network import ModelConfig, NetworkParameters
from .training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TrainingConfig, train
from .windowing import SchemeSpec, augment_training, count_instances, segment_testing

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

    Binary matrices read TP/TN/FP/FN against the last class, the case's
    last group. In every binary benchmark case but AB-CD that group holds
    set E, the seizure records; in AB-CD it is CD, which is interictal.
    Three or more classes are scored one-vs-rest per class and
    macro-averaged; accuracy is always trace/total. Zero denominators leave
    a metric undefined (None) rather than coerced to 0.
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
    """Window- and instance-level scores of one cross-validation fold and the
    parameters it trained; ``metrics`` is keyed by ``METRIC_KEYS``, in that
    order."""

    fold: int
    metrics: dict[str, float | None]
    ties: int
    confusion: np.ndarray
    params: NetworkParameters = field(repr=False, compare=False)

    @property
    def undefined(self) -> tuple[str, ...]:
        """The metric keys whose value is undefined (None)."""
        return tuple(key for key, value in self.metrics.items() if value is None)


@dataclass
class MetricsReport:
    """Per-fold and aggregate metrics of one cross-validation run."""

    case: str
    scheme_id: int
    model: str
    folds: list[FoldResult]
    mean: dict[str, float | None]
    std: dict[str, float | None]
    mean_confusion: np.ndarray
    ties_total: int
    settings: dict[str, object]


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


@dataclass(frozen=True)
class RunSpec:
    """What one run is: the case, windowing scheme, model and training
    settings, and the model name reports and file names carry.

    ``case`` is None in a battery template; ``for_case`` derives each case's
    spec from it.
    """

    case: ExperimentCase | None
    scheme: SchemeSpec
    model: ModelConfig
    training: TrainingConfig
    model_name: str | None = None

    def __post_init__(self) -> None:
        if self.case is not None:
            self.case.must_name(self.model.num_classes)

    @property
    def label(self) -> str:
        """The model name, else e.g. ``pyramid-fc20``."""
        return self.model_name or f"{self.model.family}-fc{self.model.fc1_width}"

    def for_case(self, case: ExperimentCase) -> RunSpec:
        """This spec on ``case``, with the model's class count re-derived."""
        return replace(self, case=case, model=replace(self.model, num_classes=case.num_classes))

    def settings(self, plan: FoldPlan) -> dict[str, object]:
        """The settings a JSON report echoes. Training always shuffles, weights
        every class equally and uses Adam's constants; the report states them."""
        training = asdict(self.training)
        return {
            **asdict(self.model),
            "learning_rate": training.pop("learning_rate"),
            "beta1": ADAM_BETA1,
            "beta2": ADAM_BETA2,
            "eps": ADAM_EPS,
            **training,
            "shuffle": True,
            "balance_classes": False,
            "folds": plan.k,
            "fold_seed": plan.seed,
        }

    def stem(self, kind: str) -> str:
        """The artifact file-name stem, e.g. ``cv_A-E_scheme1_M5_seed0``."""
        case = "" if self.case is None else f"_{self.case.name}"
        return f"{kind}{case}_scheme{self.scheme.id}_{self.label}_seed{self.training.seed}"


def _run_fold(
    fold: int,
    spec: RunSpec,
    plan: FoldPlan,
    by_set: dict[str, dict[int, EegRecord]],
) -> FoldResult:
    case, scheme = spec.case, spec.scheme
    train_records: list[EegRecord] = []
    test_records: list[EegRecord] = []
    for letter in sorted(case.class_of_set):
        records = by_set[letter]
        test_records.extend(records[i] for i in sorted(plan.test_ids(letter, fold)))
        train_records.extend(records[i] for i in sorted(plan.train_ids(letter, fold)))

    training_set = augment_training(train_records, case, scheme)
    fold_config = replace(spec.training, seed=spec.training.seed + fold)
    params, _ = train(spec.model, training_set, fold_config)
    del training_set

    # one record at a time, so the test side never holds more than one
    # record's windows
    cm = np.zeros((case.num_classes, case.num_classes), dtype=np.int64)
    window_correct = ties = 0
    for record in test_records:
        instances = segment_testing(record, case, scheme)
        votes = classify(params, np.stack([inst.windows for inst in instances]))
        for inst, vote in zip(instances, votes):
            cm[inst.label, vote.final] += 1
            window_correct += vote.votes.count(inst.label)
            ties += vote.tie_broken
    # compute_metrics scores the voted instances, so its accuracy is acc_v
    voted = compute_metrics(cm).values()
    # the confusion matrix counts each test instance once
    window_acc = window_correct / (int(cm.sum()) * scheme.ensemble_width)
    return FoldResult(
        fold=fold + 1,
        metrics=dict(zip(METRIC_KEYS, (window_acc, *voted))),
        ties=ties,
        confusion=cm,
        params=params,
    )


def run_cv(
    records: Iterable[EegRecord],
    spec: RunSpec,
    plan: FoldPlan,
    jobs: int = 1,
) -> MetricsReport:
    """Train and score one model per fold of ``spec.case``; report per-fold
    and mean metrics.

    Window accuracy (acc) counts every individual test window; voted accuracy
    (acc_v) and the confusion matrix count 1024-sample test instances, four
    per record. Fold f tests on the plan's group f of every set; the other
    groups train. Fold training seeds are spec.training.seed + fold, and
    each fold keeps the parameters it trained. Folds run in ``jobs``
    processes (serially at 1); each worker process runs one BLAS thread
    unless the user set a thread variable (``blas.pin_one_thread``), while a
    serial run keeps the caller's count. Every record of the case must hold
    a test instance; that is checked before any fold trains.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    case = spec.case
    if case is None:
        raise ValueError("run_cv needs a spec with a case; derive one with RunSpec.for_case")
    by_set: dict[str, dict[int, EegRecord]] = {}
    for record in records:
        if record.set_label in case.class_of_set:
            by_set.setdefault(record.set_label, {})[record.index] = record
    for letter in sorted(case.class_of_set):
        if letter not in plan.assignments:
            raise ValueError(f"fold plan has no assignments for set {letter}")
        planned = {i for chunk in plan.assignments[letter] for i in chunk}
        missing = sorted(planned - set(by_set.get(letter, {})))
        if missing:
            raise ValueError(
                f"fold plan references records absent from the dataset: "
                f"{letter}{missing[:5]}"
            )
        for record in by_set.get(letter, {}).values():
            count_instances(len(record), spec.scheme, f"record {record.record_id}")
    fold_args = (range(plan.k), repeat(spec), repeat(plan), repeat(by_set))
    if jobs > 1:
        # imported here so that no serial run, predict included, loads
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=pin_one_thread) as pool:
            folds = list(pool.map(_run_fold, *fold_args))
    else:
        folds = list(map(_run_fold, *fold_args))
    mean, std = _aggregate(folds)
    mean_confusion = np.mean([f.confusion for f in folds], axis=0)
    return MetricsReport(
        case=case.name,
        scheme_id=spec.scheme.id,
        model=spec.label,
        folds=folds,
        mean=mean,
        std=std,
        mean_confusion=mean_confusion,
        ties_total=sum(f.ties for f in folds),
        settings=spec.settings(plan),
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
    template: RunSpec,
    k: int,
    cases: Sequence[str] = BATTERY_CASES,
    jobs: int = 1,
) -> BatteryReport:
    """Run run_cv over every case spec, reusing one fold plan for all sets.

    Each case runs ``template.for_case``: the class count is re-derived per
    case, everything else (kernels, widths, dropout) is shared.
    Deterministic for fixed seeds.
    """
    plan = plan_folds(ids_by_set(records), k=k, seed=template.training.seed)
    rows: list[BatteryRow] = []
    for name in cases:
        report = run_cv(records, template.for_case(define_case(name)), plan, jobs=jobs)
        rows.append(
            BatteryRow(
                case=report.case,
                mean_acc=report.mean["acc"],
                mean_acc_v=report.mean["acc_v"],
                reference_acc_v=REFERENCE_ACC_V.get(report.case),
            )
        )
    return BatteryReport(
        scheme_id=template.scheme.id,
        model=template.label,
        seed=template.training.seed,
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
    """JSON-ready view of a report. It holds no timing, so the reports of
    identical runs are byte-identical."""
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


REPORT_FORMATS = ("csv", "json")


def report_format(fmt: str) -> str:
    """``fmt`` if reports can be written in it: the one check of a report
    format, which ``emit_report`` and ``emit_battery`` make."""
    if fmt not in REPORT_FORMATS:
        expected = " or ".join(repr(f) for f in REPORT_FORMATS)
        raise ValueError(f"unknown report format {fmt!r}; expected {expected}")
    return fmt


def emit_report(report: MetricsReport, path: str | Path, fmt: str = "csv") -> Path:
    """Write a cross-validation report as CSV or structured JSON text.

    The CSV carries one row per fold plus a mean row; the JSON round-trips
    every numeric field exactly.
    """
    if report_format(fmt) == "json":
        return write_atomic(path, json.dumps(report_to_dict(report), indent=2) + "\n")
    lines = [REPORT_CSV_HEADER]
    for fold in report.folds:
        lines.append(_report_row(report, str(fold.fold), fold.metrics, fold.ties))
    if report.folds:
        lines.append(_report_row(report, "mean", report.mean, report.ties_total))
    return write_atomic(path, "\n".join(lines) + "\n")


BATTERY_CSV_HEADER = "case,scheme,model,mean_acc,mean_acc_v"


def emit_battery(report: BatteryReport, path: str | Path, fmt: str = "csv") -> Path:
    """Write the battery summary (one row per case)."""
    if report_format(fmt) == "json":
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


def emit_battery_comparison(report: BatteryReport, path: str | Path) -> Path:
    """Side-by-side file: case,paper_acc,our_acc (both in percent)."""
    lines = ["case,paper_acc,our_acc"]
    for row in report.rows:
        reference = "" if row.reference_acc_v is None else repr(float(row.reference_acc_v))
        ours = repr(round(100.0 * row.mean_acc_v, 4))
        lines.append(f"{row.case},{reference},{ours}")
    return write_atomic(path, "\n".join(lines) + "\n")
