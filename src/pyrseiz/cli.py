"""Command line for the full pipeline: params, synth, train, cv, battery, predict."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

# One BLAS thread unless the user chose a count. A second OpenBLAS thread
# busy-waits between the small GEMMs of a training step: it doubles the CPU
# for no gain in wall time, and forked --jobs workers would each inherit it.
# The count is read when numpy loads, so it is set here, before the imports
# below load numpy, and only if nothing has loaded it yet.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(THREAD_VARIABLES, "1"))

from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import (
    BONN_RECORD_LENGTH,
    MIN_RECORD_LENGTH,
    SET_LETTERS,
    SYNTH_NOISE_LEVEL,
    BandSpec,
    EegRecord,
    ExperimentCase,
    define_case,
    ids_by_set,
    load_bonn_root,
    plan_folds,
    read_samples,
    synthesize_dataset,
    write_bonn_dataset,
)
from .ensemble import classify, write_vote_log
from .evaluation import (
    RunSpec,
    emit_battery,
    emit_battery_comparison,
    emit_report,
    run_battery,
    run_cv,
)
from .network import MODEL_GRID, MODEL_NAMES, count_parameters, model_config
from .training import TrainingConfig, train, write_history_csv
from .windowing import _SCHEMES, augment_training, get_scheme, segment_signal

DATA_ENV_VAR = "PYRSEIZ_DATA"

# Well-separated default bands (Hz) for synthetic classes, low to high.
SYNTH_BANDS = (
    (2.0, 4.0),
    (8.0, 12.0),
    (20.0, 30.0),
    (35.0, 45.0),
    (55.0, 65.0),
)


def _run(
    args: argparse.Namespace, case: ExperimentCase | None = None
) -> tuple[RunSpec, list[EegRecord]]:
    """The run the model, training and scheme options describe, and the
    records it reads from the dataset root; without a case, the battery's
    template (two classes until ``for_case``) and every set. A run of no
    epochs would report the untrained initial weights as a result, so the
    command line asks for at least one. Bad training options are named by
    their flags."""
    if args.epochs < 1:
        raise ValueError(f"--epochs must be >= 1, got {args.epochs}")
    if args.batch < 1:
        raise ValueError(f"--batch must be >= 1, got {args.batch}")
    if args.lr <= 0:
        raise ValueError(f"--lr must be positive, got {args.lr}")
    model = model_config(
        args.model, 2 if case is None else case.num_classes, dropout_rate=args.dropout
    )
    training = TrainingConfig(
        learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs, seed=args.seed
    )
    spec = RunSpec(case, get_scheme(args.scheme), model, training, args.model)
    root = args.data_root or os.environ.get(DATA_ENV_VAR)
    if not root:
        raise ValueError(f"no dataset root: pass --data-root or set {DATA_ENV_VAR}")
    letters = SET_LETTERS if case is None else case.sets
    return spec, load_bonn_root(root, letters=letters, expected_length=args.record_length)


def _folds(args: argparse.Namespace, groups: dict[str, list[int]]) -> int:
    """``--folds``, which every set in ``groups`` (record ids by set letter)
    must have records enough for."""
    if args.folds < 2:
        raise ValueError(f"--folds must be >= 2, got {args.folds}")
    for letter, ids in sorted(groups.items()):
        if len(ids) < args.folds:
            raise ValueError(
                f"set {letter} has {len(ids)} records, fewer than --folds {args.folds}; "
                "lower --folds"
            )
    return args.folds


def cmd_params(args: argparse.Namespace) -> int:
    names = list(args.models)
    if args.all or not names:
        names = list(MODEL_NAMES)
    unknown = [n for n in names if n.upper() not in MODEL_GRID]
    if unknown:
        raise ValueError(
            f"unknown model name(s) {unknown}; valid names: {', '.join(MODEL_NAMES)}"
        )
    print(f"{'model':<6}{'family':<13}{'fc1':>4}{'dropout':>9}{'params(2)':>11}{'params(3)':>11}")
    for name in names:
        two, three = model_config(name, 2), model_config(name, 3)
        print(
            f"{name.upper():<6}{two.family:<13}{two.fc1_width:>4}"
            f"{two.dropout_rate:>9}{count_parameters(two):>11}{count_parameters(three):>11}"
        )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if not 2 <= args.classes <= len(SYNTH_BANDS):
        raise ValueError(f"--classes must be in [2, {len(SYNTH_BANDS)}]")
    if args.records < 1:
        raise ValueError(f"--records must be >= 1, got {args.records}")
    if args.length < MIN_RECORD_LENGTH:
        raise ValueError(f"--length must be >= {MIN_RECORD_LENGTH}, got {args.length}")
    profiles = [BandSpec(low, high) for low, high in SYNTH_BANDS[: args.classes]]
    records = synthesize_dataset(
        num_records_per_class=args.records,
        class_profiles=profiles,
        length=args.length,
        noise_level=args.noise,
        seed=args.seed,
    )
    out = Path(args.out)
    paths = write_bonn_dataset(records, out)
    print(f"wrote {len(paths)} records ({args.classes} classes) under {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    spec, records = _run(args, define_case(args.case))
    case, scheme = spec.case, spec.scheme
    training_set = augment_training(records, case, scheme)
    params, history = train(spec.model, training_set, spec.training)
    out = Path(args.out)
    stem = spec.stem("train")
    ckpt = out / f"{stem}.ckpt"
    hist = out / f"{stem}_history.csv"
    save_checkpoint(params, spec.model, ckpt, case=case.name, scheme=scheme.id)
    write_history_csv(history, hist)
    print(f"trained on {len(training_set)} windows; checkpoint {ckpt}, history {hist}")
    return 0


def cmd_cv(args: argparse.Namespace) -> int:
    spec, records = _run(args, define_case(args.case))
    case, scheme = spec.case, spec.scheme
    groups = ids_by_set(records)
    plan = plan_folds(groups, k=_folds(args, groups), seed=args.seed)
    report = run_cv(records, spec, plan, jobs=args.jobs)
    out = Path(args.out)
    stem = spec.stem("cv")
    report_path = emit_report(report, out / f"{stem}.{args.format}", fmt=args.format)
    for fold in report.folds:
        save_checkpoint(
            fold.params, spec.model, out / f"{stem}_fold{fold.fold}.ckpt",
            case=case.name, scheme=scheme.id,
        )
    mean_acc = report.mean["acc"]
    mean_acc_v = report.mean["acc_v"]
    print(
        f"{case.name} scheme {scheme.id} {spec.label}: "
        f"mean acc {mean_acc:.4f}, mean acc_v {mean_acc_v:.4f} "
        f"over {plan.k} folds; report {report_path}"
    )
    return 0


def cmd_battery(args: argparse.Namespace) -> int:
    template, records = _run(args)
    battery = run_battery(records, template, k=_folds(args, ids_by_set(records)), jobs=args.jobs)
    out = Path(args.out)
    stem = template.stem("battery")
    summary = emit_battery(battery, out / f"{stem}.{args.format}", fmt=args.format)
    comparison = emit_battery_comparison(battery, out / f"{stem}_comparison.csv")
    for row in battery.rows:
        print(f"{row.case:<10} acc_v {100 * row.mean_acc_v:7.3f}%")
    print(f"summary {summary}; comparison {comparison}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    params, config = checkpoint
    scheme = get_scheme(args.scheme or checkpoint.scheme or 1)
    if checkpoint.scheme not in (None, scheme.id):
        raise ValueError(
            f"checkpoint was trained with scheme {checkpoint.scheme}, not --scheme {scheme.id}"
        )
    case = define_case(args.case) if args.case else None
    if case is not None and case.num_classes != config.num_classes:
        raise ValueError(
            f"checkpoint has {config.num_classes} classes but case "
            f"{case.name} has {case.num_classes}"
        )
    if case is not None and checkpoint.case not in (None, case.name):
        raise ValueError(
            f"checkpoint was trained on case {checkpoint.case}, not --case {case.name}"
        )
    samples = read_samples(args.input, args.record_length)
    stem = Path(args.input).stem
    vote_records = []
    records = classify(params, segment_signal(samples, scheme))  # all instances at once
    for sub_index, record in enumerate(records):
        record = replace(record, origin=(stem, sub_index))
        vote_records.append(record)
        label = case.group_letters(record.final) if case is not None else str(record.final)
        votes_text = ",".join(
            case.group_letters(v) if case is not None else str(v) for v in record.votes
        )
        tie = " (tie broken)" if record.tie_broken else ""
        print(f"instance {sub_index}: votes [{votes_text}] -> {label}{tie}")
    if args.out:
        log_path = Path(args.out) / f"predict_{stem}_votes.csv"
        write_vote_log(vote_records, log_path)
        print(f"vote log {log_path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than a ``predict`` call's inference. Subcommand ``X`` runs
    ``cmd_X``, looked up when it is called. A flag that several subcommands
    take is declared once, in a parent parser they share."""
    training = TrainingConfig()
    length = argparse.ArgumentParser(add_help=False)
    length.add_argument(
        "--record-length",
        type=int,
        default=BONN_RECORD_LENGTH,
        help="expected samples per record file",
    )

    run = argparse.ArgumentParser(add_help=False, parents=[length])
    run.add_argument(
        "--data-root",
        default=None,
        help=f"dataset root directory (falls back to ${DATA_ENV_VAR})",
    )
    run.add_argument("--scheme", type=int, choices=tuple(_SCHEMES), default=1)
    run.add_argument("--model", type=str.upper, choices=MODEL_NAMES, default="M5")
    run.add_argument("--dropout", type=float, default=None, metavar="R")
    run.add_argument("--lr", type=float, default=training.learning_rate, metavar="R")
    run.add_argument("--batch", type=int, default=training.batch_size, metavar="N")
    run.add_argument("--epochs", type=int, default=training.epochs, metavar="N")

    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--case", required=True, metavar="SPEC")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--seed", type=int, default=training.seed, metavar="N")
    output.add_argument("--out", default="runs", metavar="DIR")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--folds", type=int, default=10, metavar="N")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="pyrseiz",
        description="Pyramidal 1D-CNN ensemble for EEG classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print the model parameter-count table")
    p.add_argument("models", nargs="*", metavar="MODEL")
    p.add_argument("--all", action="store_true", help="audit every model M1..M8")

    p = sub.add_parser("synth", parents=[output], help="write a synthetic Bonn-layout dataset")
    p.add_argument("--classes", type=int, default=3, metavar="N")
    p.add_argument("--records", type=int, default=20, metavar="N")
    p.add_argument("--length", type=int, default=BONN_RECORD_LENGTH, metavar="N")
    p.add_argument("--noise", type=float, default=SYNTH_NOISE_LEVEL, metavar="R")

    sub.add_parser("train", parents=[run, case, output],
                   help="train one model on the full dataset")
    sub.add_parser("cv", parents=[run, case, output, sweep],
                   help="k-fold cross-validation for one case")
    sub.add_parser("battery", parents=[run, output, sweep], help="run all 16 benchmark cases")

    p = sub.add_parser("predict", parents=[length], help="classify one record with a checkpoint")
    p.add_argument("--checkpoint", required=True, metavar="CKPT")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--scheme", type=int, choices=tuple(_SCHEMES), default=None,
                   help="windowing scheme (default: the checkpoint's, else 1)")
    p.add_argument("--case", default=None, metavar="SPEC",
                   help="optional case spec used to label the vote output; "
                        "must match the checkpoint's")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="directory for the per-instance vote log CSV")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
