"""Command line for the full pipeline: params, synth, train, cv, battery, predict."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .blas import pin_one_thread

# One BLAS thread unless the user chose a count. Called before the imports
# below load numpy, it sets the thread variables if nothing has loaded numpy
# yet; otherwise it sets the loaded OpenBLAS's count.
pin_one_thread()

from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import (
    BONN_RECORD_LENGTH,
    SET_LETTERS,
    SYNTH_NOISE_LEVEL,
    EegRecord,
    ExperimentCase,
    define_case,
    ids_by_set,
    load_bonn_root,
    plan_folds,
    read_samples,
    synth_profiles,
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
from .network import MODEL_NAMES, count_parameters, model_config
from .training import TrainingConfig, train, write_history_csv
from .windowing import _SCHEMES, augment_training, get_scheme, segment_signal

DATA_ENV_VAR = "PYRSEIZ_DATA"


def _run(
    args: argparse.Namespace, case: ExperimentCase | None = None
) -> tuple[RunSpec, list[EegRecord]]:
    """The run the model, training and scheme options describe, and the
    records it reads from the dataset root; without a case, the battery's
    template (two classes until ``for_case``) and every set. Each training
    flag's destination is its ``TrainingConfig`` field."""
    model = model_config(
        args.model, 2 if case is None else case.num_classes, dropout_rate=args.dropout_rate
    )
    training = TrainingConfig(**{f.name: getattr(args, f.name) for f in fields(TrainingConfig)})
    spec = RunSpec(case, get_scheme(args.scheme), model, training, args.model)
    root = args.data_root or os.environ.get(DATA_ENV_VAR)
    if not root:
        raise ValueError(f"no dataset root: pass --data-root or set {DATA_ENV_VAR}")
    letters = SET_LETTERS if case is None else case.sets
    return spec, load_bonn_root(root, letters=letters, expected_length=args.record_length)


def cmd_params(args: argparse.Namespace) -> int:
    names = list(args.models)
    if args.all or not names:
        names = list(MODEL_NAMES)
    # every name resolves before anything prints
    rows = [(name.upper(), model_config(name, 2), model_config(name, 3)) for name in names]
    print(f"{'model':<6}{'family':<13}{'fc1':>4}{'dropout':>9}{'params(2)':>11}{'params(3)':>11}")
    for name, two, three in rows:
        print(
            f"{name:<6}{two.family:<13}{two.fc1_width:>4}"
            f"{two.dropout_rate:>9}{count_parameters(two):>11}{count_parameters(three):>11}"
        )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    records = synthesize_dataset(
        num_records_per_class=args.num_records_per_class,
        class_profiles=synth_profiles(args.num_classes),
        length=args.length,
        noise_level=args.noise_level,
        seed=args.seed,
    )
    out = Path(args.out)
    paths = write_bonn_dataset(records, out)
    print(f"wrote {len(paths)} records ({args.num_classes} classes) under {out}")
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
    plan = plan_folds(ids_by_set(records), k=args.k, seed=args.seed)
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
    battery = run_battery(records, template, k=args.k, jobs=args.jobs)
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
    take is declared once, in a parent parser they share. A flag whose value
    a library call checks takes that call's parameter name as its ``dest``,
    so ``main`` can name the flag in the library's error."""
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
    run.add_argument("--dropout", dest="dropout_rate", type=float, default=None, metavar="R")
    run.add_argument("--lr", dest="learning_rate", type=float, default=training.learning_rate,
                     metavar="R")
    run.add_argument("--batch", dest="batch_size", type=int, default=training.batch_size,
                     metavar="N")
    run.add_argument("--epochs", type=int, default=training.epochs, metavar="N")

    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--case", required=True, metavar="SPEC")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--seed", type=int, default=training.seed, metavar="N")
    output.add_argument("--out", default="runs", metavar="DIR")

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--folds", dest="k", type=int, default=10, metavar="N")
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
    p.add_argument("--classes", dest="num_classes", type=int, default=3, metavar="N")
    p.add_argument("--records", dest="num_records_per_class", type=int, default=20, metavar="N")
    p.add_argument("--length", type=int, default=BONN_RECORD_LENGTH, metavar="N")
    p.add_argument("--noise", dest="noise_level", type=float, default=SYNTH_NOISE_LEVEL,
                   metavar="R")

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


def _in_flag_terms(exc: ValueError | OSError, command: str) -> str:
    """The message of ``exc``, with a leading ``<dest> must`` of a ValueError
    renamed to the flag of ``command`` that stores into ``dest``."""
    message = str(exc)
    dest, must, rule = message.partition(" must ")
    if isinstance(exc, ValueError) and must:
        (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for action in sub.choices[command]._actions:
            if action.dest == dest and action.option_strings:
                return f"{action.option_strings[0]}{must}{rule}"
    return message


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        print(f"error: {_in_flag_terms(exc, args.command)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
