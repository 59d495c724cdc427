import argparse
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import save_checkpoint_v1
from pyrseiz import cli, evaluation
from pyrseiz.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pyrseiz.cli import main
from pyrseiz.dataset import (
    define_case,
    ids_by_set,
    load_bonn_root,
    plan_folds,
    synthesize_dataset,
)
from pyrseiz.ensemble import predict_instance
from pyrseiz.training import TrainingConfig
from pyrseiz.windowing import get_scheme, segment_testing

SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"

EXPECTED_TABLE3 = {21366, 21387, 41106, 41147, 8326, 8347, 14946, 14987}


def _synth(tmp_path, classes=2, records=4, seed=30):
    root = tmp_path / "data"
    rc = main(
        [
            "synth",
            "--classes", str(classes),
            "--records", str(records),
            "--seed", str(seed),
            "--out", str(root),
        ]
    )
    assert rc == 0
    return root


class TestParams:
    def test_all_prints_eight_grid_values(self, capsys):
        assert main(["params", "--all"]) == 0
        out = capsys.readouterr().out
        numbers = {int(tok) for tok in out.split() if tok.isdigit() and len(tok) > 3}
        assert numbers == EXPECTED_TABLE3

    def test_single_model(self, capsys):
        assert main(["params", "M5"]) == 0
        out = capsys.readouterr().out
        assert "8326" in out and "8347" in out

    @pytest.mark.parametrize("names", [["M9"], ["M5", "M9"]])
    def test_unknown_model_lists_valid_names_and_prints_no_table(self, capsys, names):
        assert main(["params", *names]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: unknown model 'M9'; valid names: M1, M2, M3, M4, M5, M6, M7, M8\n"
        )
        assert captured.out == ""


class TestSynth:
    def test_layout_and_determinism(self, tmp_path):
        root_a = _synth(tmp_path / "a", classes=3, records=2, seed=1)
        root_b = _synth(tmp_path / "b", classes=3, records=2, seed=1)
        files_a = sorted(p.relative_to(root_a) for p in root_a.rglob("*.txt"))
        files_b = sorted(p.relative_to(root_b) for p in root_b.rglob("*.txt"))
        assert files_a == files_b
        assert len(files_a) == 6
        assert {p.parts[0] for p in files_a} == {"A", "B", "C"}
        for rel in files_a:
            assert (root_a / rel).read_bytes() == (root_b / rel).read_bytes()

    def test_record_length(self, tmp_path):
        root = _synth(tmp_path, classes=2, records=1)
        sample = next(root.rglob("*.txt"))
        assert len(sample.read_text().splitlines()) == 4097


class TestTrain:
    def test_writes_checkpoint_and_history(self, tmp_path, capsys):
        root = _synth(tmp_path)
        out = tmp_path / "runs"
        rc = main(
            [
                "train",
                "--data-root", str(root),
                "--case", "A-B",
                "--model", "M5",
                "--epochs", "1",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        ckpt = out / "train_A-B_scheme1_M5_seed3.ckpt"
        history = out / "train_A-B_scheme1_M5_seed3_history.csv"
        assert ckpt.is_file() and history.is_file()
        assert history.read_text().splitlines()[0] == "epoch,loss,train_acc"

    def test_env_var_fallback_for_data_root(self, tmp_path, monkeypatch):
        root = _synth(tmp_path)
        monkeypatch.setenv("PYRSEIZ_DATA", str(root))
        out = tmp_path / "runs"
        rc = main(
            ["train", "--case", "A-B", "--epochs", "1", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0

    def test_missing_data_root(self, capsys, monkeypatch):
        monkeypatch.delenv("PYRSEIZ_DATA", raising=False)
        assert main(["train", "--case", "A-B", "--epochs", "1"]) == 1
        assert "PYRSEIZ_DATA" in capsys.readouterr().err


class TestCv:
    def test_report_and_fold_checkpoints(self, tmp_path, capsys):
        root = _synth(tmp_path)
        out = tmp_path / "runs"
        rc = main(
            [
                "cv",
                "--data-root", str(root),
                "--case", "A-B",
                "--model", "M5",
                "--folds", "2",
                "--epochs", "1",
                "--seed", "4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = out / "cv_A-B_scheme1_M5_seed4.csv"
        lines = report.read_text().splitlines()
        assert lines[0].startswith("case,scheme,model,fold")
        assert len(lines) == 1 + 2 + 1  # two folds plus the mean row
        assert (out / "cv_A-B_scheme1_M5_seed4_fold1.ckpt").is_file()
        assert (out / "cv_A-B_scheme1_M5_seed4_fold2.ckpt").is_file()
        assert "mean acc" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        root = _synth(tmp_path)
        out = tmp_path / "runs"
        rc = main(
            [
                "cv",
                "--data-root", str(root),
                "--case", "A-B",
                "--folds", "2",
                "--epochs", "1",
                "--seed", "4",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "cv_A-B_scheme1_M5_seed4.json").is_file()

    def test_leftover_atomic_temporary_changes_no_report(self, tmp_path):
        """A copy of A001 saved as a write_atomic temporary is not a fifth
        record: the cv report is byte-identical to the one without it."""
        root = _synth(tmp_path)
        reports = []
        for run in ("clean", "stray"):
            if run == "stray":
                (root / "A" / ".A001.txt.4242.tmp").write_text(
                    (root / "A" / "A001.txt").read_text()
                )
            out = tmp_path / run
            argv = ["cv", "--data-root", str(root), "--case", "A-B", "--folds", "2",
                    "--epochs", "1", "--seed", "4", "--format", "json", "--out", str(out)]
            assert main(argv) == 0
            reports.append((out / "cv_A-B_scheme1_M5_seed4.json").read_bytes())
        assert reports[0] == reports[1]

    def test_short_records_rejected_before_any_fold_trains(self, tmp_path, capsys, monkeypatch):
        """A record too short for one test instance would fail only once a
        fold had trained."""
        root = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--records", "4", "--length", "1000",
                     "--out", str(root)]) == 0
        capsys.readouterr()

        def untrainable(*args):
            raise AssertionError("a fold trained")

        monkeypatch.setattr(evaluation, "train", untrainable)
        out = tmp_path / "runs"
        assert main(["cv", "--data-root", str(root), "--record-length", "1000", "--case", "A-B",
                     "--folds", "2", "--epochs", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: record A001 of 1000 samples is shorter than one test instance (1024)\n"
        )
        assert captured.out == ""
        assert not out.exists()


    def test_failed_checkpoint_write_leaves_no_report(self, tmp_path, capsys, monkeypatch):
        """The report is written last, so it exists only beside every fold's
        checkpoint."""
        root = _synth(tmp_path)
        capsys.readouterr()
        calls = []

        def second_save_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("no space left on device")
            save_checkpoint(*args, **kwargs)

        monkeypatch.setattr(cli, "save_checkpoint", second_save_fails)
        out = tmp_path / "runs"
        assert main(["cv", "--data-root", str(root), "--case", "A-B", "--folds", "2",
                     "--epochs", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert list(out.glob("cv_*.csv")) == []

    def test_predict_on_each_folds_test_records_rebuilds_its_scores(self, tmp_path):
        """cv and predict score a record alike: each fold's saved checkpoint,
        run by predict on the fold's test records, gives vote logs that
        rebuild the fold's confusion matrix, accuracies and ties exactly."""
        root = _synth(tmp_path, classes=3, records=6)
        out, k, seed = tmp_path / "runs", 2, 4
        assert main(["cv", "--data-root", str(root), "--case", "A-B-C", "--folds", str(k),
                     "--epochs", "1", "--seed", str(seed), "--format", "json",
                     "--out", str(out)]) == 0
        stem = f"cv_A-B-C_scheme1_M5_seed{seed}"
        report = json.loads((out / f"{stem}.json").read_text())
        case, width = define_case("A-B-C"), get_scheme(1).ensemble_width
        records = load_bonn_root(root, letters=case.sets)
        record_ids = {(r.set_label, r.index): r.record_id for r in records}
        plan = plan_folds(ids_by_set(records), k, seed)
        assert [fold["fold"] for fold in report["folds"]] == [1, 2]
        for fold in report["folds"]:
            ckpt, logs = out / f"{stem}_fold{fold['fold']}.ckpt", tmp_path / f"votes{fold['fold']}"
            cm = np.zeros((3, 3), dtype=np.int64)
            correct = ties = 0
            for letter in case.sets:
                label = case.class_of_set[letter]
                for index in plan.test_ids(letter, fold["fold"] - 1):
                    record_id = record_ids[letter, index]
                    assert main(["predict", "--checkpoint", str(ckpt),
                                 "--input", str(root / letter / f"{record_id}.txt"),
                                 "--case", "A-B-C", "--scheme", "1", "--out", str(logs)]) == 0
                    rows = (logs / f"predict_{record_id}_votes.csv").read_text().splitlines()
                    for row in rows[1:]:
                        _, _, votes, final, tie_broken = row.split(",")
                        cm[label, int(final)] += 1
                        correct += votes.split().count(str(label))
                        ties += tie_broken == "true"
            assert cm.tolist() == fold["confusion"]
            assert correct / (int(cm.sum()) * width) == fold["acc"]
            assert float(cm.trace()) / float(cm.sum()) == fold["acc_v"]
            assert ties == fold["ties"]


class TestPredict:
    @staticmethod
    def _train(tmp_path, scheme):
        root = _synth(tmp_path, seed=8)
        out = tmp_path / "runs"
        main(
            [
                "train",
                "--data-root", str(root),
                "--case", "A-B",
                "--scheme", str(scheme),
                "--epochs", "1",
                "--seed", "8",
                "--out", str(out),
            ]
        )
        ckpt = out / f"train_A-B_scheme{scheme}_M5_seed8.ckpt"
        sample = next((root / "A").glob("*.txt"))
        return ckpt, sample

    @pytest.fixture
    def trained(self, tmp_path):
        return self._train(tmp_path, scheme=1)

    @staticmethod
    def _votes_per_instance(out):
        lines = [line for line in out.splitlines() if line.startswith("instance ")]
        return [len(line.split("[")[1].split("]")[0].split(",")) for line in lines]

    def test_scheme_defaults_to_the_checkpoint_scheme(self, tmp_path, capsys):
        ckpt, sample = self._train(tmp_path, scheme=2)
        assert main(["predict", "--checkpoint", str(ckpt), "--input", str(sample)]) == 0
        assert set(self._votes_per_instance(capsys.readouterr().out)) == {5}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scheme", "2"], "--scheme must be 1, the checkpoint's, got 2"),
            (["--case", "A-E"], "--case must be A-B, the checkpoint's, got A-E"),
            (["--case", "A-B-C"], "--case must name 2 classes, got A-B-C"),
            (["--scheme", "3"], "unknown scheme 3; expected 1 or 2"),
        ],
    )
    def test_contradicting_the_checkpoint_rejected(
        self, trained, capsys, tmp_path, flags, message
    ):
        ckpt, sample = trained
        out = tmp_path / "votes"
        argv = ["predict", "--checkpoint", str(ckpt), "--input", str(sample), "--out", str(out)]
        assert main([*argv, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_case_rejected_as_train_rejects_it(self, trained, capsys):
        ckpt, sample = trained
        argv = ["predict", "--checkpoint", str(ckpt), "--input", str(sample), "--case", ""]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: case spec '' needs at least two groups\n"

    def test_a_case_is_held_to_one_class_count_rule(self, trained, capsys, tmp_path):
        """The rule a header line's case breaks is the rule --case breaks."""
        ckpt, sample = trained
        rule = "must name 2 classes, got A-B-C"
        header = tmp_path / "header.ckpt"
        header.write_text(ckpt.read_text().replace("\ncase A-B\n", "\ncase A-B-C\n"))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(header)
        assert str(info.value).endswith(f"'case A-B-C': case {rule}")
        argv = ["predict", "--checkpoint", str(ckpt), "--input", str(sample), "--case", "A-B-C"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --case {rule}\n"

    def test_v1_checkpoint_carries_no_case_or_scheme(self, trained, capsys, tmp_path):
        ckpt, sample = trained
        params, config = load_checkpoint(ckpt)
        v1 = tmp_path / "v1.ckpt"
        save_checkpoint_v1(params, config, v1)
        flags = ["--scheme", "2", "--case", "A-E"]
        assert main(["predict", "--checkpoint", str(v1), "--input", str(sample), *flags]) == 0
        assert set(self._votes_per_instance(capsys.readouterr().out)) == {5}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_checkpoint_rejected(self, trained, capsys, tmp_path, bad):
        ckpt, sample = trained
        params, config = load_checkpoint(ckpt)
        params.tensors["fc2.weight"].flat[0] = bad
        broken = tmp_path / "broken.ckpt"
        save_checkpoint(params, config, broken, case="A-B", scheme=1)
        rc = main(["predict", "--checkpoint", str(broken), "--input", str(sample)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "instance" not in captured.out
        assert captured.err.count("\n") == 1
        assert "tensor fc2.weight has a non-finite" in captured.err

    def test_prints_four_instance_decisions_with_three_votes(self, trained, capsys):
        ckpt, sample = trained
        assert main(["predict", "--checkpoint", str(ckpt), "--input", str(sample)]) == 0
        # scheme 1 fuses three expert windows per instance
        assert self._votes_per_instance(capsys.readouterr().out) == [3, 3, 3, 3]

    def test_case_labels_and_vote_log(self, trained, capsys, tmp_path):
        ckpt, sample = trained
        log_dir = tmp_path / "votes"
        rc = main(
            [
                "predict",
                "--checkpoint", str(ckpt),
                "--input", str(sample),
                "--case", "A-B",
                "--out", str(log_dir),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "-> A" in out or "-> B" in out
        logs = list(log_dir.glob("predict_*_votes.csv"))
        assert len(logs) == 1
        assert logs[0].read_text().splitlines()[0] == (
            "record_id,subsignal_index,votes,final,tie_broken"
        )

    def test_non_finite_input_rejected(self, trained, capsys, tmp_path):
        ckpt, _ = trained
        bad = tmp_path / "all_nan.txt"
        bad.write_text("nan\n" * 4097)
        rc = main(["predict", "--checkpoint", str(ckpt), "--input", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "instance" not in captured.out
        assert f"{bad}:1: non-finite sample 'nan'" in captured.err

    def test_non_utf8_input_rejected(self, trained, capsys, tmp_path):
        ckpt, _ = trained
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"1.0\n\xff2.0\n")
        rc = main(["predict", "--checkpoint", str(ckpt), "--input", str(bad)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "instance" not in captured.out
        assert captured.err == f"error: {bad}: not a UTF-8 text sample file\n"

    @pytest.mark.parametrize("scheme", [1, 2])
    def test_vote_logs_equal_the_library_path(self, tmp_path, scheme):
        """For every record, the vote log of ``pyrseiz predict`` holds the
        rows of predict_instance over segment_testing, in the documented format."""
        ckpt, sample = self._train(tmp_path, scheme)
        params, config = load_checkpoint(ckpt)
        case, spec = define_case("A-B"), get_scheme(scheme)
        root, out = sample.parent.parent, tmp_path / "votes"
        records = load_bonn_root(root, letters=case.sets)
        assert len(records) == 8
        for record in records:
            path = root / record.set_label / f"{record.record_id}.txt"
            assert main(["predict", "--checkpoint", str(ckpt), "--input", str(path),
                         "--out", str(out)]) == 0
            rows = ["record_id,subsignal_index,votes,final,tie_broken"]
            for instance in segment_testing(record, case, spec):
                vote = predict_instance(params, config, instance, spec)
                votes = " ".join(str(v) for v in vote.votes)
                rows.append(f"{vote.origin[0]},{vote.origin[1]},{votes},{vote.final},"
                            f"{str(vote.tie_broken).lower()}")
            log = out / f"predict_{record.record_id}_votes.csv"
            assert log.read_text().splitlines() == rows

    @pytest.mark.parametrize("length, flags", [(3000, []), (4097, ["--record-length", "4096"])])
    def test_wrong_record_length_rejected(self, trained, capsys, tmp_path, length, flags):
        """A record of another length than --record-length (default 4097) fails
        with the loaders' message before any instance is printed or logged;
        before, a 3,000-sample file gave 2 instances and lost its last 952
        samples."""
        ckpt, sample = trained
        path = tmp_path / "record.txt"
        path.write_text("".join(f"{v}\n" for v in np.linspace(-1.0, 1.0, length)))
        log_dir = tmp_path / "votes"
        rc = main(["predict", "--checkpoint", str(ckpt), "--input", str(path),
                   "--out", str(log_dir), *flags])
        assert rc == 1
        captured = capsys.readouterr()
        expected = 4096 if flags else 4097
        assert captured.err == (
            f"error: {path}: wrong length, expected {expected} samples, found {length}\n"
        )
        assert captured.out == ""
        assert not log_dir.exists()

    def test_record_length_option_admits_its_length(self, trained, capsys, tmp_path):
        """With --record-length 3000 a 3,000-sample file is read: two instances
        of three windows each."""
        ckpt, _ = trained
        path = tmp_path / "record.txt"
        path.write_text("".join(f"{v}\n" for v in np.sin(np.arange(3000) / 7.0)))
        assert main(["predict", "--checkpoint", str(ckpt), "--input", str(path),
                     "--record-length", "3000"]) == 0
        assert self._votes_per_instance(capsys.readouterr().out) == [3, 3]

    def test_missing_checkpoint(self, capsys, tmp_path):
        rc = main(
            ["predict", "--checkpoint", str(tmp_path / "no.ckpt"), "--input", "x.txt"]
        )
        assert rc == 1


class TestBattery:
    def test_sixteen_rows_with_five_sets(self, tmp_path, capsys):
        root = _synth(tmp_path, classes=5, records=2, seed=12)
        out = tmp_path / "runs"
        rc = main(
            [
                "battery",
                "--data-root", str(root),
                "--model", "M5",
                "--folds", "2",
                "--epochs", "1",
                "--batch", "64",
                "--seed", "12",
                "--out", str(out),
            ]
        )
        assert rc == 0
        summary = out / "battery_scheme1_M5_seed12.csv"
        comparison = out / "battery_scheme1_M5_seed12_comparison.csv"
        assert len(summary.read_text().splitlines()) == 17
        comp_lines = comparison.read_text().splitlines()
        assert comp_lines[0] == "case,paper_acc,our_acc"
        assert len(comp_lines) == 17
        assert any(line.startswith("A-E,") for line in comp_lines)


# Each subcommand a flag reaches, the flag, a value the library rejects, and
# the error line's text: the library's rule, named by the flag. A message
# that states no rule of a flag passes through unrenamed.
TRAIN = ["train", "--case", "A-B"]
CV = ["cv", "--case", "A-B", "--folds", "2"]
BATTERY = ["battery", "--folds", "2"]
REJECTED_VALUES = [
    pytest.param(argv, flag, value, message, id=f"{argv[0]}{flag}={value}")
    for commands, flag, value, message in [
        ((TRAIN, CV, BATTERY), "--lr", "0", "--lr must be positive, got 0.0"),
        ((TRAIN, CV, BATTERY), "--lr", "nan", "--lr must be finite, got nan"),
        ((TRAIN,), "--lr", "inf", "--lr must be finite, got inf"),
        ((TRAIN,), "--lr", "1e400", "--lr must be finite, got inf"),
        ((TRAIN, CV, BATTERY), "--batch", "0", "--batch must be >= 1, got 0"),
        ((TRAIN, CV, BATTERY), "--epochs", "0", "--epochs must be >= 1, got 0"),
        ((TRAIN, CV, BATTERY), "--epochs", "-1", "--epochs must be >= 1, got -1"),
        ((TRAIN, CV, BATTERY), "--dropout", "1.5", "--dropout must be in [0, 1), got 1.5"),
        ((["synth"], TRAIN, CV, BATTERY), "--seed", "-1", "--seed must be >= 0, got -1"),
        ((CV, BATTERY), "--folds", "1", "--folds must be >= 2, got 1"),
        ((CV, BATTERY), "--folds", "3",
         "--folds must be at most 2, the number of records in set A, got 3"),
        ((CV, BATTERY), "--jobs", "0", "--jobs must be >= 1, got 0"),
        ((CV, BATTERY), "--jobs", "-2", "--jobs must be >= 1, got -2"),
        ((["synth"],), "--classes", "9", "--classes must be in [2, 5], got 9"),
        ((["synth"],), "--classes", "1", "--classes must be in [2, 5], got 1"),
        ((["synth"],), "--records", "0", "--records must be >= 1, got 0"),
        ((["synth"],), "--length", "100", "--length must be >= 512, got 100"),
        ((["synth"],), "--noise", "nan", "--noise must be finite and >= 0, got nan"),
        ((["synth"],), "--noise", "-1", "--noise must be finite and >= 0, got -1.0"),
        ((CV,), "--case", "Q-E", "unknown set letter 'Q' in case spec 'Q-E'"),
        ((TRAIN, CV, BATTERY), "--scheme", "3", "unknown scheme 3; expected 1 or 2"),
        ((TRAIN, CV, BATTERY), "--model", "m9",
         "unknown model 'M9'; valid names: M1, M2, M3, M4, M5, M6, M7, M8"),
        ((CV, BATTERY), "--format", "xml", "unknown report format 'xml'; expected 'csv' or 'json'"),
    ]
    for argv in commands
]


class TestOptionValues:
    @pytest.mark.parametrize(
        "command, artifact",
        [
            (["train"], "train_A-B_scheme1_M5_seed3.ckpt"),
            (["cv", "--folds", "2"], "cv_A-B_scheme1_M5_seed3.csv"),
        ],
    )
    def test_lowercase_model_name_runs_the_grid_model(self, tmp_path, command, artifact):
        """--model m5 writes byte for byte what --model M5 writes, under M5's name."""
        root = _synth(tmp_path)
        written = []
        for model in ("M5", "m5"):
            out = tmp_path / model
            assert main([*command, "--data-root", str(root), "--case", "A-B", "--model", model,
                         "--epochs", "1", "--seed", "3", "--out", str(out)]) == 0
            written.append((out / artifact).read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("argv, flag, value, message", REJECTED_VALUES)
    def test_bad_value_exits_1_with_one_line(self, tmp_path, capsys, argv, flag, value, message):
        """The library checks the value; the error line names the flag."""
        root = _synth(tmp_path, classes=5, records=2)
        capsys.readouterr()
        out = tmp_path / "runs"
        data = [] if argv == ["synth"] else ["--data-root", str(root), "--epochs", "1"]
        assert main([*argv, *data, flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()


class TestDispatch:
    @pytest.mark.parametrize(
        "handler, argv",
        [
            ("cmd_predict", ["predict", "--checkpoint", "no.ckpt", "--input", "x.txt"]),
            ("cmd_cv", ["cv", "--case", "A-B"]),
        ],
    )
    def test_handler_is_looked_up_at_call_time(self, monkeypatch, capsys, handler, argv):
        """A handler replaced after the parser exists still receives its
        subcommand, as the benchmark's timing wrappers need."""
        monkeypatch.delenv(cli.DATA_ENV_VAR, raising=False)
        assert main(["params", "M5"]) == 0
        original, calls = getattr(cli, handler), []

        def counting(args):
            calls.append(args.command)
            return original(args)

        monkeypatch.setattr(cli, handler, counting)
        assert main(argv) == 1  # the handler runs and reports the missing input
        assert calls == [argv[0]]
        assert capsys.readouterr().err.startswith("error: ")

    def test_two_calls_build_the_parser_once(self):
        cli.build_parser.cache_clear()
        assert main(["params", "M5"]) == 0
        assert main(["params", "M1"]) == 0
        assert cli.build_parser.cache_info().misses == 1


def _subparsers():
    """The subcommand parsers of the command line, by name."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# The flags of each parent parser, by destination.
RUN_FLAGS = {"data_root": "--data-root", "record_length": "--record-length", "scheme": "--scheme",
             "model": "--model", "dropout_rate": "--dropout", "learning_rate": "--lr",
             "batch_size": "--batch", "epochs": "--epochs"}
OUTPUT_FLAGS = {"seed": "--seed", "out": "--out"}
SWEEP_FLAGS = {"k": "--folds", "jobs": "--jobs", "format": "--format"}


class TestParser:
    def test_every_flag_is_in_the_readme_cli_reference(self):
        """README's CLI reference names every option string of every
        subcommand, as it would be typed."""
        section = README.read_text().split("## CLI reference\n", 1)[1].split("\n## ", 1)[0]
        flags = {
            flag
            for parser in _subparsers().values()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        assert {"--length", "--noise", "--all", "--checkpoint"} <= flags
        missing = sorted(f for f in flags if not re.search(f"`{re.escape(f)}[ `]", section))
        assert missing == []

    @pytest.mark.parametrize("run_output, sweep", [
        ([], []),
        (["--data-root", "d", "--record-length", "600", "--scheme", "2", "--model", "m7",
          "--dropout", "0.2", "--lr", "0.01", "--batch", "8", "--epochs", "3", "--seed", "4",
          "--out", "o"],
         ["--folds", "3", "--jobs", "2", "--format", "json"]),
    ])
    def test_shared_flags_parse_alike_in_every_subcommand(self, run_output, sweep):
        """train, cv and battery read the run, output and sweep flags from
        the same parent parsers, so the same arguments give the same values;
        train takes no sweep flag."""
        parse = cli.build_parser().parse_args
        train = vars(parse(["train", "--case", "A-E", *run_output]))
        cv = vars(parse(["cv", "--case", "A-E", *run_output, *sweep]))
        battery = vars(parse(["battery", *run_output, *sweep]))
        for dest in (*RUN_FLAGS, *OUTPUT_FLAGS):
            assert train[dest] == cv[dest] == battery[dest], dest
        for dest in SWEEP_FLAGS:
            assert cv[dest] == battery[dest], dest
        assert not set(SWEEP_FLAGS) & set(train)

    def test_unset_flags_take_the_librarys_defaults(self):
        """A run given no training flag trains with ``TrainingConfig``'s
        settings, and synth adds ``synthesize_dataset``'s default noise."""
        parse = cli.build_parser().parse_args
        args = parse(["cv", "--case", "A-E"])
        assert TrainingConfig(
            args.learning_rate, args.batch_size, args.epochs, args.seed
        ) == TrainingConfig()
        noise = inspect.signature(synthesize_dataset).parameters["noise_level"].default
        assert parse(["synth"]).noise_level == noise

    def test_each_parent_flag_is_one_declaration(self):
        """A shared flag is the same argparse action in every subcommand
        that takes it: declared once, in its parent parser."""
        subparsers = _subparsers()
        for flags, commands in ((RUN_FLAGS, ("train", "cv", "battery")),
                                (OUTPUT_FLAGS, ("synth", "train", "cv", "battery")),
                                (SWEEP_FLAGS, ("cv", "battery"))):
            for flag in flags.values():
                actions = {id(subparsers[c]._option_string_actions[flag]) for c in commands}
                assert len(actions) == 1, flag

    @pytest.mark.parametrize("command", ["params", "synth", "train", "cv", "battery", "predict"])
    def test_help_exits_0(self, command):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "pyrseiz", command, "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(f"usage: pyrseiz {command} ")


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "pyrseiz", "params", "M5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "8326" in result.stdout


def test_importing_the_command_line_loads_no_process_pool():
    """Only a cv or battery run with --jobs above 1 needs a process pool, so
    no process, predict included, pays for importing multiprocessing."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, pyrseiz.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python(args, **variables):
    """Run ``python ARGS`` with ``src`` on the path, none of the three
    thread variables set but ``variables``; its completed process."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_importing_the_package_loads_no_numpy():
    """The package namespace resolves its names on first use, so the
    command line can set the thread count before numpy loads."""
    probe = "import sys, pyrseiz; print('numpy' in sys.modules, pyrseiz.model_config('m5', 3))"
    out = _python(["-c", probe]).stdout
    assert out.startswith("False ModelConfig(")


@pytest.mark.parametrize("prelude, variables, expected", [
    ("", {}, ["1", "1", "1"]),
    ("", {"OMP_NUM_THREADS": "3"}, [None, "3", None]),
    ("", {"OPENBLAS_NUM_THREADS": ""}, ["", None, None]),
    ("import numpy; ", {}, [None, None, None]),
])
def test_command_line_runs_one_blas_thread_unless_told_otherwise(prelude, variables, expected):
    """Importing the command line sets the three variables to 1 when none
    is set and numpy is not loaded yet; a user's value, or a numpy loaded
    first, leaves all three alone."""
    probe = (f"{prelude}import os, pyrseiz.cli; "
             f"print([os.environ.get(v) for v in {THREAD_VARIABLES!r}])")
    assert _python(["-c", probe], **variables).stdout.strip() == repr(expected)


def test_one_blas_thread_default_matches_a_users_one_thread_setting(tmp_path):
    """The C6 cv run (3x30 records, A-B-C, M5, scheme 1, 5 folds, 2 epochs,
    seed 7) writes byte-identical reports and fold checkpoints under the
    command line's default, with no thread variable set, and with the user
    setting all three to 1 themselves, which the command line leaves alone."""
    data = _synth(tmp_path, classes=3, records=30, seed=7)
    argv = ["cv", "--data-root", str(data), "--case", "A-B-C", "--model", "M5", "--scheme", "1",
            "--folds", "5", "--epochs", "2", "--seed", "7"]
    outputs = []
    for name, variables in (("default", {}), ("user", dict.fromkeys(THREAD_VARIABLES, "1"))):
        out = tmp_path / name
        run = [*argv, "--out", str(out)]
        probe = f"import sys; from pyrseiz.cli import main; sys.exit(main({run!r}))"
        _python(["-c", probe], **variables)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 1 + 5 and outputs[0] == outputs[1]


# Prints the loaded OpenBLAS's thread count after numpy loads and after the
# command line is imported, then the three variables; or NO_OPENBLAS.
PIN_PROBE = """
import ctypes, os, numpy
from pyrseiz.blas import THREAD_VARIABLES, find_openblas
found = find_openblas()
if found is None:
    print("NO_OPENBLAS")
else:
    library, setter = found
    threads = getattr(library, setter.replace("_set_", "_get_"))
    threads.argtypes, threads.restype = (), ctypes.c_int
    started = threads()
    import pyrseiz.cli
    print(started, threads(), [os.environ.get(v) for v in THREAD_VARIABLES])
"""


@pytest.mark.parametrize("variables, one_thread, environment", [
    ({}, True, [None, None, None]),
    ({"OMP_NUM_THREADS": "3"}, False, [None, "3", None]),
])
def test_command_line_pins_one_blas_thread_after_numpy_loaded(variables, one_thread, environment):
    """Imported after numpy, the command line sets the loaded OpenBLAS's
    thread count to 1 and no variable; a user's variable leaves the count
    numpy started with."""
    out = _python(["-c", PIN_PROBE], **variables).stdout.split(maxsplit=2)
    if out == ["NO_OPENBLAS"]:
        pytest.skip("numpy loaded no OpenBLAS exporting a thread-count setter")
    started, threads, variables_seen = out
    assert threads == ("1" if one_thread else started)
    assert variables_seen.strip() == repr(environment)


# Writes, through run_cv(jobs=2), the fold checkpoints of the cv run that the
# test below starts from the command line, in a process that loaded numpy
# first and never imports the command line; argv: dataset root, output dir.
RUN_CV_JOBS_2 = """
import numpy, sys
from pathlib import Path
from pyrseiz import define_case, get_scheme, load_bonn_root, model_config
from pyrseiz.checkpoint import save_checkpoint
from pyrseiz.dataset import ids_by_set, plan_folds
from pyrseiz.evaluation import RunSpec, run_cv
from pyrseiz.training import TrainingConfig
root, out = sys.argv[1:]
case, scheme = define_case("AB-CD-E"), get_scheme(2)
spec = RunSpec(case, scheme, model_config("M4", case.num_classes),
               TrainingConfig(epochs=1, seed=3), "M4")
records = load_bonn_root(root, letters=case.sets)
for fold in run_cv(records, spec, plan_folds(ids_by_set(records), k=2, seed=3), jobs=2).folds:
    path = Path(out) / f"{spec.stem('cv')}_fold{fold.fold}.ckpt"
    save_checkpoint(fold.params, spec.model, path, case=case.name, scheme=scheme.id)
"""


def test_fold_checkpoints_do_not_depend_on_what_loaded_numpy_first(tmp_path):
    """An M4 cv run (5x8 records, AB-CD-E, scheme 2, 2 folds, 1 epoch, seed
    3) writes byte-identical fold checkpoints from a shell ``python -m
    pyrseiz cv``, from ``cli.main`` in a process that loaded numpy first,
    and from ``run_cv(jobs=2)`` in such a process. M4's FC1 product at batch
    32 changes its last bits with the BLAS thread count, so the three agree
    only if each runs one thread."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one core: OpenBLAS runs one thread whatever is set")
    data = _synth(tmp_path, classes=5, records=8, seed=3)
    argv = ["cv", "--data-root", str(data), "--case", "AB-CD-E", "--model", "M4",
            "--scheme", "2", "--folds", "2", "--epochs", "1", "--seed", "3", "--out"]
    _python(["-m", "pyrseiz", *argv, str(tmp_path / "shell")])
    main_after_numpy = "import numpy, sys; from pyrseiz.cli import main; sys.exit(main(sys.argv[1:]))"
    _python(["-c", main_after_numpy, *argv, str(tmp_path / "main")])
    _python(["-c", RUN_CV_JOBS_2, str(data), str(tmp_path / "jobs2")])
    checkpoints = [
        {p.name: p.read_bytes() for p in sorted((tmp_path / name).glob("*.ckpt"))}
        for name in ("shell", "main", "jobs2")
    ]
    assert len(checkpoints[0]) == 2
    assert checkpoints[0] == checkpoints[1] == checkpoints[2]
