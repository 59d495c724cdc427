import json
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import confusion_from_pairs, metrics_from_pairs
from pyrseiz.dataset import (
    BandSpec,
    FoldPlan,
    define_case,
    ids_by_set,
    plan_folds,
    synthesize_dataset,
)
from pyrseiz.evaluation import (
    BATTERY_CASES,
    METRIC_KEYS,
    REPORT_CSV_HEADER,
    FoldResult,
    MetricsReport,
    RunSpec,
    compute_metrics,
    emit_battery,
    emit_battery_comparison,
    emit_report,
    report_to_dict,
    run_battery,
    run_cv,
)
from pyrseiz.network import ModelConfig, NetworkParameters, model_config
from pyrseiz.training import TrainingConfig
from pyrseiz.windowing import SCHEME_1, SCHEME_2

TINY_MODEL = ModelConfig(
    kernel_counts=(4, 3, 2), fc1_width=6, dropout_rate=0.0, num_classes=2
)


class TestComputeMetrics:
    def test_worked_binary_example(self):
        # rows true, cols predicted; positive class is the last one
        cm = np.array([[85, 15], [10, 90]])
        values = compute_metrics(cm)
        assert values["acc"] == pytest.approx(0.875, abs=1e-12)
        assert values["sen"] == pytest.approx(0.9, abs=1e-12)
        assert values["spe"] == pytest.approx(0.85, abs=1e-12)
        assert values["precision"] == pytest.approx(0.8571, abs=1e-4)
        assert values["f_m"] == pytest.approx(0.8780, abs=1e-4)
        assert values["g_m"] == pytest.approx(0.8746, abs=1e-4)
        assert None not in values.values()

    def test_perfect_predictions(self):
        cm = np.diag([40, 25])
        values = compute_metrics(cm)
        for key in ("acc", "sen", "spe", "precision", "f_m", "g_m"):
            assert values[key] == 1.0

    def test_thousand_random_binary_sets_match_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            true = rng.integers(0, 2, size=n)
            pred = rng.integers(0, 2, size=n)
            cm = confusion_from_pairs(true, pred, 2)
            ours = compute_metrics(cm)
            acc, sen, spe, precision, f_m, g_m = metrics_from_pairs(true, pred, positive=1)
            assert ours["acc"] == acc
            assert ours["sen"] == sen
            assert ours["spe"] == spe
            assert ours["precision"] == precision
            assert ours["f_m"] == f_m
            assert ours["g_m"] == g_m

    def test_zero_denominator_is_undefined_not_zero(self):
        cm = np.array([[5, 0], [0, 0]])  # no positive-class examples at all
        values = compute_metrics(cm)
        assert values["sen"] is None
        assert values["precision"] is None
        undefined = [key for key, value in values.items() if value is None]
        assert "sen" in undefined and "precision" in undefined
        assert values["spe"] == 1.0

    def test_g_mean_squared_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            cm = rng.integers(1, 50, size=(2, 2))
            values = compute_metrics(cm)
            assert abs(values["g_m"]**2 - values["spe"] * values["sen"]) < 1e-12

    def test_ternary_macro_average(self):
        cm = np.array([[8, 1, 1], [2, 7, 1], [0, 1, 9]])
        values = compute_metrics(cm)
        assert values["acc"] == pytest.approx(24 / 30)
        # rebuild the label/prediction pairs the matrix encodes, then check
        # each metric against the macro mean of one-vs-rest oracle values
        true = []
        pred = []
        for t in range(3):
            for p in range(3):
                true += [t] * cm[t, p]
                pred += [p] * cm[t, p]
        for i, key in enumerate(("sen", "spe", "precision", "f_m", "g_m"), start=1):
            expected = np.mean([metrics_from_pairs(true, pred, positive=c)[i] for c in range(3)])
            assert values[key] == pytest.approx(expected, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics(np.zeros((2, 2), dtype=int))

    def test_acc_is_trace_over_total(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cm = rng.integers(0, 30, size=(3, 3)) + np.eye(3, dtype=int)
            values = compute_metrics(cm)
            assert values["acc"] == cm.trace() / cm.sum()


@pytest.fixture(scope="module")
def cv_setup():
    profiles = [BandSpec(2, 4), BandSpec(20, 30)]
    records = synthesize_dataset(4, profiles, seed=21)
    case = define_case("A-B")
    plan = plan_folds(ids_by_set(records), k=2, seed=21)
    training = TrainingConfig(epochs=1, batch_size=32, seed=21)
    return records, case, plan, training


class TestRunCv:
    def test_fold_structure_and_confusion_totals(self, cv_setup):
        records, case, plan, training = cv_setup
        report = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        assert len(report.folds) == 2
        assert [f.fold for f in report.folds] == [1, 2]
        for fold in report.folds:
            # 2 test records per set x 2 sets x 4 instances each
            assert fold.confusion.sum() == 4 * 4
            assert fold.metrics["acc_v"] == fold.confusion.trace() / fold.confusion.sum()
            assert 0.0 <= fold.metrics["acc"] <= 1.0
        assert report.mean_confusion.sum() == pytest.approx(16)
        assert report.settings["folds"] == 2
        assert report.settings["seed"] == 21

    def test_deterministic_reports(self, cv_setup):
        records, case, plan, training = cv_setup
        a = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        b = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        assert report_to_dict(a) == report_to_dict(b)

    def test_battery_template_rejected_with_one_line(self, cv_setup):
        """A spec without a case (a battery template) fails before any fold
        runs, pointing at RunSpec.for_case."""
        records, case, plan, training = cv_setup
        template = RunSpec(None, SCHEME_1, TINY_MODEL, training)
        one_line = r"^run_cv needs a spec with a case; derive one with RunSpec\.for_case$"
        with pytest.raises(ValueError, match=one_line):
            run_cv(records, template, plan)
        report = run_cv(records, template.for_case(case), plan)
        assert report.case == case.name

    def test_leakage_guard(self, cv_setup):
        """A plan that would train on records it tests on cannot be built."""
        _, _, plan, _ = cv_setup
        ids = plan.assignments["A"]
        with pytest.raises(ValueError, match=r"^records A\[.*\] appear twice in the fold plan$"):
            FoldPlan(
                k=2,
                seed=plan.seed,
                assignments={
                    "A": (ids[0], ids[0]),  # same records in both folds
                    "B": plan.assignments["B"],
                },
            )

    def test_plan_referencing_missing_records(self, cv_setup):
        records, case, plan, training = cv_setup
        corrupt = FoldPlan(
            k=2,
            seed=plan.seed,
            assignments={
                "A": ((1, 2, 99), (3, 4)),
                "B": plan.assignments["B"],
            },
        )
        with pytest.raises(ValueError, match="absent from the dataset"):
            run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), corrupt)

    def test_class_count_mismatch(self, cv_setup):
        _, case, _, training = cv_setup
        three = ModelConfig(
            kernel_counts=(4, 3, 2), fc1_width=6, dropout_rate=0.0, num_classes=3
        )
        with pytest.raises(ValueError, match="classes"):
            RunSpec(case, SCHEME_1, three, training)

    def test_ten_fold_report_has_ten_fold_rows(self, tmp_path):
        """Default-depth plan: one accuracy row per fold, K1..K10 style."""
        profiles = [BandSpec(2, 4), BandSpec(20, 30)]
        records = synthesize_dataset(10, profiles, seed=13)
        case = define_case("A-B")
        plan = plan_folds(ids_by_set(records), k=10, seed=13)
        training = TrainingConfig(epochs=1, batch_size=64, seed=13)
        report = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        assert [f.fold for f in report.folds] == list(range(1, 11))
        path = emit_report(report, tmp_path / "ten.csv", fmt="csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 10 + 1
        assert lines[-1].split(",")[3] == "mean"

    def test_parallel_jobs_match_serial_params_and_all(self, cv_setup):
        """Every fold keeps the parameters it trained, bitwise the same in
        worker processes."""
        records, case, plan, training = cv_setup
        spec = RunSpec(case, SCHEME_1, TINY_MODEL, training)
        serial = run_cv(records, spec, plan)
        parallel = run_cv(records, spec, plan, jobs=2)
        assert report_to_dict(serial) == report_to_dict(parallel)
        for a, b in zip(serial.folds, parallel.folds):
            assert a.params.config == b.params.config
            assert a.params.flat.tobytes() == b.params.flat.tobytes()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, cv_setup, jobs):
        records, case, plan, training = cv_setup
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan, jobs=jobs)


class TestRunSpec:
    @pytest.mark.parametrize(
        "kind, case, name, stem",
        [
            ("train", "A-B", "M5", "train_A-B_scheme2_M5_seed7"),
            ("train", "A-B", None, "train_A-B_scheme2_pyramid-fc20_seed7"),
            ("cv", "AB-CD-E", "M5", "cv_AB-CD-E_scheme2_M5_seed7"),
            ("cv", "AB-CD-E", None, "cv_AB-CD-E_scheme2_pyramid-fc20_seed7"),
            ("battery", None, "M5", "battery_scheme2_M5_seed7"),
            ("battery", None, None, "battery_scheme2_pyramid-fc20_seed7"),
        ],
    )
    def test_stem(self, kind, case, name, stem):
        case = None if case is None else define_case(case)
        model = model_config("M5", 2 if case is None else case.num_classes)
        spec = RunSpec(case, SCHEME_2, model, TrainingConfig(seed=7), name)
        assert spec.stem(kind) == stem
        assert spec.label == (name or "pyramid-fc20")

    def test_for_case_changes_only_case_and_class_count(self):
        template = RunSpec(None, SCHEME_2, model_config("M5", 2), TrainingConfig(seed=3), "M5")
        case = define_case("AB-CD-E")
        spec = template.for_case(case)
        assert spec.case is case
        assert spec.model.num_classes == 3
        assert replace(spec.model, num_classes=2) == template.model
        for field in fields(RunSpec):
            if field.name not in ("case", "model"):
                assert getattr(spec, field.name) == getattr(template, field.name)

    def test_settings_equal_the_json_echo(self, cv_setup, tmp_path):
        records, case, plan, training = cv_setup
        spec = RunSpec(case, SCHEME_1, TINY_MODEL, training)
        path = emit_report(run_cv(records, spec, plan), tmp_path / "report.json", fmt="json")
        echo = json.loads(path.read_text())["settings"]
        assert json.loads(json.dumps(spec.settings(plan))) == echo
        assert list(spec.settings(plan)) == list(echo)


class TestRunBattery:
    def test_sixteen_rows_and_reference_column(self):
        profiles = [BandSpec(f, f + 2) for f in (2, 10, 20, 35, 55)]
        records = synthesize_dataset(4, profiles, seed=31)
        training = TrainingConfig(epochs=1, batch_size=64, seed=31)
        battery = run_battery(records, RunSpec(None, SCHEME_1, TINY_MODEL, training), k=2)
        assert len(battery.rows) == 16
        assert [row.case for row in battery.rows] == list(BATTERY_CASES)
        assert any(row.case == "A-E" for row in battery.rows)
        for row in battery.rows:
            assert row.reference_acc_v is not None
            assert 0.0 <= row.mean_acc_v <= 1.0

    def test_deterministic(self):
        profiles = [BandSpec(f, f + 2) for f in (2, 10, 20, 35, 55)]
        records = synthesize_dataset(3, profiles, seed=5)
        training = TrainingConfig(epochs=1, batch_size=64, seed=5)
        cases = ("A-E", "AB-CD-E")
        template = RunSpec(None, SCHEME_1, TINY_MODEL, training)
        a = run_battery(records, template, k=3, cases=cases)
        b = run_battery(records, template, k=3, cases=cases)
        assert a.rows == b.rows

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        profiles = [BandSpec(f, f + 2) for f in (2, 10, 20, 35, 55)]
        records = synthesize_dataset(3, profiles, seed=5)
        training = TrainingConfig(epochs=1, batch_size=64, seed=5)
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            run_battery(records, RunSpec(None, SCHEME_1, TINY_MODEL, training), k=3, jobs=jobs)


class TestEmitReport:
    def test_csv_layout(self, cv_setup, tmp_path):
        records, case, plan, training = cv_setup
        report = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training, "M5"), plan)
        path = emit_report(report, tmp_path / "report.csv", fmt="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_CSV_HEADER
        assert lines[0] == "case,scheme,model,fold,acc,acc_v,sen,spe,precision,f_m,g_m,ties"
        assert len(lines) == 1 + 2 + 1  # header, two folds, mean row
        assert lines[1].startswith("A-B,1,M5,1,")
        assert lines[-1].split(",")[3] == "mean"

    def test_empty_report_is_header_only(self, tmp_path):
        empty = MetricsReport(
            case="A-B", scheme_id=1, model="M5", folds=[],
            mean={k: None for k in METRIC_KEYS}, std={k: None for k in METRIC_KEYS},
            mean_confusion=np.zeros((2, 2)), ties_total=0, settings={},
        )
        path = emit_report(empty, tmp_path / "empty.csv", fmt="csv")
        assert path.read_text() == REPORT_CSV_HEADER + "\n"

    def test_json_round_trip_is_exact(self, cv_setup, tmp_path):
        records, case, plan, training = cv_setup
        report = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        path = emit_report(report, tmp_path / "report.json", fmt="json")
        loaded = json.loads(path.read_text())
        for fold, fold_dict in zip(report.folds, loaded["folds"]):
            for key in METRIC_KEYS:
                assert fold_dict[key] == fold.metrics[key]
            assert fold_dict["confusion"] == fold.confusion.tolist()
        for key in METRIC_KEYS:
            assert loaded["mean"][key] == report.mean[key]
            assert loaded["std"][key] == report.std[key]
        assert "runtime" not in json.dumps(loaded)

    def test_json_settings_keys_and_order(self, cv_setup, tmp_path):
        records, case, plan, training = cv_setup
        report = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        path = emit_report(report, tmp_path / "report.json", fmt="json")
        settings = json.loads(path.read_text())["settings"]
        assert list(settings) == [
            "kernel_counts",
            "receptive_fields",
            "strides",
            "fc1_width",
            "dropout_rate",
            "num_classes",
            "input_length",
            "learning_rate",
            "beta1",
            "beta2",
            "eps",
            "batch_size",
            "epochs",
            "seed",
            "shuffle",
            "balance_classes",
            "folds",
            "fold_seed",
        ]
        assert settings["shuffle"] is True and settings["balance_classes"] is False
        assert settings["kernel_counts"] == [4, 3, 2]
        assert settings["folds"] == 2 and settings["fold_seed"] == 21

    def test_json_fold_keys_and_order(self, cv_setup, tmp_path):
        records, case, plan, training = cv_setup
        report = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        path = emit_report(report, tmp_path / "report.json", fmt="json")
        for fold in json.loads(path.read_text())["folds"]:
            assert list(fold) == [
                "fold", "acc", "acc_v", "sen", "spe", "precision", "f_m", "g_m",
                "ties", "undefined", "confusion",
            ]

    def test_json_undefined_lists_rates_in_metric_order(self):
        cm = np.array([[5, 0], [0, 0]])  # no positive-class examples at all
        fold = FoldResult(
            fold=1,
            metrics=dict(zip(METRIC_KEYS, (1.0, *compute_metrics(cm).values()))),
            ties=0,
            confusion=cm,
            params=NetworkParameters(TINY_MODEL),
        )
        report = MetricsReport(
            case="A-B", scheme_id=1, model="M5", folds=[fold],
            mean=dict(fold.metrics), std=dict(fold.metrics),
            mean_confusion=cm, ties_total=0, settings={},
        )
        (fold_dict,) = report_to_dict(report)["folds"]
        assert fold_dict["undefined"] == ["sen", "precision", "f_m", "g_m"]
        assert list(fold_dict)[1:8] == list(METRIC_KEYS)

    def test_unknown_format_rejected(self, cv_setup, tmp_path):
        records, case, plan, training = cv_setup
        report = run_cv(records, RunSpec(case, SCHEME_1, TINY_MODEL, training), plan)
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report, tmp_path / "x.yaml", fmt="yaml")

    def test_battery_files(self, tmp_path):
        profiles = [BandSpec(f, f + 2) for f in (2, 10, 20, 35, 55)]
        records = synthesize_dataset(3, profiles, seed=6)
        training = TrainingConfig(epochs=1, batch_size=64, seed=6)
        battery = run_battery(
            records, RunSpec(None, SCHEME_1, TINY_MODEL, training), k=3, cases=("A-E", "AB-E")
        )
        summary = emit_battery(battery, tmp_path / "battery.csv")
        comparison = emit_battery_comparison(battery, tmp_path / "comparison.csv")
        lines = summary.read_text().splitlines()
        assert lines[0] == "case,scheme,model,mean_acc,mean_acc_v"
        comp = comparison.read_text().splitlines()
        assert comp[0] == "case,paper_acc,our_acc"
        assert comp[1].startswith("A-E,100.0,")
        json_path = emit_battery(battery, tmp_path / "battery.json", fmt="json")
        payload = json.loads(json_path.read_text())
        assert [row["case"] for row in payload["rows"]] == ["A-E", "AB-E"]
