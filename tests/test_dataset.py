import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrseiz import (
    BONN_ALIASES,
    SET_LETTERS,
    BandSpec,
    EegRecord,
    define_case,
    ids_by_set,
    load_bonn_root,
    load_bonn_set,
    load_manifest,
    load_record,
    plan_folds,
    save_record,
    synthesize_dataset,
    write_bonn_dataset,
)
from pyrseiz.evaluation import BATTERY_CASES


def _write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


class TestLoadRecord:
    def test_zero_file(self, tmp_path):
        path = tmp_path / "A001.txt"
        _write_lines(path, [0] * 4097)
        record = load_record(path, "A", 1)
        assert len(record) == 4097
        assert np.all(record.samples == 0.0)

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "A001.txt"
        _write_lines(path, [0] * 4096)
        with pytest.raises(ValueError, match="wrong length"):
            load_record(path, "A", 1)

    def test_parse_order_preserved(self, tmp_path):
        path = tmp_path / "A001.txt"
        _write_lines(path, [12, -7, 30] + [0] * 4094)
        record = load_record(path, "A", 1)
        assert record.samples[0] == 12
        assert record.samples[1] == -7
        assert record.samples[2] == 30

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_record(tmp_path / "nope.txt", "A", 1)

    def test_non_numeric_line(self, tmp_path):
        path = tmp_path / "A001.txt"
        path.write_text("1\nbogus\n2\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_record(path, "A", 1, expected_length=3)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_sample_rejected(self, tmp_path, token):
        path = tmp_path / "A001.txt"
        _write_lines(path, [1, 2, token, 4])
        with pytest.raises(ValueError, match=rf"A001.txt:3: non-finite sample '{token}'"):
            load_record(path, "A", 1, expected_length=4)

    def test_crlf_endings(self, tmp_path):
        path = tmp_path / "A001.txt"
        path.write_bytes(b"1\r\n2\r\n3\r\n")
        record = load_record(path, "A", 1, expected_length=3)
        assert record.samples.tolist() == [1.0, 2.0, 3.0]

    @settings(max_examples=30)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=200,
        )
    )
    def test_round_trip_preserves_samples(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "B007.txt"
        record = EegRecord("B", 7, np.array(values))
        save_record(record, path)
        loaded = load_record(path, "B", 7, expected_length=len(values))
        assert np.array_equal(loaded.samples, record.samples)


class TestEegRecord:
    def test_unknown_set_label(self):
        with pytest.raises(ValueError, match="unknown set label"):
            EegRecord("X", 1, np.zeros(10))

    def test_samples_are_read_only(self):
        record = EegRecord("A", 1, np.zeros(10))
        with pytest.raises(ValueError):
            record.samples[0] = 1.0

    def test_record_id(self):
        assert EegRecord("E", 3, np.zeros(8)).record_id == "E003"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        samples = np.zeros(10)
        samples[4] = bad
        with pytest.raises(ValueError, match="record A001 has a non-finite"):
            EegRecord("A", 1, samples)


class TestDefineCase:
    def test_three_class_case(self):
        case = define_case("AB-CD-E")
        assert case.class_of_set == {"A": 0, "B": 0, "C": 1, "D": 1, "E": 2}
        assert case.num_classes == 3

    def test_binary_case(self):
        case = define_case("A-E")
        assert case.class_of_set == {"A": 0, "E": 1}
        assert case.num_classes == 2

    def test_duplicate_letters_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            define_case("AB-AB")

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError, match="unknown set letter"):
            define_case("AX-E")

    def test_single_group_rejected(self):
        with pytest.raises(ValueError, match="at least two groups"):
            define_case("ABCDE")

    def test_all_battery_cases_expressible(self):
        for spec in BATTERY_CASES:
            case = define_case(spec)
            # group sizes x 100 records add up to the records the case touches
            per_class = [len(case.group_letters(c)) * 100 for c in range(case.num_classes)]
            assert sum(per_class) == len(case.sets) * 100

    def test_group_letters(self):
        case = define_case("AB-CD-E")
        assert case.group_letters(0) == "AB"
        assert case.group_letters(2) == "E"
        assert case.positive_class == 2


class TestPlanFolds:
    def test_hundred_records_ten_folds(self):
        ids = {letter: list(range(1, 101)) for letter in SET_LETTERS}
        plan = plan_folds(ids, k=10, seed=1)
        for letter in SET_LETTERS:
            chunks = plan.assignments[letter]
            assert len(chunks) == 10
            assert all(len(c) == 10 for c in chunks)

    def test_deterministic(self):
        ids = {"A": list(range(1, 101))}
        assert plan_folds(ids, 10, seed=5) == plan_folds(ids, 10, seed=5)

    def test_singleton_groups(self):
        plan = plan_folds({"A": list(range(1, 11))}, k=10, seed=0)
        assert all(len(c) == 1 for c in plan.assignments["A"])

    def test_k_too_small(self):
        with pytest.raises(ValueError, match="k must be"):
            plan_folds({"A": [1, 2, 3]}, k=1, seed=0)

    def test_too_few_records(self):
        with pytest.raises(ValueError, match="fewer than k"):
            plan_folds({"A": [1, 2, 3]}, k=4, seed=0)

    def test_train_test_split_covers_everything(self):
        plan = plan_folds({"A": list(range(1, 101))}, k=10, seed=3)
        for fold in range(10):
            test = set(plan.test_ids("A", fold))
            train = set(plan.train_ids("A", fold))
            assert not test & train
            assert test | train == set(range(1, 101))

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=4, max_value=60),
        k=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, n, k, seed):
        """Union of test groups covers every id exactly once."""
        if n < k:
            n = k
        ids = list(range(1, n + 1))
        plan = plan_folds({"A": ids}, k=k, seed=seed)
        chunks = plan.assignments["A"]
        flat = [i for chunk in chunks for i in chunk]
        assert sorted(flat) == ids
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1


class TestSynthesize:
    def test_deterministic_bitwise(self):
        profiles = [BandSpec(2, 4), BandSpec(20, 30)]
        a = synthesize_dataset(3, profiles, seed=9)
        b = synthesize_dataset(3, profiles, seed=9)
        assert len(a) == len(b) == 6
        for ra, rb in zip(a, b):
            assert ra.set_label == rb.set_label and ra.index == rb.index
            assert np.array_equal(ra.samples, rb.samples)

    def test_noiseless_single_component_is_pure_tone(self):
        """No noise, one component: x[n+1] + x[n-1] = 2 cos(w) x[n] holds exactly."""
        profiles = [BandSpec(5, 6, components=1), BandSpec(20, 25, components=1)]
        records = synthesize_dataset(1, profiles, length=4096, noise_level=0.0, seed=2)
        x = records[0].samples
        cos_w = float((x[1:-1] * (x[2:] + x[:-2])).sum() / (2.0 * (x[1:-1] ** 2).sum()))
        residual = x[2:] + x[:-2] - 2.0 * cos_w * x[1:-1]
        assert np.max(np.abs(residual)) < 1e-9

    def test_class_letters_and_lengths(self):
        profiles = [BandSpec(2, 4), BandSpec(8, 12), BandSpec(20, 30)]
        records = synthesize_dataset(4, profiles, length=2048, seed=5)
        assert {r.set_label for r in records} == {"A", "B", "C"}
        assert all(len(r) == 2048 for r in records)
        assert ids_by_set(records) == {"A": [1, 2, 3, 4], "B": [1, 2, 3, 4], "C": [1, 2, 3, 4]}

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            synthesize_dataset(3, [BandSpec(2, 4)])
        with pytest.raises(ValueError, match=">= 512"):
            synthesize_dataset(3, [BandSpec(2, 4), BandSpec(8, 12)], length=100)
        with pytest.raises(ValueError):
            BandSpec(4, 2)


class TestBonnLayout:
    def test_write_then_load_by_letter(self, tmp_path):
        profiles = [BandSpec(2, 4), BandSpec(20, 30)]
        records = synthesize_dataset(3, profiles, length=600, seed=1)
        write_bonn_dataset(records, tmp_path)
        loaded = load_bonn_root(tmp_path, letters=("A", "B"), expected_length=600)
        assert len(loaded) == 6
        for orig, back in zip(sorted(records, key=lambda r: r.record_id),
                              sorted(loaded, key=lambda r: r.record_id)):
            assert np.array_equal(orig.samples, back.samples)

    def test_native_prefix_directories(self, tmp_path):
        (tmp_path / "Z").mkdir()
        _write_lines(tmp_path / "Z" / "Z001.txt", [1, 2, 3])
        records = load_bonn_set(tmp_path, "A", expected_length=3)
        assert records[0].set_label == "A"
        assert records[0].index == 1
        assert BONN_ALIASES["A"] == "Z"

    def test_missing_set_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no directory for set"):
            load_bonn_set(tmp_path, "E")

    def test_manifest_loading(self, tmp_path):
        _write_lines(tmp_path / "one.txt", [1, 2, 3])
        _write_lines(tmp_path / "two.txt", [4, 5, 6])
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# layout\nA,one.txt\nE,two.txt\n")
        records = load_manifest(manifest, expected_length=3)
        assert [(r.set_label, r.index) for r in records] == [("A", 1), ("E", 1)]

    def test_manifest_bad_line(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("A;one.txt\n")
        with pytest.raises(ValueError, match="expected 'set_letter,path'"):
            load_manifest(manifest)
