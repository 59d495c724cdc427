import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import read_samples_by_line
from pyrseiz.dataset import (
    BONN_ALIASES,
    BONN_SAMPLE_RATE,
    SET_LETTERS,
    BandSpec,
    EegRecord,
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
        # the bytes of a per-sample write of each float64 sample
        assert path.read_text() == "".join(format(v, ".17g") + "\n" for v in record.samples)
        loaded = load_record(path, "B", 7, expected_length=len(values))
        assert np.array_equal(loaded.samples, record.samples)

    def test_failed_save_leaves_the_old_record_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "A" / "A001.txt"
        save_record(EegRecord("A", 1, np.array([1.0, 2.0])), path)
        old = path.read_bytes()

        def replace_fails(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", replace_fails)
        with pytest.raises(OSError, match="no space left"):
            save_record(EegRecord("A", 1, np.array([3.0, 4.0, 5.0])), path)
        assert path.read_bytes() == old
        assert os.listdir(path.parent) == ["A001.txt"]


# Lines that file iteration keeps whole but str.splitlines would split
# (\x0c, \x1c, \x85, \u2028), blanks, and tokens float() reads differently
# from a plain decimal.
_SAMPLE_LINES = st.one_of(
    st.sampled_from(
        ["", " ", "\t", "1", "-2.5", " 3 ", "1 2", "\x0c", "1\x0c", "\x1c", "\x85",
         "1\x85", "\u2028", "2\u2029", "1_0", "_1", "nan", "-inf", "1e999", "-0",
         "1e-320", "+.5", "0x1", "abc"]
    ),
    st.floats(width=64).map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
_SAMPLE_TEXTS = st.lists(
    st.tuples(_SAMPLE_LINES, st.sampled_from(["\n", "\r\n", "\r", ""])), max_size=12
).map(lambda rows: "".join(line + end for line, end in rows))


class TestReadSamples:
    @settings(max_examples=300, deadline=None)
    @given(text=_SAMPLE_TEXTS)
    @example(text="1\n\n2\n")
    @example(text="1 2\n")
    @example(text="1\x0c2\n")
    @example(text="1\x852\n")
    @example(text="1\u20282\n")
    @example(text="1_0\n")
    @example(text="1\nnan\n")
    @example(text="")
    def test_matches_line_by_line_oracle(self, text, tmp_path_factory):
        """The same array, bitwise, or the same ValueError as the per-line parser."""
        path = tmp_path_factory.mktemp("samples") / "X001.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = read_samples_by_line(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                read_samples(path, 1)  # a bad sample is named before the length
            assert str(info.value) == str(exc)
            return
        got = read_samples(path, expected.size)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_non_utf8_file_names_its_path(self, tmp_path):
        path = tmp_path / "A001.txt"
        path.write_bytes(b"1.0\n\xff\n2.0\n")
        with pytest.raises(ValueError) as info:
            read_samples(path, 3)
        assert str(info.value) == f"{path}: not a UTF-8 text sample file"

    @pytest.mark.parametrize(
        "text, error", [("1\n\n2\n", None), ("1\nx\n2\n", "2: non-numeric sample 'x'")]
    )
    def test_a_blank_or_bad_line_opens_the_file_once(self, tmp_path, monkeypatch, text, error):
        path = tmp_path / "A001.txt"
        path.write_text(text)
        opens = []
        real_open = Path.open

        def counting_open(self, *args, **kwargs):
            opens.append(self)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        if error is None:
            assert read_samples(path, 2).tolist() == [1.0, 2.0]
        else:
            with pytest.raises(ValueError, match=error):
                read_samples(path, 3)
        assert opens == [path]


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
        message = "^k must be at most 3, the number of records in set A, got 4$"
        with pytest.raises(ValueError, match=message):
            plan_folds({"A": [1, 2, 3]}, k=4, seed=0)

    def test_smallest_set_bounds_k(self):
        message = "^k must be at most 2, the number of records in set C, got 4$"
        with pytest.raises(ValueError, match=message):
            plan_folds({"A": [1, 2, 3], "B": [1, 2, 3], "C": [1, 2], "D": [1, 2]}, k=4, seed=0)

    def test_train_test_split_covers_everything(self):
        plan = plan_folds({"A": list(range(1, 101))}, k=10, seed=3)
        for fold in range(10):
            test = set(plan.test_ids("A", fold))
            train = set(plan.train_ids("A", fold))
            assert not test & train
            assert test | train == set(range(1, 101))

    def test_plan_with_a_missing_chunk_rejected(self):
        """A set of two chunks in a three-fold plan would leave fold 3
        without a test group; run_cv died of an IndexError after two folds."""
        with pytest.raises(ValueError, match=r"^set A has 2 chunks, not k=3$"):
            FoldPlan(k=3, seed=0, assignments={"A": ((1,), (2, 3)), "B": ((1,), (2, 3))})

    def test_plan_with_an_empty_chunk_rejected(self):
        """Fold 1 would test no record of set A and fold 2 train on none;
        run_cv trained fold 1, then failed in fold 2 with
        "no training windows for class(es) [0]"."""
        with pytest.raises(ValueError, match=r"^set A has no test records in fold 1$"):
            FoldPlan(k=2, seed=0, assignments={"A": ((), (1, 2, 3, 4)), "B": ((1, 2), (3, 4))})

    @pytest.mark.parametrize("chunks, repeated", [(((1, 2), (2, 3)), 2), (((1, 1), (2, 3)), 1)])
    def test_plan_repeating_a_record_rejected(self, chunks, repeated):
        """In two chunks, a fold would test on a record it trains on."""
        message = rf"^records A\[{repeated}\] appear twice in the fold plan$"
        with pytest.raises(ValueError, match=message):
            FoldPlan(k=2, seed=0, assignments={"A": chunks, "B": ((1,), (2,))})

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

    def test_noiseless_records_lie_in_their_class_band(self):
        """No noise: all but 1e-6 of a Hann-windowed record's spectral energy,
        at BONN_SAMPLE_RATE, lies within 0.5 Hz of its class band. The
        default noise leaves about 1e-3 outside, and reading the samples at
        100 Hz all of it."""
        profiles = [BandSpec(5, 6), BandSpec(20, 25)]
        records = synthesize_dataset(2, profiles, length=4096, noise_level=0.0, seed=2)
        freqs = np.fft.rfftfreq(4096, 1.0 / BONN_SAMPLE_RATE)
        for record in records:
            band = profiles[SET_LETTERS.index(record.set_label)]
            power = np.abs(np.fft.rfft(record.samples * np.hanning(4096))) ** 2
            inside = (freqs > band.low_hz - 0.5) & (freqs < band.high_hz + 0.5)
            assert power[~inside].sum() < 1e-6 * power.sum()

    def test_class_letters_and_lengths(self):
        profiles = [BandSpec(2, 4), BandSpec(8, 12), BandSpec(20, 30)]
        records = synthesize_dataset(4, profiles, length=2048, seed=5)
        assert {r.set_label for r in records} == {"A", "B", "C"}
        assert all(len(r) == 2048 for r in records)
        assert ids_by_set(records) == {"A": [1, 2, 3, 4], "B": [1, 2, 3, 4], "C": [1, 2, 3, 4]}

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            synthesize_dataset(3, [BandSpec(2, 4)])
        with pytest.raises(ValueError, match="^length must be >= 512, got 100$"):
            synthesize_dataset(3, [BandSpec(2, 4), BandSpec(8, 12)], length=100)
        with pytest.raises(ValueError, match="^num_records_per_class must be >= 1, got 0$"):
            synthesize_dataset(0, [BandSpec(2, 4), BandSpec(8, 12)])
        with pytest.raises(ValueError):
            BandSpec(4, 2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            synthesize_dataset(3, [BandSpec(2, 4), BandSpec(8, 12)], seed=-1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0])
    def test_bad_noise_level_rejected(self, noise):
        """A nan or inf noise level made every sample non-finite, and a
        negative one was accepted."""
        message = rf"^noise_level must be finite and >= 0, got {noise}$"
        with pytest.raises(ValueError, match=message):
            synthesize_dataset(3, [BandSpec(2, 4), BandSpec(8, 12)], noise_level=noise)


_SET_NAMES = st.sampled_from(
    [*SET_LETTERS, *(c.lower() for c in SET_LETTERS), *BONN_ALIASES.values(),
     *(c.lower() for c in BONN_ALIASES.values())]
)
_STRAY_NAMES = st.text("abxyzAEZS0123_.", min_size=1, max_size=6).filter(
    lambda name: name not in (".", "..")
)
_FILE_NAMES = st.one_of(
    st.sampled_from(["Z001.txt", "Z1.txt", "z001", "notes.txt", ".hidden", ".Z002.txt",
                     "S000.txt", "A1B2.txt", "12", "0"]),
    st.text("aZs._-0123456789", min_size=1, max_size=10).filter(
        lambda name: name not in (".", "..")
    ),
)
_CONTENTS = st.one_of(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3).map(
        lambda values: "".join(f"{v}\n" for v in values)
    ),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=5).map(
        lambda values: "".join(f"{v}\n" for v in values)
    ),
    st.sampled_from(["1\n2\n3\n", "1\n\n2\n3", "1\nnan\n3\n", "x\ny\nz\n", ""]),
)


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

    def test_non_utf8_record_names_its_path(self, tmp_path):
        for letter in ("A", "B"):
            (tmp_path / letter).mkdir()
            for index in (1, 2):
                _write_lines(tmp_path / letter / f"{letter}{index:03d}.txt", [1, 2, 3])
        bad = tmp_path / "B" / "B002.txt"
        bad.write_bytes(b"1\n2\n\xfe3\n")
        with pytest.raises(ValueError, match="not a UTF-8 text sample file") as info:
            load_bonn_root(tmp_path, letters=("A", "B"), expected_length=3)
        assert str(bad) in str(info.value)

    def test_leftover_atomic_temporary_is_not_a_record(self, tmp_path):
        """A write_atomic temporary left by a killed process, here a copy of
        A001 named as one, is skipped: the set loads the same records."""
        profiles = [BandSpec(2, 4), BandSpec(20, 30)]
        write_bonn_dataset(synthesize_dataset(3, profiles, length=600, seed=2), tmp_path)
        before = load_bonn_set(tmp_path, "A", expected_length=600)
        stray = tmp_path / "A" / ".A001.txt.4242.tmp"
        stray.write_text((tmp_path / "A" / "A001.txt").read_text())
        after = load_bonn_set(tmp_path, "A", expected_length=600)
        assert [r.index for r in after] == [r.index for r in before] == [1, 2, 3]
        for a, b in zip(before, after):
            assert np.array_equal(a.samples, b.samples)

    def test_missing_set_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no directory for set"):
            load_bonn_set(tmp_path, "E")

    @settings(max_examples=200, deadline=None)
    @given(letter=st.sampled_from(SET_LETTERS), data=st.data())
    def test_fuzzed_layout_loads_or_raises_value_or_file_not_found(self, letter, data):
        """Set-directory names (the letter, its alias, either case, stray
        names), record file names (no digits, repeated indices, dotfiles),
        stray subdirectories and record lengths: every layout loads or raises
        ValueError or FileNotFoundError."""
        own = [letter, letter.lower(), BONN_ALIASES[letter], BONN_ALIASES[letter].lower()]
        layout = data.draw(st.lists(
            st.tuples(
                st.one_of(st.sampled_from(own), st.sampled_from(own), _SET_NAMES, _STRAY_NAMES),
                st.lists(st.tuples(_FILE_NAMES, _CONTENTS), max_size=5),
                st.lists(_STRAY_NAMES, max_size=2),  # subdirectories inside it
            ),
            min_size=1,
            max_size=3,
        ))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, files, subdirs in layout:
                directory = root / name
                directory.mkdir(exist_ok=True)
                for sub in subdirs:
                    if not (directory / sub).exists():
                        (directory / sub).mkdir()
                for file, text in files:
                    if not (directory / file).is_dir():
                        (directory / file).write_text(text)
            try:
                records = load_bonn_set(root, letter, expected_length=3)
            except (ValueError, FileNotFoundError):
                return
        indices = [r.index for r in records]
        assert records and indices == sorted(set(indices))
        assert all(r.set_label == letter and len(r) == 3 for r in records)
