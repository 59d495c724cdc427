import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_rows, origins
from oracles import count_offsets, window_matrix
from pyrseiz.dataset import (
    BandSpec,
    EegRecord,
    define_case,
    plan_folds,
    synthesize_dataset,
)
from pyrseiz.windowing import (
    SCHEME_1,
    SCHEME_2,
    SchemeSpec,
    WindowSet,
    augment_training,
    count_windows,
    get_scheme,
    normalize,
    segment_signal,
    segment_testing,
)

pytest.importorskip("hypothesis")


class TestCountWindows:
    def test_scheme1_training_windows(self):
        assert count_windows(4097, 512, 64) == 57

    def test_scheme2_training_windows(self):
        assert count_windows(4097, 512, 128) == 29

    def test_exact_fit(self):
        assert count_windows(512, 512, 64) == 1

    def test_window_longer_than_signal(self):
        with pytest.raises(ValueError, match="exceeds signal length"):
            count_windows(100, 512, 64)

    @settings(max_examples=200)
    @given(
        length=st.integers(min_value=1, max_value=5000),
        window=st.integers(min_value=1, max_value=600),
        stride=st.integers(min_value=1, max_value=600),
    )
    def test_matches_offset_enumeration(self, length, window, stride):
        if window > length:
            with pytest.raises(ValueError):
                count_windows(length, window, stride)
        else:
            assert count_windows(length, window, stride) == count_offsets(length, window, stride)

    def test_thousand_random_triples_match_enumeration(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            window = int(rng.integers(1, 600))
            length = int(rng.integers(window, 6000))
            stride = int(rng.integers(1, 600))
            assert count_windows(length, window, stride) == count_offsets(length, window, stride)


class TestNormalize:
    def test_two_point_symmetry(self):
        assert normalize([1, 3]).tolist() == [-1.0, 1.0]

    def test_constant_guard(self):
        assert normalize([5, 5, 5, 5]).tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_five_point_values(self):
        # (x - 2) / sqrt(2) elementwise, population std
        expected = (np.arange(5) - 2.0) / np.sqrt(2.0)
        out = normalize([0, 1, 2, 3, 4])
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(out, [-1.4142, -0.7071, 0.0, 0.7071, 1.4142], atol=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        windows = np.ones((3, 8))
        windows[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            normalize(windows)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=64,
        )
    )
    def test_moments_and_idempotence(self, values):
        out = normalize(values)
        if np.std(values) > 1e-6:  # skip the constant-guard regime
            assert abs(out.mean()) < 1e-6
            assert abs(out.std() - 1.0) < 1e-5
            again = normalize(out)
            assert np.allclose(again, out, atol=1e-6)


class TestSchemes:
    def test_widths(self):
        assert SCHEME_1.ensemble_width == 3
        assert SCHEME_2.ensemble_width == 5

    def test_strides(self):
        assert SCHEME_1.train_stride == 64 and SCHEME_1.test_window_stride == 256
        assert SCHEME_2.train_stride == 128 and SCHEME_2.test_window_stride == 128

    def test_lookup(self):
        assert get_scheme(1) is SCHEME_1
        assert get_scheme(2) is SCHEME_2
        with pytest.raises(ValueError, match="unknown scheme"):
            get_scheme(3)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SchemeSpec(id=9, train_stride=0, test_window_stride=1)


def _records_one_class(n, length=4097, seed=0):
    rng = np.random.default_rng(seed)
    return [EegRecord("A", i + 1, rng.standard_normal(length)) for i in range(n)]


class TestAugmentTraining:
    def test_one_record_offsets(self):
        case = define_case("A-E")
        records = _records_one_class(1)
        windows = augment_training(records, case, SCHEME_1)
        assert len(windows) == 57
        assert all_rows(windows).shape == (57, 512) and windows.labels.shape == (57,)
        assert [o[1] for o in origins(windows, records)] == [64 * j for j in range(57)]
        assert origins(windows, records)[-1] == ("A001", 3584)

    def test_records_are_referenced_not_copied(self):
        """The set holds each record's own sample array, in record order, and
        each window's source indexes it."""
        records = _records_one_class(3)
        windows = augment_training(records, define_case("A-E"), SCHEME_2)
        assert len(windows.samples) == 3
        assert all(a is r.samples for a, r in zip(windows.samples, records))
        assert windows.sources.tolist() == [i for i in range(3) for _ in range(29)]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sources": [0, 2]}, "source lies outside the 2 records"),
            ({"sources": [0, -1]}, "source lies outside"),
            ({"starts": [0, 5]}, "start lies outside its record"),
            ({"starts": [-1, 0]}, "start lies outside its record"),
            ({"labels": [0, 1, 1]}, "expected 1-D sample arrays"),
            ({"samples": (np.zeros(8), np.zeros((2, 4)))}, "expected 1-D sample arrays"),
            ({"window": 0}, "window must be >= 1"),
        ],
    )
    def test_window_set_rejects_windows_outside_its_records(self, change, message):
        """Each window must lie inside the record its source names; the
        second record has 8 samples, so a 4-sample window starts at most at 4."""
        fields = dict(
            samples=(np.zeros(6), np.zeros(8)),
            sources=[0, 1],
            starts=[2, 4],
            shifts=[0.0, 0.0],
            scales=[1.0, 1.0],
            labels=[0, 1],
            window=4,
        )
        WindowSet(**fields)
        with pytest.raises(ValueError, match=message):
            WindowSet(**{**fields, **change})

    def test_ninety_records_scheme1(self):
        case = define_case("A-E")
        windows = augment_training(_records_one_class(90), case, SCHEME_1)
        assert len(windows) == 5130

    def test_ninety_records_scheme2(self):
        case = define_case("A-E")
        windows = augment_training(_records_one_class(90), case, SCHEME_2)
        assert len(windows) == 2610

    def test_unmapped_set_letter(self):
        case = define_case("C-E")
        with pytest.raises(ValueError, match="does not map"):
            augment_training(_records_one_class(1), case, SCHEME_1)

    def test_window_content_is_index_exact(self):
        """Every row, in both schemes, is bitwise the per-window normalize of its slice."""
        case = define_case("A-E")
        records = _records_one_class(2, seed=7)
        samples = {r.record_id: r.samples for r in records}
        for scheme in (SCHEME_1, SCHEME_2):
            windows = augment_training(records, case, scheme)
            assert len(windows) == 2 * count_windows(4097, 512, scheme.train_stride)
            for row, (record_id, offset) in zip(all_rows(windows), origins(windows, records)):
                raw = samples[record_id][offset : offset + 512]
                assert np.array_equal(row, normalize(raw))

    def test_labels_follow_case_map(self):
        case = define_case("A-E")
        records = _records_one_class(2) + [EegRecord("E", 1, np.zeros(4097))]
        windows = augment_training(records, case, SCHEME_1)
        assert windows.labels.dtype == np.int64
        assert windows.labels.tolist() == [0] * 114 + [1] * 57

    def test_no_records_give_an_empty_set(self):
        windows = augment_training([], define_case("A-E"), SCHEME_1)
        assert len(windows) == 0 and windows.batch([]).shape == (0, 512)

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 200), min_size=1, max_size=4),
        window=st.integers(1, 40),
        stride=st.integers(1, 48),
        scales=st.lists(st.sampled_from([0.0, 1e-9, 1.0, 1e6]), min_size=4, max_size=4),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_batch_rows_equal_normalize_of_their_slices(
        self, lengths, window, stride, scales, seed, data
    ):
        """Any rows gathered in any order, with or without an ``out``, equal
        bitwise the rows of the normalized window matrix and ``normalize``
        of each window's own slice. Scale 0 gives constant records (the eps
        guard), 1e-9 records under it."""
        rng = np.random.default_rng(seed)
        records = [
            EegRecord("A", i + 1, 3.0 + scale * rng.standard_normal(window + length))
            for i, (length, scale) in enumerate(zip(lengths, scales))
        ]
        scheme = SchemeSpec(id=1, train_stride=stride, test_window_stride=1,
                            window=window, test_instance_length=window)
        windows = augment_training(records, define_case("A-E"), scheme)
        order = np.array(data.draw(st.permutations(range(len(windows)))), dtype=np.int64)
        rows = order[: data.draw(st.integers(1, len(order)))]
        expected = window_matrix([r.samples for r in records], stride, window)[rows]
        out = np.full((rows.size, window), np.nan)
        for got in (windows.batch(rows), windows.batch(rows, out=out)):
            assert np.array_equal(got, expected)
        samples = {r.record_id: r.samples for r in records}
        provenance = origins(windows, records)
        for got, i in zip(out, rows):
            record_id, offset = provenance[i]
            assert np.array_equal(got, normalize(samples[record_id][offset : offset + window]))


def _expected_windows(samples, scheme):
    """Loop reference: sub-signal k, expert j starts at 1024 k + j * stride."""
    n_sub = samples.size // 1024
    return [
        [
            normalize(samples[1024 * k + j * scheme.test_window_stride :][:512])
            for j in range(scheme.ensemble_width)
        ]
        for k in range(n_sub)
    ]


class TestSegmentTesting:
    def test_scheme1_layout(self):
        case = define_case("A-E")
        record = _records_one_class(1, seed=3)[0]
        instances = segment_testing(record, case, SCHEME_1)
        assert len(instances) == 4
        assert [inst.origin for inst in instances] == [("A001", k) for k in range(4)]
        assert all(inst.windows.shape == (3, 512) and inst.label == 0 for inst in instances)
        # experts at offsets 0, 256, 512 into each sub-signal
        for k, inst in enumerate(instances):
            for j in range(3):
                raw = record.samples[1024 * k + 256 * j :][:512]
                assert np.array_equal(inst.windows[j], normalize(raw))

    def test_scheme2_layout(self):
        case = define_case("A-E")
        record = _records_one_class(1, seed=3)[0]
        instances = segment_testing(record, case, SCHEME_2)
        assert len(instances) == 4
        # experts at offsets 0, 128, 256, 384, 512 into each sub-signal
        for k, inst in enumerate(instances):
            assert inst.windows.shape == (5, 512)
            for j in range(5):
                raw = record.samples[1024 * k + 128 * j :][:512]
                assert np.array_equal(inst.windows[j], normalize(raw))

    def test_total_windows_per_record_scheme1(self):
        case = define_case("A-E")
        record = _records_one_class(1)[0]
        instances = segment_testing(record, case, SCHEME_1)
        assert sum(len(inst.windows) for inst in instances) == 12

    def test_final_sample_discarded(self):
        """Sub-signals tile 4 x 1024 = 4096; sample 4096 never appears."""
        case = define_case("A-E")
        record = _records_one_class(1, seed=9)[0]
        instances = segment_testing(record, case, SCHEME_1)
        last = instances[-1].windows[-1]
        assert np.array_equal(last, normalize(record.samples[3584:4096]))
        moved = EegRecord("A", 1, np.concatenate([record.samples[:4096], [1e6]]))
        again = segment_testing(moved, case, SCHEME_1)
        assert all(np.array_equal(a.windows, b.windows) for a, b in zip(instances, again))

    def test_window_content_matches_slices(self):
        """Every window of every instance, in both schemes, matches the loop reference."""
        case = define_case("A-E")
        record = _records_one_class(1, seed=11)[0]
        for scheme in (SCHEME_1, SCHEME_2):
            instances = segment_testing(record, case, scheme)
            expected = _expected_windows(record.samples, scheme)
            assert len(instances) == len(expected)
            for inst, rows in zip(instances, expected):
                assert len(inst.windows) == len(rows)
                for window, row in zip(inst.windows, rows):
                    assert np.array_equal(window, row)

    def test_segment_signal_without_labels(self):
        samples = np.arange(4097, dtype=float)
        instances = segment_signal(samples, SCHEME_1)
        assert instances.shape == (4, 3, 512)
        assert np.array_equal(instances[1, 2], normalize(samples[1536:2048]))

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter than one"):
            segment_signal(np.zeros(1000), SCHEME_1)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=2, max_value=5))
def test_no_train_window_comes_from_a_test_record(seed, k):
    """Record-level disjointness between augmented training windows and test records."""
    profiles = [BandSpec(2, 4), BandSpec(20, 30)]
    records = synthesize_dataset(k + 2, profiles, length=1100, seed=seed)
    case = define_case("A-B")
    plan = plan_folds({"A": [r.index for r in records if r.set_label == "A"],
                       "B": [r.index for r in records if r.set_label == "B"]},
                      k=k, seed=seed)
    scheme = SchemeSpec(id=1, train_stride=256, test_window_stride=256)
    for fold in range(k):
        test_ids = {(s, i) for s in ("A", "B") for i in plan.test_ids(s, fold)}
        train_records = [
            r for r in records if (r.set_label, r.index) not in test_ids
        ]
        windows = augment_training(train_records, case, scheme)
        train_origin_records = {record_id for record_id, _ in origins(windows, train_records)}
        test_record_ids = {f"{s}{i:03d}" for s, i in test_ids}
        assert not train_origin_records & test_record_ids
