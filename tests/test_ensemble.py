import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_rows, rows_window_set
from oracles import vote_oracle
from pyrseiz.ensemble import (
    INFER_BATCH,
    classify,
    majority_vote,
    predict_instance,
    write_vote_log,
)
from pyrseiz.network import Workspace, forward, init_parameters, model_config
from pyrseiz.training import TrainingConfig, train
from pyrseiz.windowing import (
    SCHEME_1,
    SCHEME_2,
    SchemeSpec,
    TestInstance as SignalInstance,
)


class TestMajorityVote:
    def test_strict_majority(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8]])
        assert majority_vote([0, 0, 1], probs) == (0, False)

    def test_three_way_tie_broken_by_mass_then_index(self):
        probs = np.array(
            [
                [0.8, 0.1, 0.1],
                [0.1, 0.5, 0.4],
                [0.1, 0.5, 0.4],
            ]
        )
        # per-class mass: (1.0, 1.1, 0.9) -> leader set {0,1,2}, class 1 wins
        final, tie_broken = majority_vote([0, 1, 2], probs)
        assert (final, tie_broken) == (1, True)

    def test_equal_mass_goes_to_lowest_index(self):
        probs = np.array(
            [
                [0.2, 0.4, 0.4],
                [0.2, 0.4, 0.4],
                [0.4, 0.3, 0.3],
            ]
        )
        # votes 1,2,0 tie on count; mass (0.8, 1.1, 1.1) ties classes 1 and 2
        final, tie_broken = majority_vote([1, 2, 0], probs)
        assert (final, tie_broken) == (1, True)

    def test_single_vote_is_identity(self):
        assert majority_vote([2], np.array([[0.1, 0.2, 0.7]])) == (2, False)

    def test_empty_votes_rejected(self):
        with pytest.raises(ValueError, match="at least one vote"):
            majority_vote([], np.zeros((0, 2)))

    def test_probability_row_count_must_match(self):
        with pytest.raises(ValueError, match="per vote"):
            majority_vote([0, 1], np.array([[0.5, 0.5]]))

    def test_exhaustive_three_voters_three_classes(self):
        """All 27 vote patterns match the count-then-mass oracle."""
        rng = np.random.default_rng(8)
        for votes in itertools.product(range(3), repeat=3):
            raw = rng.random((3, 3))
            probs = raw / raw.sum(axis=1, keepdims=True)
            # align each row's argmax with its vote so the pattern is realizable
            for i, v in enumerate(votes):
                top = probs[i].argmax()
                probs[i, top], probs[i, v] = probs[i, v], probs[i, top]
            assert majority_vote(list(votes), probs) == vote_oracle(list(votes), probs)

    def test_exhaustive_five_voters_two_classes(self):
        rng = np.random.default_rng(9)
        for votes in itertools.product(range(2), repeat=5):
            raw = rng.random((5, 2))
            probs = raw / raw.sum(axis=1, keepdims=True)
            for i, v in enumerate(votes):
                top = probs[i].argmax()
                probs[i, top], probs[i, v] = probs[i, v], probs[i, top]
            assert majority_vote(list(votes), probs) == vote_oracle(list(votes), probs)

    def test_binary_odd_panels_never_tie(self):
        """Odd expert counts cannot produce a count tie on two classes."""
        for n in (3, 5):
            for votes in itertools.product(range(2), repeat=n):
                probs = np.full((n, 2), 0.5)
                _, tie_broken = majority_vote(list(votes), probs)
                assert tie_broken is False

    @settings(max_examples=100)
    @given(data=st.data(), n=st.integers(min_value=1, max_value=7), c=st.integers(min_value=2, max_value=4))
    def test_permutation_invariance(self, data, n, c):
        votes = data.draw(st.lists(st.integers(min_value=0, max_value=c - 1), min_size=n, max_size=n))
        raw = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=c, max_size=c),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        probs = raw / raw.sum(axis=1, keepdims=True)
        final, _ = majority_vote(votes, probs)
        perm = data.draw(st.permutations(range(n)))
        shuffled_final, _ = majority_vote(
            [votes[i] for i in perm], probs[list(perm)]
        )
        assert final == shuffled_final


@pytest.fixture(scope="module")
def trained_toy():
    """A small trained model over 512-sample windows (2 classes)."""
    from pyrseiz.network import ModelConfig

    cfg = ModelConfig(
        kernel_counts=(6, 4, 2), fc1_width=8, dropout_rate=0.0, num_classes=2,
    )
    rng = np.random.default_rng(5)
    t = np.arange(512)
    rows = []
    for i in range(40):
        cycles = 4.0 if i % 2 == 0 else 40.0
        values = np.sin(2 * np.pi * cycles * t / 512 + rng.uniform(0, 2 * np.pi))
        values += 0.05 * rng.standard_normal(512)
        rows.append(values)
    windows = rows_window_set(np.stack(rows), labels=np.arange(40) % 2)
    params, _ = train(cfg, windows, TrainingConfig(epochs=4, batch_size=16, seed=0))
    return cfg, params, windows


class TestClassify:
    def test_returns_argmax_of_probabilities(self, trained_toy):
        cfg, params, windows = trained_toy
        records = classify(params, all_rows(windows)[:6].reshape(2, 3, 512))
        assert len(records) == 2
        for record in records:
            assert record.probabilities.shape == (3, 2)
            assert record.votes == tuple(int(v) for v in record.probabilities.argmax(axis=1))
            assert np.allclose(record.probabilities.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
            assert record.origin is None

    def test_zero_parameters_uniform_and_lowest_index(self, trained_toy):
        cfg, params, windows = trained_toy
        zeroed = params.copy()
        zeroed.learnable[:] = 0.0
        (record,) = classify(zeroed, all_rows(windows)[None, :3])
        assert np.allclose(record.probabilities, 0.5)
        assert record.votes == (0, 0, 0)  # argmax ties resolve to the lowest class index
        assert (record.final, record.tie_broken) == (0, False)

    def test_independent_of_batch_composition(self, trained_toy):
        """Running-stat inference: batch neighbors change nothing beyond BLAS ulps."""
        cfg, params, windows = trained_toy
        stacked = all_rows(windows)[:6]
        ws = Workspace(cfg, 6)
        batch_probs, _ = forward(params, stacked, ws, training=False)
        for i in (0, 3, 5):
            (solo,) = classify(params, stacked[i][None, None])
            assert np.allclose(solo.probabilities[0], batch_probs[i], rtol=0.0, atol=1e-12)
        grouped = classify(params, stacked.reshape(2, 3, 512))
        fused = np.concatenate([record.probabilities for record in grouped])
        assert np.allclose(fused, batch_probs, rtol=0.0, atol=1e-12)
        # identical calls are bitwise identical
        again, _ = forward(params, stacked, ws, training=False)
        assert np.array_equal(batch_probs, again)


    @pytest.mark.parametrize("name", ["M4", "M5"])
    def test_chunked_inference_matches_one_batch(self, name):
        """1,000 windows run in passes of INFER_BATCH give the probabilities
        of one 1,000-window batch."""
        cfg = model_config(name, 2)
        params = init_parameters(cfg, seed=4)
        windows = np.random.default_rng(4).standard_normal((200, 5, 512))
        records = classify(params, windows)
        one_batch, _ = forward(
            params, windows.reshape(1000, 512), Workspace(cfg, 1000), training=False
        )
        chunked = np.concatenate([r.probabilities for r in records])
        assert 1000 > INFER_BATCH
        assert np.allclose(chunked, one_batch, rtol=0.0, atol=1e-12)

    def test_records_are_never_overwritten(self, trained_toy):
        cfg, params, windows = trained_toy
        first = classify(params, all_rows(windows)[:6].reshape(2, 3, 512))
        kept = [r.probabilities.copy() for r in first]
        classify(params, all_rows(windows)[6:12].reshape(2, 3, 512))
        for record, probs in zip(first, kept):
            assert np.array_equal(record.probabilities, probs)


def _instance_from(rows, label, n):
    return SignalInstance(windows=rows[:n], label=label, origin=("R001", 0))


class TestPredictInstance:
    def test_unanimous_agreement(self, trained_toy):
        """When every window votes alike, the fused decision is that vote."""
        cfg, params, windows = trained_toy
        preds = np.array([r.votes[0] for r in classify(params, all_rows(windows)[:, None])])
        majority_class = int(np.bincount(preds).argmax())
        chosen = all_rows(windows)[preds == majority_class][:3]
        assert len(chosen) == 3
        instance = _instance_from(chosen, majority_class, 3)
        record = predict_instance(params, cfg, instance, SCHEME_1)
        assert set(record.votes) == {majority_class}
        assert record.final == majority_class
        assert record.tie_broken is False

    def test_scheme2_records_five_votes(self, trained_toy):
        cfg, params, windows = trained_toy
        instance = _instance_from(all_rows(windows)[windows.labels == 1], 1, 5)
        record = predict_instance(params, cfg, instance, SCHEME_2)
        assert len(record.votes) == 5
        assert record.probabilities.shape == (5, 2)
        assert record.origin == ("R001", 0)

    def test_another_config_rejected(self, trained_toy):
        cfg, params, windows = trained_toy
        instance = _instance_from(all_rows(windows), int(windows.labels[0]), 3)
        with pytest.raises(ValueError, match="params.config"):
            predict_instance(params, replace(cfg, dropout_rate=0.5), instance, SCHEME_1)

    def test_width_mismatch_rejected(self, trained_toy):
        cfg, params, windows = trained_toy
        instance = _instance_from(all_rows(windows), int(windows.labels[0]), 3)
        with pytest.raises(ValueError, match="expects 5"):
            predict_instance(params, cfg, instance, SCHEME_2)

    def test_single_expert_scheme_equals_window_decision(self, trained_toy):
        cfg, params, windows = trained_toy
        solo_scheme = SchemeSpec(id=1, train_stride=64, test_window_stride=513)
        assert solo_scheme.ensemble_width == 1
        instance = _instance_from(all_rows(windows), int(windows.labels[0]), 1)
        record = predict_instance(params, cfg, instance, solo_scheme)
        probs, _ = forward(params, instance.windows[0], Workspace(cfg, 1), training=False)
        assert record.final == int(probs[0].argmax()) and record.tie_broken is False


def test_vote_log_csv(tmp_path, trained_toy):
    cfg, params, windows = trained_toy
    instance = _instance_from(all_rows(windows), int(windows.labels[0]), 3)
    record = predict_instance(params, cfg, instance, SCHEME_1)
    path = tmp_path / "votes.csv"
    write_vote_log([record], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "record_id,subsignal_index,votes,final,tie_broken"
    assert lines[1].startswith("R001,0,")
