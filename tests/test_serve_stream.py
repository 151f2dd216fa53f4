"""Streaming-session tests: windowing math and majority-vote smoothing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import StreamWindower, sliding_window_count, sliding_windows
from repro.serve import InferenceServer, MajorityVoter, Priority, StreamSession


# --------------------------------------------------------------------- #
# Incremental windowing (the data-layer substrate of the stream)
# --------------------------------------------------------------------- #
class TestStreamWindower:
    @given(
        total=st.integers(min_value=0, max_value=600),
        window=st.integers(min_value=1, max_value=50),
        slide=st.integers(min_value=1, max_value=50),
        chunk=st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=40, deadline=None)
    def test_emission_count_matches_offline_math(self, total, window, slide, chunk):
        signal = np.arange(2 * total, dtype=np.float64).reshape(2, total)
        windower = StreamWindower(window, slide, num_channels=2)
        emitted = 0
        for start in range(0, total, chunk):
            emitted += windower.push(signal[:, start : start + chunk]).shape[0]
        assert emitted == sliding_window_count(total, window, slide)
        assert windower.windows_emitted == emitted
        assert windower.samples_seen == total

    def test_streamed_windows_match_offline_segmentation_bitwise(self):
        rng = np.random.default_rng(3)
        signal = rng.normal(size=(4, 321))
        offline = sliding_windows(signal, window=30, slide=7)
        windower = StreamWindower(30, 7, num_channels=4)
        streamed = [windower.push(signal[:, s : s + 41]) for s in range(0, 321, 41)]
        streamed = np.concatenate([w for w in streamed if w.shape[0]], axis=0)
        np.testing.assert_array_equal(streamed, offline)

    def test_single_channel_vector_accepted(self):
        windower = StreamWindower(4, 2, num_channels=1)
        windows = windower.push(np.arange(10.0))
        assert windows.shape == (4, 1, 4)

    def test_channel_mismatch_rejected(self):
        windower = StreamWindower(4, 2, num_channels=3)
        with pytest.raises(ValueError, match="chunk"):
            windower.push(np.zeros((2, 10)))

    def test_reset_forgets_buffer(self):
        windower = StreamWindower(5, 5, num_channels=1)
        windower.push(np.zeros((1, 7)))
        windower.reset()
        assert windower.pending_samples == 0
        assert windower.push(np.zeros((1, 4))).shape[0] == 0


# --------------------------------------------------------------------- #
# Majority-vote smoothing
# --------------------------------------------------------------------- #
class TestMajorityVoter:
    def test_hand_computed_sequence(self):
        # History 3; votes over the trailing window, ties -> smallest label.
        voter = MajorityVoter(history=3)
        sequence = [2, 2, 5, 5, 5, 1, 0, 0]
        #   window:  [2] [2,2] [2,2,5] [2,5,5] [5,5,5] [5,5,1] [5,1,0] [1,0,0]
        expected = [2, 2, 2, 5, 5, 5, 0, 0]
        assert [voter.vote(label) for label in sequence] == expected

    def test_single_spurious_window_is_suppressed(self):
        voter = MajorityVoter(history=5)
        labels = [3, 3, 3, 7, 3, 3]
        smoothed = [voter.vote(label) for label in labels]
        assert smoothed == [3] * 6

    def test_history_one_disables_smoothing(self):
        voter = MajorityVoter(history=1)
        labels = [4, 1, 1, 6]
        assert [voter.vote(label) for label in labels] == labels

    def test_tie_breaks_toward_smallest_label(self):
        voter = MajorityVoter(history=4)
        for label in (9, 9, 2, 2):
            smoothed = voter.vote(label)
        assert smoothed == 2

    def test_rejects_non_positive_history(self):
        with pytest.raises(ValueError):
            MajorityVoter(history=0)

    def test_history_is_frozen_after_construction(self):
        voter = MajorityVoter(history=3)
        assert voter.history == 3
        with pytest.raises(AttributeError):
            voter.history = 7
        # __slots__: arbitrary attributes (e.g. a typoed knob) don't stick.
        with pytest.raises(AttributeError):
            voter.histroy = 7

    def test_three_way_tie_smallest_wins(self):
        voter = MajorityVoter(history=3)
        for label in (7, 4, 2):
            smoothed = voter.vote(label)
        assert smoothed == 2

    def test_tie_break_is_content_not_order(self):
        # The winner of a tied window depends only on *which* labels tied,
        # never on their arrival order — the evaluator's vote-depth sweep
        # replays recorded labels and must land on identical decisions.
        import itertools

        for ordering in itertools.permutations((9, 9, 2, 2)):
            voter = MajorityVoter(history=4)
            for label in ordering:
                smoothed = voter.vote(label)
            assert smoothed == 2, ordering

    def test_depth_one_is_argmax_passthrough_from_any_state(self):
        # Depth 1 must echo every raw label even mid-stream after resets:
        # the sweep's depth-1 row *is* the raw (window) accuracy.
        voter = MajorityVoter(history=1)
        labels = [5, 0, 3, 3, 0, 7]
        assert [voter.vote(label) for label in labels] == labels
        voter.reset()
        assert voter.vote(2) == 2

    def test_partial_history_votes_are_well_defined(self):
        # Before the window fills, the vote runs over what exists; the
        # very first vote is always the first label.
        voter = MajorityVoter(history=9)
        assert voter.vote(6) == 6
        assert voter.vote(4) == 4  # tie {6: 1, 4: 1} -> smallest
        assert voter.vote(6) == 6

    def test_recent_returns_immutable_tuple(self):
        voter = MajorityVoter(history=3)
        for label in (4, 1, 1):
            voter.vote(label)
        window = voter.recent
        assert window == (4, 1, 1)
        assert isinstance(window, tuple)
        # The returned view never aliases the live deque.
        voter.vote(9)
        assert window == (4, 1, 1)
        assert voter.recent == (1, 1, 9)

    def test_state_round_trip_preserves_future_votes(self):
        voter = MajorityVoter(history=3)
        for label in (2, 2, 5):
            voter.vote(label)
        clone = MajorityVoter(history=3)
        clone.load_state(voter.state())
        tail = [7, 7, 5, 5]
        assert [clone.vote(l) for l in tail] == [voter.vote(l) for l in tail]

    def test_state_is_json_friendly(self):
        import json

        voter = MajorityVoter(history=4)
        voter.vote(3)
        state = json.loads(json.dumps(voter.state()))
        clone = MajorityVoter(history=4)
        clone.load_state(state)
        assert clone.recent == (3,)

    def test_load_state_rejects_history_mismatch(self):
        voter = MajorityVoter(history=3)
        voter.vote(1)
        other = MajorityVoter(history=5)
        with pytest.raises(ValueError, match="history"):
            other.load_state(voter.state())

    def test_load_state_rejects_overlong_window(self):
        voter = MajorityVoter(history=2)
        with pytest.raises(ValueError, match="2 labels|history"):
            voter.load_state({"history": 2, "recent": [1, 2, 3]})


# --------------------------------------------------------------------- #
# StreamSession end-to-end
# --------------------------------------------------------------------- #
def label_by_mean(windows: np.ndarray) -> np.ndarray:
    """Deterministic toy classifier: label = sign bucket of the window mean."""
    means = windows.mean(axis=(1, 2))
    return (means > 0).astype(np.int64)


class TestStreamSession:
    def test_decision_count_matches_windowing_math(self):
        rng = np.random.default_rng(11)
        session = StreamSession(label_by_mean, window=40, slide=10, num_channels=3)
        signal = rng.normal(size=(3, 507))
        decisions = session.run(signal, chunk_size=53)
        assert len(decisions) == sliding_window_count(507, 40, 10)
        assert [d.window_index for d in decisions] == list(range(len(decisions)))
        assert session.windows_classified == len(decisions)

    def test_smoothing_matches_manual_vote_replay(self):
        rng = np.random.default_rng(13)
        session = StreamSession(
            label_by_mean, window=20, slide=5, num_channels=2, smoothing=3
        )
        session.run(rng.normal(size=(2, 300)), chunk_size=17)
        raw = session.labels(smoothed=False)
        replay = MajorityVoter(history=3)
        expected = [replay.vote(int(label)) for label in raw]
        assert session.labels(smoothed=True).tolist() == expected

    def test_short_chunks_emit_nothing_until_window_completes(self):
        session = StreamSession(label_by_mean, window=50, slide=50, num_channels=1)
        assert session.push(np.zeros((1, 30))) == []
        assert session.current_label is None
        produced = session.push(np.ones((1, 30)))
        assert len(produced) == 1
        assert session.current_label == produced[0].smoothed_label

    def test_preprocessor_applied_before_classification(self):
        seen = {}

        def spy_preprocessor(windows):
            seen["shape"] = windows.shape
            return windows * 0.0  # force every mean to 0 -> label 0

        session = StreamSession(
            label_by_mean,
            window=10,
            slide=10,
            num_channels=2,
            preprocessor=spy_preprocessor,
        )
        decisions = session.push(np.ones((2, 30)))
        assert seen["shape"] == (3, 2, 10)
        assert [d.label for d in decisions] == [0, 0, 0]

    def test_run_accepts_1d_single_channel_signal(self):
        """Regression: ``run`` sliced axis 0 of a 1-D signal (the channel
        axis after ``push``'s lift), silently feeding wrong chunks."""
        signal = np.arange(200.0)
        flat = StreamSession(label_by_mean, window=20, slide=10, num_channels=1)
        flat_decisions = flat.run(signal, chunk_size=33)
        lifted = StreamSession(label_by_mean, window=20, slide=10, num_channels=1)
        lifted_decisions = lifted.run(signal[None, :], chunk_size=33)
        assert len(flat_decisions) == sliding_window_count(200, 20, 10)
        assert flat.samples_seen == 200
        assert [d.label for d in flat_decisions] == [d.label for d in lifted_decisions]

    def test_reset_clears_state(self):
        session = StreamSession(label_by_mean, window=10, slide=5, num_channels=1)
        session.push(np.ones((1, 25)))
        session.reset()
        assert session.windows_classified == 0
        assert session.samples_seen == 0
        assert session.current_label is None

    @pytest.mark.parametrize("chunk_size", [0, -1, -64])
    def test_run_rejects_non_positive_chunk_size(self, chunk_size):
        """Regression: ``chunk_size=0`` made ``range(0, n, 0)`` raise an
        opaque ``ValueError`` from ``range`` (and a negative chunk silently
        produced zero decisions); ``run`` now validates up front."""
        session = StreamSession(label_by_mean, window=10, slide=5, num_channels=1)
        with pytest.raises(ValueError, match="chunk_size"):
            session.run(np.zeros((1, 100)), chunk_size=chunk_size)
        # Nothing was consumed by the rejected call.
        assert session.samples_seen == 0

    def test_stream_through_inference_server(self):
        rng = np.random.default_rng(17)
        with InferenceServer(
            "bio1",
            "float",
            patch_size=10,
            model_kwargs=dict(num_channels=4, window_samples=60, seed=11),
            max_batch_size=8,
        ) as server:
            session = server.open_stream(slide=15, smoothing=3)
            decisions = session.run(rng.normal(size=(4, 400)), chunk_size=64)
        assert len(decisions) == sliding_window_count(400, 60, 15)
        assert all(0 <= d.label < 8 for d in decisions)
        assert all(0 <= d.smoothed_label < 8 for d in decisions)

    def test_stream_classifies_at_high_priority(self):
        rng = np.random.default_rng(19)
        with InferenceServer(
            "bio1",
            "float",
            patch_size=10,
            model_kwargs=dict(num_channels=4, window_samples=60, seed=11),
            max_batch_size=8,
        ) as server:
            session = server.open_stream(slide=30, smoothing=1)
            session.run(rng.normal(size=(4, 240)), chunk_size=60)
            by_priority = server.stats.by("batcher_requests", "priority")
        # Every stream window was served at HIGH priority, so a loaded
        # server batches live sessions ahead of queued bulk scoring.
        assert by_priority.get(int(Priority.HIGH), 0) == sliding_window_count(240, 60, 30)
        assert int(Priority.LOW) not in by_priority

    def test_push_rejects_channel_mismatch_before_windowing(self):
        def classify(windows):
            return np.zeros(windows.shape[0], dtype=np.int64)

        session = StreamSession(classify, window=60, slide=30, num_channels=4)
        with pytest.raises(ValueError, match="expects 4 channel"):
            session.push(np.zeros((3, 100)))
        with pytest.raises(ValueError, match="expects 4 channel"):
            session.push(np.zeros(100))  # 1-D chunk implies 1 channel
        with pytest.raises(ValueError, match="channel"):
            session.push(np.zeros((4, 2, 50)))  # 3-D chunk is never valid
        # The rejected chunks never reached the windower's buffer.
        assert session.samples_seen == 0
        session.push(np.zeros((4, 100)))
        assert session.samples_seen == 100

    def test_push_accepts_1d_chunk_for_single_channel_session(self):
        def classify(windows):
            return np.zeros(windows.shape[0], dtype=np.int64)

        session = StreamSession(classify, window=20, slide=10, num_channels=1)
        decisions = session.push(np.zeros(25))
        assert len(decisions) == 1
        assert session.samples_seen == 25

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_push_rejects_non_finite_chunks(self, poison):
        """A raw-session user gets the same typed admission error the
        server uses — one NaN sample would otherwise be windowed into up
        to window//slide consecutive windows and poison that many votes."""

        def classify(windows):
            return np.zeros(windows.shape[0], dtype=np.int64)

        session = StreamSession(classify, window=20, slide=10, num_channels=2)
        chunk = np.ones((2, 30))
        chunk[1, 7] = poison
        with pytest.raises(ValueError, match="non-finite"):
            session.push(chunk)
        # The rejected chunk never reached the windower's buffer.
        assert session.samples_seen == 0
        session.push(np.ones((2, 30)))
        assert session.samples_seen == 30

    def test_push_rejects_unsafe_dtype(self):
        def classify(windows):
            return np.zeros(windows.shape[0], dtype=np.int64)

        session = StreamSession(classify, window=10, slide=5, num_channels=1)
        with pytest.raises(ValueError, match="dtype"):
            session.push(np.array(["a", "b", "c"]))
        assert session.samples_seen == 0
