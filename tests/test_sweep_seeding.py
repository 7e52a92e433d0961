"""Tests for repro.sweep.seeding — the seed-derivation policy."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.sweep import key_entropy, trial_rngs, trial_seed_sequences


def stream(rng, n=16):
    return rng.random(n).tolist()


class TestCrossBatchIndependence:
    def test_nearby_batches_never_share_streams(self):
        """The regression the policy exists for: with the old ``seed + t``
        derivation, batch seed=0 trial 5 and batch seed=5 trial 0 were the
        SAME generator.  Spawned streams must never collide."""
        batch0 = [stream(rng) for rng in trial_rngs(0, 6)]
        batch5 = [stream(rng) for rng in trial_rngs(5, 6)]
        for i, s0 in enumerate(batch0):
            for j, s5 in enumerate(batch5):
                assert s0 != s5, f"batch 0 trial {i} == batch 5 trial {j}"

    def test_old_derivation_did_collide(self):
        """Documents the bug: the additive scheme aliases across batches."""
        old_b0_t5 = stream(np.random.default_rng(0 + 5))
        old_b5_t0 = stream(np.random.default_rng(5 + 0))
        assert old_b0_t5 == old_b5_t0

    def test_trials_within_batch_distinct(self):
        streams = [stream(rng) for rng in trial_rngs(42, 8)]
        assert len({tuple(s) for s in streams}) == 8


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = [stream(rng) for rng in trial_rngs(7, 4)]
        b = [stream(rng) for rng in trial_rngs(7, 4)]
        assert a == b

    def test_trial_stream_independent_of_batch_size(self):
        """Trial t only depends on (seed, cell_key, t) — growing the batch
        must not reshuffle earlier trials (cache entries stay valid)."""
        small = [stream(rng) for rng in trial_rngs(7, 2)]
        large = [stream(rng) for rng in trial_rngs(7, 8)]
        assert small == large[:2]

    def test_cell_key_separates_streams(self):
        plain = [stream(rng) for rng in trial_rngs(7, 2)]
        keyed = [stream(rng) for rng in trial_rngs(7, 2, cell_key="cellA")]
        other = [stream(rng) for rng in trial_rngs(7, 2, cell_key="cellB")]
        assert plain != keyed
        assert keyed != other

    def test_key_entropy_stable_and_spread(self):
        assert key_entropy("x") == key_entropy("x")
        assert key_entropy("x") != key_entropy("y")
        assert 0 <= key_entropy("x") < 2 ** 128


class TestSelectedTrials:
    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(batch_seed=st.integers(0, 2 ** 63 - 1),
           cell_key=st.none() | st.text(max_size=24),
           n_and_t=st.integers(1, 300).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
    def test_selected_child_equals_spawned_child(self, batch_seed,
                                                 cell_key, n_and_t):
        n, t = n_and_t
        entropy = ([batch_seed] if cell_key is None
                   else [batch_seed, key_entropy(cell_key)])
        spawned = np.random.SeedSequence(entropy).spawn(n)[t]
        (direct,) = trial_seed_sequences(batch_seed, n, cell_key=cell_key,
                                         trials=(t,))
        assert np.array_equal(direct.generate_state(8),
                              spawned.generate_state(8))

    def test_children_follow_the_given_order(self):
        every = trial_seed_sequences(3, 6, cell_key="c")
        picked = trial_seed_sequences(3, 6, cell_key="c", trials=[4, 1, 4])
        assert [s.generate_state(4).tolist() for s in picked] == \
            [every[t].generate_state(4).tolist() for t in (4, 1, 4)]

    @pytest.mark.parametrize("trial", [-1, 6, 100])
    def test_index_outside_the_batch_raises(self, trial):
        with pytest.raises(IndexError):
            trial_seed_sequences(3, 6, trials=(trial,))


class TestValidation:
    def test_negative_trials_raise(self):
        with pytest.raises(ValueError):
            trial_seed_sequences(0, -1)

    def test_zero_trials_ok(self):
        assert trial_seed_sequences(0, 0) == []
