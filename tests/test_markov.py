"""Tests for the operation Markov chain."""

import random

import pytest

from repro.errors import ValidationError
from repro.graph.markov import END, MarkovChain
from repro.workloads.corpus import OPERATION_SEQUENCES


class TestFit:
    def test_requires_nonempty_input(self):
        with pytest.raises(ValidationError):
            MarkovChain().fit([])
        with pytest.raises(ValidationError):
            MarkovChain().fit([[], []])

    def test_states_collected(self):
        chain = MarkovChain().fit([["A", "B"], ["B", "C"]])
        assert chain.states == ["A", "B", "C"]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            MarkovChain(alpha=-1.0)


class TestProbabilities:
    def test_distribution_sums_to_one(self):
        chain = MarkovChain().fit(OPERATION_SEQUENCES)
        for state in chain.states:
            probs = chain.transition_probabilities(state)
            assert sum(probs.values()) == pytest.approx(1.0)
            assert all(p > 0 for p in probs.values())  # smoothing

    def test_observed_transitions_dominate(self):
        chain = MarkovChain(alpha=0.1).fit([["A", "B"]] * 10)
        probs = chain.transition_probabilities("A")
        assert probs["B"] > 0.9

    def test_unfitted_chain_raises(self):
        with pytest.raises(ValidationError):
            MarkovChain().transition_probabilities("A")


class TestSampling:
    def test_sample_operation_never_returns_end(self):
        chain = MarkovChain().fit(OPERATION_SEQUENCES)
        rng = random.Random(1)
        for _ in range(200):
            op = chain.sample_operation("AGG", rng)
            assert op != END
            assert op in chain.states

    def test_start_state_produces_scan_heavy_ops(self):
        chain = MarkovChain(alpha=0.01).fit(OPERATION_SEQUENCES)
        rng = random.Random(2)
        first_ops = [chain.sample_operation(None, rng) for _ in range(300)]
        assert first_ops.count("SCAN") > 250  # corpus always starts SCAN
