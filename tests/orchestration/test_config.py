"""Unit tests for run configuration validation."""

import pytest

from repro import RunConfig
from repro.adversary import crash
from repro.errors import ConfigurationError, FeasibilityError


class TestValidation:
    def test_resilience_bound(self):
        with pytest.raises(ConfigurationError):
            RunConfig(n=3, t=1, proposals={1: "v", 2: "v"},
                      adversaries={3: crash()})

    def test_too_many_adversaries(self):
        with pytest.raises(ConfigurationError):
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v"},
                      adversaries={3: crash(), 4: crash()})

    def test_proposals_must_cover_correct_exactly(self):
        with pytest.raises(ConfigurationError):
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v"},
                      adversaries={4: crash()})  # p3 missing
        with pytest.raises(ConfigurationError):
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v", 4: "v"},
                      adversaries={4: crash()})  # p4 is faulty

    def test_adversary_pid_out_of_range(self):
        with pytest.raises(ConfigurationError):
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v", 4: "v"},
                      adversaries={9: crash()})

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v", 4: "v"},
                      variant="magic")

    def test_k_bounds(self):
        with pytest.raises(ConfigurationError):
            RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v", 4: "v"}, k=2)

    @pytest.mark.parametrize("budget", ["max_time", "max_events"])
    def test_negative_budgets_refused(self, budget):
        proposals = {1: "v", 2: "v", 3: "v", 4: "v"}
        with pytest.raises(ConfigurationError, match=budget):
            RunConfig(n=4, t=1, proposals=proposals, **{budget: -1})
        # Zero is "run nothing", not an error.
        assert getattr(RunConfig(n=4, t=1, proposals=proposals, **{budget: 0}),
                       budget) == 0

    def test_m_derived_from_proposals(self):
        config = RunConfig(n=4, t=1, proposals={1: "a", 2: "b", 3: "a"},
                           adversaries={4: crash()})
        assert config.m == 2

    def test_derived_m_checked(self):
        with pytest.raises(FeasibilityError):
            RunConfig(n=4, t=1, proposals={1: "a", 2: "b", 3: "c"},
                      adversaries={4: crash()})

    def test_bot_variant_skips_feasibility(self):
        config = RunConfig(n=4, t=1, proposals={1: "a", 2: "b", 3: "c"},
                           adversaries={4: crash()}, variant="bot")
        assert config.m is None

    def test_explicit_m_preserved(self):
        config = RunConfig(n=7, t=2,
                           proposals={1: "a", 2: "a", 3: "a", 4: "a", 5: "a"},
                           adversaries={6: crash(), 7: crash()}, m=2)
        assert config.m == 2


class TestDerivedSets:
    def test_correct_and_byzantine(self):
        config = RunConfig(n=4, t=1, proposals={1: "v", 2: "v", 3: "v"},
                           adversaries={4: crash()})
        assert config.correct == frozenset({1, 2, 3})
        assert config.byzantine == frozenset({4})
