"""Unit tests for sweep helpers."""

from repro.orchestration.sweeps import (
    format_table,
    standard_proposals,
)


class TestStandardProposals:
    def test_round_robin(self):
        proposals = standard_proposals([1, 2, 3, 4, 5], ["a", "b"])
        assert proposals == {1: "a", 2: "b", 3: "a", 4: "b", 5: "a"}

    def test_single_value(self):
        proposals = standard_proposals([3, 1], ["v"])
        assert proposals == {1: "v", 3: "v"}

    def test_all_values_used_when_enough_processes(self):
        proposals = standard_proposals(range(1, 6), ["x", "y"])
        assert set(proposals.values()) == {"x", "y"}


class TestFeasibleValueCount:
    def test_clamps_to_bound(self):
        from repro.orchestration.sweeps import feasible_value_count

        assert feasible_value_count(4, 1, requested=5) == 2
        assert feasible_value_count(7, 1, requested=3) == 3
        assert feasible_value_count(7, 2, requested=1) == 1

    def test_never_below_one(self):
        from repro.orchestration.sweeps import feasible_value_count

        assert feasible_value_count(4, 1, requested=0) == 1


class TestFormatTable:
    def test_alignment_and_rows(self):
        table = format_table(["name", "n"], [["alpha", 1], ["b", 22]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("name")
        assert all(len(line) <= len(lines[0]) + 10 for line in lines)

    def test_empty_rows(self):
        table = format_table(["h"], [])
        assert "h" in table


class TestProposalProfiles:
    def test_registry_contains_all_profiles(self):
        from repro.orchestration.sweeps import PROPOSAL_PROFILES

        assert set(PROPOSAL_PROFILES) == {
            "round_robin", "block", "skewed", "unanimous",
        }

    def test_every_profile_covers_exactly_the_correct_set(self):
        from repro.orchestration.sweeps import PROPOSAL_PROFILES

        correct = [1, 2, 4, 5, 7]
        for name, profile in PROPOSAL_PROFILES.items():
            proposals = profile(correct, ["a", "b"])
            assert sorted(proposals) == correct, name

    def test_block_deals_contiguous_blocks(self):
        from repro.orchestration.sweeps import block_proposals

        assert block_proposals([1, 2, 3, 4], ["a", "b"]) == {
            1: "a", 2: "a", 3: "b", 4: "b",
        }

    def test_skewed_gives_slack_to_first_value(self):
        from repro.orchestration.sweeps import skewed_proposals

        assert skewed_proposals([1, 2, 3, 4, 5], ["a", "b", "c"]) == {
            1: "a", 2: "a", 3: "a", 4: "b", 5: "c",
        }

    def test_unanimous_single_value(self):
        from repro.orchestration.sweeps import unanimous_proposals

        assert set(unanimous_proposals([1, 2, 3], ["a", "b"]).values()) == {"a"}

    def test_unknown_profile_rejected(self):
        import pytest

        from repro.orchestration.sweeps import proposal_profile

        with pytest.raises(ValueError, match="unknown proposal profile"):
            proposal_profile("chaotic")
