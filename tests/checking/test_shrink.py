"""The minimizer's shrink loop, tested without a simulator.

Every registered mutant minimizes to the empty schedule, so the mutant
battery alone never exercises a shrink whose answer is *not* empty.
``_shrink`` takes a plain predicate, which lets these tests aim at exactly
that: hidden subsequences that must survive, non-monotone predicates
where a removal that fails now succeeds later, and the replay budget of
the chunked passes against the greedy loop they replaced
(``reference_minimize.py``).
"""

import math
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.checking import MUTANTS, Explorer, apply_mutant
from repro.checking.explorer import _reproduces, _shrink
from repro.checking.harness import DEFAULT_MAX_STEPS
from tests.checking.reference_minimize import greedy_shrink

schedules = st.lists(st.integers(0, 3), max_size=40).map(tuple)


def contains_subsequence(needle):
    def reproduces(schedule):
        remaining = iter(schedule)
        return all(choice in remaining for choice in needle)

    return reproduces


def assert_one_minimal(result, reproduces):
    assert reproduces(result)
    for index in range(len(result)):
        shorter = result[:index] + result[index + 1 :]
        assert not reproduces(shorter), f"choice {index} of {result} is removable"


@given(schedule=schedules, mask=st.lists(st.booleans(), min_size=40, max_size=40))
def test_hidden_subsequence_is_recovered_exactly(schedule, mask):
    # "Violates iff it contains this subsequence": the only 1-minimal
    # schedule is the subsequence itself.
    needle = tuple(c for c, keep in zip(schedule, mask) if keep)
    reproduces = contains_subsequence(needle)
    assert _shrink(schedule, reproduces) == needle
    assert greedy_shrink(schedule, reproduces) == needle


@given(schedule=schedules, salt=st.integers(0, 1000), density=st.integers(1, 4))
def test_non_monotone_predicates_still_end_one_minimal(schedule, salt, density):
    # An arbitrary (hash-driven) predicate: subsets of a reproducing
    # schedule need not reproduce, and a removal refused in one pass may
    # succeed in the next.  The contract does not care.
    def reproduces(candidate):
        if candidate == schedule:
            return True
        digest = zlib.crc32(repr((salt, candidate)).encode())
        return digest % 5 < density

    result = _shrink(schedule, reproduces)
    assert_one_minimal(result, reproduces)
    assert_one_minimal(greedy_shrink(schedule, reproduces), reproduces)


@given(schedule=schedules, modulus=st.integers(2, 5))
def test_length_parity_predicate(schedule, modulus):
    # Only lengths congruent to the original's reproduce: no single
    # removal ever helps, whole windows of the right size do — the
    # result may be shorter than the input but is always 1-minimal.
    residue = len(schedule) % modulus

    def reproduces(candidate):
        return len(candidate) % modulus == residue

    result = _shrink(schedule, reproduces)
    assert_one_minimal(result, reproduces)
    assert len(result) <= len(schedule)


def counting(reproduces):
    calls = []

    def counted(candidate):
        calls.append(candidate)
        return reproduces(candidate)

    return counted, calls


def test_everything_reproduces_takes_a_handful_of_replays():
    # The decide-any-support shape: 216 choices, every one irrelevant.
    # The greedy loop paid one replay per choice.
    schedule = tuple(range(216))
    predicate, calls = counting(lambda candidate: True)
    assert _shrink(schedule, predicate) == ()
    assert len(calls) <= 10
    predicate, calls = counting(lambda candidate: True)
    assert greedy_shrink(schedule, predicate) == ()
    assert len(calls) == 216


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 31, 64, 100, 217, 500])
def test_nothing_removable_stays_linear(n):
    # Worst case for the wide passes: they all fail, then the final
    # single-choice pass (the one 1-minimality rests on) runs anyway.
    schedule = tuple(range(n))
    predicate, calls = counting(lambda candidate: len(candidate) == n)
    assert _shrink(schedule, predicate) == schedule
    assert len(calls) <= 2 * n + math.log2(n)


def test_one_needed_choice_in_a_long_trail():
    schedule = tuple(range(200))
    predicate, calls = counting(lambda candidate: 137 in candidate)
    assert _shrink(schedule, predicate) == (137,)
    assert len(calls) <= 4 * math.ceil(math.log2(200))


def test_empty_schedule_needs_no_replay():
    predicate, calls = counting(lambda candidate: True)
    assert _shrink((), predicate) == ()
    assert calls == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_minimize_to_the_greedy_result(name):
    mutant = MUTANTS[name]
    with apply_mutant(name):
        config = mutant.scenario()
        found = Explorer(config, **{**mutant.budgets, "minimize": False}).run()
        assert found.verdict == "violation"

        def reproduces(candidate):
            return _reproduces(
                config, candidate, mutant.expected_checks, None,
                DEFAULT_MAX_STEPS,
            )

        raw = found.raw_counterexample
        assert _shrink(raw, reproduces) == greedy_shrink(raw, reproduces)
