"""Round combinatorics of the eventual-agreement object (Section 5.2).

* ``coord(r) = ((r - 1) mod n) + 1`` — the coordinator of round ``r``;
  over an infinite execution every process coordinates infinitely often.
* ``F(r) = F_{index(r)}`` with ``index(r) = ((ceil(r/n) - 1) mod alpha) + 1``
  — the witness set of round ``r``, drawn from the ``alpha = C(n, n-t)``
  combinations of ``n - t`` processes.  ``F_1`` serves rounds ``1..n``,
  ``F_2`` rounds ``n+1..2n`` and so on, so every (coordinator, witness
  set) pair recurs infinitely often — the fact Lemma 3 relies on.

The paper does not fix the order ``F_1 .. F_alpha``; we use lexicographic
order over sorted process ids (docs/claims.md, Deviations 3) and
unrank combinations on demand, so ``alpha`` is never materialised.

The parameterized variant (Section 5.4) uses witness sets of size
``n - t + k`` — ``beta = C(n, n-t+k)`` of them — and a stronger
``<t+1+k>bisource``; its worst-case round bound in the timely-from-the-
start model is ``beta * n`` (``k = t`` gives the optimal ``n``).
"""

from __future__ import annotations

from math import ceil, comb

from ..errors import ConfigurationError

__all__ = [
    "alpha",
    "beta",
    "coordinator",
    "f_set_index",
    "combination_unrank",
    "f_set",
    "worst_case_round_bound",
]


def alpha(n: int, t: int) -> int:
    """Number of witness sets in the base algorithm: ``C(n, n - t)``."""
    return comb(n, n - t)


def beta(n: int, t: int, k: int) -> int:
    """Number of witness sets with tuning parameter ``k``: ``C(n, n-t+k)``."""
    _check_k(n, t, k)
    return comb(n, n - t + k)


def coordinator(r: int, n: int) -> int:
    """Coordinator of round ``r``: ``((r - 1) mod n) + 1``."""
    if r < 1:
        raise ConfigurationError(f"round numbers start at 1, got {r}")
    return ((r - 1) % n) + 1


def f_set_index(r: int, n: int, t: int, k: int = 0) -> int:
    """1-based index of the witness set used in round ``r``.

    ``index(r) = ((ceil(r / n) - 1) mod beta) + 1`` — the witness set
    changes every ``n`` rounds and cycles with period ``beta * n``.
    """
    if r < 1:
        raise ConfigurationError(f"round numbers start at 1, got {r}")
    return ((ceil(r / n) - 1) % beta(n, t, k)) + 1


def combination_unrank(n: int, size: int, rank: int) -> tuple[int, ...]:
    """The ``rank``-th (0-based) size-``size`` subset of ``{1..n}``.

    Subsets are ordered lexicographically as sorted tuples; the algorithm
    peels off the leading element by counting how many combinations start
    with each candidate, so it runs in ``O(n * size)`` without enumerating
    the ``C(n, size)`` subsets.
    """
    total = comb(n, size)
    if not 0 <= rank < total:
        raise ConfigurationError(
            f"rank {rank} out of range for C({n}, {size}) = {total}"
        )
    result: list[int] = []
    candidate = 1
    remaining = size
    while remaining > 0:
        with_candidate = comb(n - candidate, remaining - 1)
        if rank < with_candidate:
            result.append(candidate)
            remaining -= 1
        else:
            rank -= with_candidate
        candidate += 1
    return tuple(result)


def f_set(r: int, n: int, t: int, k: int = 0) -> frozenset[int]:
    """The witness set ``F(r)`` of round ``r`` (size ``n - t + k``)."""
    index = f_set_index(r, n, t, k)
    return frozenset(combination_unrank(n, n - t + k, index - 1))


def worst_case_round_bound(n: int, t: int, k: int = 0) -> int:
    """Rounds needed to meet every (coordinator, F) pair once: ``beta * n``.

    With a ``<t+1+k>bisource`` *from the very beginning*, the algorithm
    reaches a convergence round within one full cycle of (coordinator,
    witness-set) pairs (Section 5.4).  ``k = 0`` gives ``alpha * n``,
    ``k = t`` gives ``n`` — the best possible for a rotating-coordinator
    algorithm.
    """
    return beta(n, t, k) * n


def _check_k(n: int, t: int, k: int) -> None:
    if not 0 <= k <= t:
        raise ConfigurationError(f"tuning parameter k must be in 0..t, got {k}")
    if n - t + k > n:
        raise ConfigurationError(f"witness sets of size {n - t + k} exceed n={n}")
