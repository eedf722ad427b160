"""Randomized binary Byzantine consensus baseline (paper reference [22]).

The paper's introduction contrasts its deterministic, synchrony-minimal
algorithm with randomized algorithms that need *no* synchrony but only
terminate with probability 1.  This module implements the signature-free
binary algorithm of Mostéfaoui, Moumen and Raynal (PODC 2014) — reference
[22] of the paper — on the same simulation substrate:

* **BV-broadcast**: an all-to-all binary broadcast whose output set
  ``bin_values`` eventually contains only values proposed by correct
  processes (a binary sibling of the paper's CB-broadcast);
* per round: BV-broadcast the estimate, exchange AUX messages supported
  by ``bin_values``, then compare the surviving value set with a common
  coin — deciding when they match.

**Substitution note (docs/claims.md, Deviations 4):** the common coin is a Rabin-style
shared random oracle, simulated by a seeded stream all processes share;
the adversary cannot read or bias it.  This is the standard idealisation
used by [22] itself.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError
from ..net.messages import Message
from ..runtime.process import Process
from ..sim.futures import Future
from ..sim.random import substream

__all__ = ["CommonCoin", "BinaryValueBroadcast", "RandomizedBinaryConsensus"]


class CommonCoin:
    """A perfect common coin: one shared random bit per round.

    All processes observing the same ``seed`` see identical, unbiased,
    adversary-independent bits — the random-oracle idealisation of [22].
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def flip(self, round_number: int) -> int:
        """The common bit for ``round_number`` (deterministic in seed)."""
        return substream(self.seed, "common-coin", round_number).randrange(2)


class BinaryValueBroadcast:
    """BV-broadcast ([22]): per-round all-to-all binary value filtering.

    Rules for value ``b`` in round ``r``:

    * relay ``BV(r, b)`` after receiving it from ``t + 1`` distinct
      senders (if not yet relayed);
    * add ``b`` to ``bin_values[r]`` after ``2t + 1`` distinct senders.

    Guarantees: ``bin_values`` only ever contains values BV-broadcast by
    correct processes; if all correct processes BV-broadcast ``b`` then
    ``b`` eventually joins every correct ``bin_values``; the sets
    converge.
    """

    TAG = "BV_VAL"

    def __init__(self, process: Process, n: int, t: int) -> None:
        self.process = process
        self.n = n
        self.t = t
        # (round, value) -> senders
        self._support: dict[tuple[int, int], set[int]] = {}
        self._relayed: set[tuple[int, int]] = set()
        self._bin_values: dict[int, set[int]] = {}
        process.register_handler(self.TAG, self._on_message)

    def broadcast(self, round_number: int, value: int) -> None:
        """BV-broadcast ``value`` for ``round_number``."""
        self._relayed.add((round_number, value))
        self.process.broadcast(self.TAG, (round_number, value))

    def bin_values(self, round_number: int) -> set[int]:
        """The live ``bin_values`` set for a round."""
        return self._bin_values.setdefault(round_number, set())

    def _on_message(self, message: Message) -> None:
        payload = message.payload
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or not isinstance(payload[0], int)
            or payload[1] not in (0, 1)
        ):
            return  # malformed Byzantine payload
        round_number, value = payload
        senders = self._support.setdefault((round_number, value), set())
        if message.sender in senders:
            return
        senders.add(message.sender)
        if len(senders) >= self.t + 1 and (round_number, value) not in self._relayed:
            self._relayed.add((round_number, value))
            self.process.broadcast(self.TAG, (round_number, value))
        if len(senders) >= 2 * self.t + 1:
            self.bin_values(round_number).add(value)


class RandomizedBinaryConsensus:
    """The MMR round loop: BV-broadcast, AUX exchange, common coin.

    Termination is probabilistic (expected O(1) rounds with a perfect
    coin) and requires **no synchrony whatsoever** — the baseline's
    selling point; the price is randomization and a binary value domain.
    """

    AUX = "RBC_AUX"

    def __init__(
        self,
        process: Process,
        n: int,
        t: int,
        coin: CommonCoin,
        max_rounds: int | None = None,
    ) -> None:
        if not n > 3 * t:
            raise ConfigurationError(f"requires n > 3t, got n={n}, t={t}")
        self.process = process
        self.n = n
        self.t = t
        self.coin = coin
        self.max_rounds = max_rounds
        self.bv = BinaryValueBroadcast(process, n, t)
        # round -> {sender: value} (first AUX per sender per round)
        self._aux: dict[int, dict[int, int]] = {}
        #: Resolves with the decided bit.
        self.decision: Future = Future(name=f"p{process.pid}.rbc-decision")
        #: Round at which this process decided (None before).
        self.decided_round: int | None = None
        #: Rounds entered so far.
        self.rounds_executed = 0
        process.register_handler(self.AUX, self._on_aux)

    async def propose(self, value: int) -> int:
        """Propose a bit; returns the decided bit (probabilistically)."""
        if value not in (0, 1):
            raise ConfigurationError(f"binary consensus takes 0 or 1, got {value!r}")
        est = value
        r = 0
        while self.max_rounds is None or r < self.max_rounds:
            r += 1
            self.rounds_executed = r
            self.bv.broadcast(r, est)
            await self.process.wait_until(lambda: bool(self.bv.bin_values(r)))
            # Broadcast one supported value (deterministic pick).
            w = min(self.bv.bin_values(r))
            self.process.broadcast(self.AUX, (r, w))
            values = await self.process.wait_until(lambda: self._aux_quorum(r))
            s = self.coin.flip(r)
            if len(values) == 1:
                (b,) = values
                est = b
                if b == s and not self.decision.done():
                    self.decided_round = r
                    self.decision.set_result(b)
                if self.decision.done() and self.decision.result() == est:
                    # Everyone with a singleton {b} decided or adopted b;
                    # keep looping so laggards can finish, unless capped.
                    if self.max_rounds is None and r >= (self.decided_round or r) + 2:
                        return self.decision.result()
            else:
                est = s
        if self.decision.done():
            return self.decision.result()
        raise ConfigurationError(
            f"randomized consensus did not decide within {self.max_rounds} rounds"
        )

    def _aux_quorum(self, r: int) -> frozenset[int] | None:
        """``n - t`` AUX values, every one inside ``bin_values[r]``."""
        received = self._aux.setdefault(r, {})
        bin_values = self.bv.bin_values(r)
        qualifying = {
            sender: value
            for sender, value in received.items()
            if value in bin_values
        }
        if len(qualifying) >= self.n - self.t:
            return frozenset(qualifying.values())
        return None

    def _on_aux(self, message: Message) -> None:
        payload = message.payload
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or not isinstance(payload[0], int)
            or payload[1] not in (0, 1)
        ):
            return
        round_number, value = payload
        per_round = self._aux.setdefault(round_number, {})
        if message.sender not in per_round:
            per_round[message.sender] = value
