"""Exact work counts of the Byzantine send path on the ``sweep_deep``
benchmark cells (seed 411, ``two_faced:evil`` at n=16 and n=31).

Counts, not timings, so they repeat on any machine.  An equivocating
process filters every destination of a broadcast and sends the survivors
as one ``Network.fan_out``: no per-destination ``Network.send`` call is
left, and the traffic itself — ``messages_sent`` — is what it was when
each destination took its own send (14 112 and 101 308 of them).
"""

import pytest

from repro.net import Network
from repro.orchestration import ScenarioMatrix
from repro.orchestration.matrix import build_config
from repro.orchestration.runner import run_consensus
from tests.net import reference_delivery_path as reference

#: ``(n, t) -> (messages_sent, per-destination sends before batching)``.
CELLS = {(16, 5): (45_200, 14_112), (31, 10): (313_999, 101_308)}


def cell_config(n, t):
    matrix = ScenarioMatrix(
        sizes=[(n, t)], topologies=["minimal"], adversaries=["two_faced:evil"],
        value_counts=[2], value_pool=["a", "b"], seeds=range(1), base_seed=411,
    )
    (spec,) = matrix.expand()
    return build_config(spec)


def counted_sends(monkeypatch, senders):
    """Count the ``Network.send`` calls made for pids in ``senders``."""
    calls = [0]
    send = Network.send

    def counting(self, src, *args):
        if src in senders:
            calls[0] += 1
        return send(self, src, *args)

    monkeypatch.setattr(Network, "send", counting)
    return calls


@pytest.mark.parametrize("size", sorted(CELLS))
def test_an_equivocating_cell_makes_no_per_destination_send(size, monkeypatch):
    config = cell_config(*size)
    calls = counted_sends(monkeypatch, range(1, config.n + 1))
    result = run_consensus(config, check_invariants=False)
    assert result.all_decided
    assert (result.messages_sent, calls[0]) == (CELLS[size][0], 0)


def test_the_reference_path_made_one_send_per_byzantine_destination(monkeypatch):
    config = cell_config(16, 5)
    calls = counted_sends(monkeypatch, set(config.adversaries))
    reference.install(monkeypatch)
    result = run_consensus(config, check_invariants=False)
    assert (result.messages_sent, calls[0]) == CELLS[(16, 5)]
