"""Section 5.4: eventual agreement with the tuning parameter k > 0."""

from repro import RunConfig, run_consensus
from repro.adversary import crash
from repro.core.eventual_agreement import EventualAgreement
from repro.net import single_bisource
from tests.helpers import build_system


class TestConstruction:
    def test_witness_set_size(self):
        system = build_system(7, 2)
        ea = EventualAgreement(
            system.processes[1], system.rbs[1], 7, 2, m=2, k=1
        )
        assert ea.f_size == 6  # n - t + k
        assert ea.witness_threshold == 2  # k + 1


class TestEndToEnd:
    def _run(self, k, seed):
        n, t = 7, 2
        correct = {1, 2, 3, 4, 5}
        topo = single_bisource(n, t, bisource=1, correct=correct, k=k, delta=1.0)
        return run_consensus(
            RunConfig(
                n=n, t=t,
                proposals={1: "a", 2: "b", 3: "a", 4: "b", 5: "a"},
                adversaries={6: crash(), 7: crash()},
                topology=topo, k=k, seed=seed, max_time=500_000.0,
            )
        )

    def test_consensus_with_k1(self, seeds):
        for seed in seeds[:3]:
            result = self._run(k=1, seed=seed)
            assert result.all_decided, f"seed {seed}"
            assert result.decided_value in {"a", "b"}

    def test_consensus_with_k_equals_t(self, seeds):
        for seed in seeds[:3]:
            result = self._run(k=2, seed=seed)
            assert result.all_decided, f"seed {seed}"

    def test_k_is_safe_even_with_byzantine_in_every_f_set(self, seeds):
        # With k = t and exactly t faults, every witness set contains all
        # Byzantine processes; the k+1 threshold must still filter them.
        n, t = 7, 2
        correct = {1, 2, 3, 4, 5}
        topo = single_bisource(n, t, bisource=1, correct=correct, k=2, delta=1.0)
        from repro.adversary import two_faced

        for seed in seeds[:3]:
            result = run_consensus(
                RunConfig(
                    n=n, t=t,
                    proposals={1: "a", 2: "b", 3: "a", 4: "b", 5: "a"},
                    adversaries={6: two_faced("evil"), 7: two_faced("evil")},
                    topology=topo, k=2, seed=seed, max_time=500_000.0,
                )
            )
            assert len(set(result.decisions.values())) <= 1
            for value in result.decisions.values():
                assert value in {"a", "b"}
