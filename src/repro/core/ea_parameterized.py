"""Parameterized eventual agreement — paper Section 5.4.

The base EA algorithm (``k = 0``) converges, in the ``<t+1>bisource``-
from-the-start model, within ``alpha * n`` rounds, ``alpha = C(n, n-t)``:
up to one full cycle through every (coordinator, witness set) pair.
Strengthening the synchrony assumption to a ``<t+1+k>bisource`` and
widening the witness sets to ``n - t + k`` members shrinks the number of
witness sets to ``beta = C(n, n-t+k)`` and the horizon to ``beta * n``;
at ``k = t`` a single witness set remains and the bound is ``n`` — the
best possible for a rotating-coordinator algorithm.

The paper delegates the parameterized pseudocode to its (unavailable)
tech report; this class is the reconstruction documented in
docs/claims.md, Deviations 2 — identical to Figure 3 except that line 7 requires ``k + 1``
matching non-⊥ relays from ``F(r)`` members, which is necessary because
with exactly ``t`` faults every size-``n-t+k`` witness set contains at
least ``k`` Byzantine processes.
"""

from __future__ import annotations

from typing import Any, Callable

from ..broadcast.cooperative import CooperativeBroadcast
from ..broadcast.reliable import ReliableBroadcast
from ..errors import ConfigurationError
from ..runtime.process import Process
from .eventual_agreement import EventualAgreement, default_timeout
from .values import Selector, first_added

__all__ = ["ParameterizedEventualAgreement"]


class ParameterizedEventualAgreement(EventualAgreement):
    """Figure 3 with the Section 5.4 tuning parameter ``k`` mandatory.

    Functionally identical to :class:`EventualAgreement` with the same
    ``k``; this subclass exists so call sites exploring the trade-off are
    explicit about requiring the stronger ``<t+1+k>bisource`` assumption.
    """

    def __init__(
        self,
        process: Process,
        rb: ReliableBroadcast,
        n: int,
        t: int,
        m: int | None,
        k: int,
        timeout_fn: Callable[[int], float] = default_timeout,
        cb_factory: type[CooperativeBroadcast] = CooperativeBroadcast,
        selector: Selector = first_added,
        namespace: str = "",
    ) -> None:
        if k < 1:
            raise ConfigurationError(
                "ParameterizedEventualAgreement requires k >= 1; "
                "use EventualAgreement for the base algorithm (k = 0)"
            )
        super().__init__(
            process,
            rb,
            n,
            t,
            m,
            k=k,
            timeout_fn=timeout_fn,
            cb_factory=cb_factory,
            selector=selector,
            namespace=namespace,
        )

    def required_bisource_width(self) -> int:
        """The synchrony assumption this instance needs: ``t + 1 + k``."""
        return self.t + 1 + self.k
