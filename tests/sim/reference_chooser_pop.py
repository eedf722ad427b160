"""Scan-based chooser-mode pop — the differential-test oracle.

This is ``Simulator._pop_next_chosen`` as it stood before handles were
classified once into a ``_choices`` list: every pop rescans the whole
ready deque, calling ``is_choice`` on each live handle until it meets an
internal event, and removes the winner with an O(n) ``deque.remove``.
Choice events never leave ``_ready`` here, so the inherited
``peek_time`` / ``pending_events`` / ``set_chooser`` (whose ``_choices``
branches see an always-empty list) behave exactly as they used to.  It
is kept only as the reference ``test_chooser_pop_differential.py``
compares the production pop against, event for event; nothing under
``src/`` imports it.
"""

from __future__ import annotations

from repro.sim.handles import EventHandle
from tests.sim.reference_delivery import HandleDeliverySimulator


class ReferenceChooserSimulator(HandleDeliverySimulator):
    def _pop_next_chosen(self) -> EventHandle | None:
        ready = self._ready
        while ready and ready[0]._cancelled:
            ready.popleft()
        if not ready:
            return self._pop_next()
        chooser = self._chooser
        is_choice = chooser.is_choice
        candidates: list[EventHandle] = []
        for handle in ready:
            if handle._cancelled:
                continue
            if not is_choice(handle):
                ready.remove(handle)  # identity-based: no __eq__ on handles
                return handle
            candidates.append(handle)
        chosen = candidates[chooser.choose(candidates)]
        ready.remove(chosen)
        return chosen
