"""Set-based Bracha reliable broadcast — the differential-test oracle.

This is the engine ``repro.broadcast.reliable`` carried before its
bookkeeping moved to one record per instance (sender bitmasks, per-value
counters, dead-message short-circuit): per-instance sender *sets*, a
recheck-free ``_deliver``, and ``_my_echo`` / ``_my_ready`` side tables.
It is kept only as the reference ``test_rb_differential.py`` compares
the production engine against, send for send and delivery for delivery;
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any

from repro.broadcast import rb_quorums


class _InstanceState:
    __slots__ = ("echoes", "readies", "echoed", "readied", "delivered")

    def __init__(self) -> None:
        # value -> set of senders whose (first) ECHO/READY carried it.
        self.echoes: dict[Any, set[int]] = {}
        self.readies: dict[Any, set[int]] = {}
        # first ECHO/READY sender set, for per-sender dedup.
        self.echoed: set[int] = set()
        self.readied: set[int] = set()
        self.delivered = False


class ReferenceReliableBroadcast:
    INIT = "RB_INIT"
    ECHO = "RB_ECHO"
    READY = "RB_READY"

    def __init__(self, process: Any, n: int, t: int) -> None:
        self.process = process
        self.echo_quorum, self.ready_amplify, self.deliver_quorum = rb_quorums(n, t)
        self._states: dict[tuple[int, Any], _InstanceState] = {}
        self._my_echo: dict[tuple[int, Any], Any] = {}
        self._my_ready: dict[tuple[int, Any], Any] = {}
        self.delivered: dict[tuple[int, Any], Any] = {}
        self._global_subscribers: list[Any] = []
        process.register_handler(self.INIT, self._on_init)
        process.register_handler(self.ECHO, self._on_echo)
        process.register_handler(self.READY, self._on_ready)

    def subscribe_all(self, callback: Any) -> None:
        self._global_subscribers.append(callback)

    def _state(self, origin: int, instance_key: Any) -> _InstanceState:
        key = (origin, instance_key)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _InstanceState()
        return state

    def _on_init(self, message: Any) -> None:
        instance_key, value = message.payload
        origin = message.sender
        key = (origin, instance_key)
        if key in self._my_echo:
            return
        self._my_echo[key] = value
        self.process.broadcast(self.ECHO, (origin, instance_key, value))

    def _on_echo(self, message: Any) -> None:
        origin, instance_key, value = message.payload
        state = self._state(origin, instance_key)
        if message.sender in state.echoed:
            return
        state.echoed.add(message.sender)
        supporters = state.echoes.setdefault(value, set())
        supporters.add(message.sender)
        if len(supporters) >= self.echo_quorum:
            self._send_ready(origin, instance_key, value)

    def _on_ready(self, message: Any) -> None:
        origin, instance_key, value = message.payload
        state = self._state(origin, instance_key)
        if message.sender in state.readied:
            return
        state.readied.add(message.sender)
        supporters = state.readies.setdefault(value, set())
        supporters.add(message.sender)
        if len(supporters) >= self.ready_amplify:
            self._send_ready(origin, instance_key, value)
        if len(supporters) >= self.deliver_quorum and not state.delivered:
            state.delivered = True
            self._deliver(origin, instance_key, value)

    def _send_ready(self, origin: int, instance_key: Any, value: Any) -> None:
        key = (origin, instance_key)
        if key in self._my_ready:
            return
        self._my_ready[key] = value
        self.process.broadcast(self.READY, (origin, instance_key, value))

    def _deliver(self, origin: int, instance_key: Any, value: Any) -> None:
        self.delivered[(origin, instance_key)] = value
        for callback in self._global_subscribers:
            callback(origin, instance_key, value)
