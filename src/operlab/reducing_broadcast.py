"""Asynchronous reducer of the candidate-value multiset (RB inside the
validation broadcast).

Echo/deliver rules follow the rebuilding-broadcast rule set specialized to
raw values: echo a value seen in t+1 INITs, deliver BOT on evidence that the
broadcasters were not unanimous, deliver a value on a 2t+1 support quorum.
Only the first INIT per sender is processed; delivery requires a prior
broadcast by this process.
"""

from __future__ import annotations

from .core import BOT, Payload, value_sort_key
from .runtime import Automaton, Broadcast, Indicate, MessageArrival, Request


class ReducingBroadcast(Automaton):
    def __init__(self, n: int, t: int):
        super().__init__()
        self.n = n
        self.t = t
        self.own = None
        self.broadcast_done = False
        self.init_from: dict = {}       # value -> set of senders (first INIT wins)
        self.echo_from: dict = {}       # value -> set of senders
        self.init_seen: set = set()     # senders whose INIT was consumed
        self.echoed: set = set()
        self.delivered = False

    def on_event(self, event):
        if isinstance(event, Request):
            if event.name == "broadcast":
                return self._broadcast(event.args[0])
            return []
        if isinstance(event, MessageArrival):
            return self._receive(event.sender, event.payload)
        return []

    def _broadcast(self, v):
        if self.broadcast_done:
            return []
        self.broadcast_done = True
        self.own = v
        return [Broadcast(Payload("INIT", value=v), self.path)] \
            + self._evaluate()

    def _receive(self, sender, payload):
        if payload.kind == "INIT" and payload.value is not BOT:
            if sender in self.init_seen:
                return []
            self.init_seen.add(sender)
            self.init_from.setdefault(payload.value, set()).add(sender)
        elif payload.kind == "ECHO":
            self.echo_from.setdefault(payload.value, set()).add(sender)
        else:
            return []
        return self._evaluate()

    def _support(self, v):
        return self.init_from.get(v, set()) | self.echo_from.get(v, set())

    def _evaluate(self):
        out = []
        # echo amplification: t+1 INITs for a value other than our own
        for v in sorted(self.init_from, key=value_sort_key):
            if v != self.own and v not in self.echoed \
                    and len(self.init_from[v]) >= self.t + 1:
                self.echoed.add(v)
                out.append(Broadcast(Payload("ECHO", value=v), self.path))
        if not self.broadcast_done or self.delivered:
            return out
        # conflicting-value evidence: t+1 supporters of a non-own value
        for v in sorted(set(self.init_from) | set(self.echo_from), key=value_sort_key):
            if v != self.own and len(self._support(v)) >= self.t + 1:
                return out + self._deliver(BOT)
        # quorum delivery
        for v in sorted(set(self.init_from) | set(self.echo_from), key=value_sort_key):
            if v is not BOT and len(self._support(v)) >= 2 * self.t + 1:
                return out + self._deliver(v)
        # most-frequent gap rule
        total_init = len(self.init_seen)
        top = max((len(s) for s in self.init_from.values()), default=0)
        if total_init - top >= self.t + 1:
            return out + self._deliver(BOT)
        return out

    def _deliver(self, x):
        self.delivered = True
        return [Indicate("deliver", (x,))]
