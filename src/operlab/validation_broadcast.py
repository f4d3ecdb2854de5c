"""Validation broadcast: the safe-skip primitive of one view.

Composite of a core echo layer over an embedded reducing-broadcast child
(path segment "rb"). The core re-broadcasts the reduced value as INIT,
echoes values with t+1 INIT support (plus a most-frequent-gap BOT echo),
completes on a 2t+1 echo quorum (broadcasters only), and validates on t+1
echoes -- substituting this process's default value for BOT. Validation
indications keep firing after completion and after abandon (the runtime lets
them through).
"""

from __future__ import annotations

from .core import BOT, Payload, value_sort_key
from .reducing_broadcast import ReducingBroadcast
from .runtime import (Automaton, Broadcast, Composite, Indicate,
                      MessageArrival, Request, ToChild)


class ValidationCore(Automaton):
    def __init__(self, n: int, t: int, default):
        super().__init__()
        self.n = n
        self.t = t
        self.default = default
        self.broadcast_done = False
        self.init_seen: set = set()
        self.init_from: dict = {}
        self.echo_sent: set = set()
        self.echo_from: dict = {}        # value -> {sender}; per (sender, value) once
        self.completed = False
        self.validated: set = set()

    def on_event(self, event):
        if isinstance(event, Request):
            if event.name == "broadcast":
                if self.broadcast_done:
                    return []
                self.broadcast_done = True
                return [ToChild("rb", Request("broadcast", event.args))]
            if event.name == "deliver" and event.args[0] == "rb":
                # reduced value (possibly BOT) -> INIT round
                return [Broadcast(Payload("INIT", value=event.args[1]),
                                  self.path)]
            return []
        if isinstance(event, MessageArrival):
            return self._receive(event.sender, event.payload)
        return []

    def _receive(self, sender, payload):
        if payload.kind == "INIT":
            if sender in self.init_seen:
                return []
            self.init_seen.add(sender)
            self.init_from.setdefault(payload.value, set()).add(sender)
        elif payload.kind == "ECHO":
            self.echo_from.setdefault(payload.value, set()).add(sender)
        else:
            return []
        return self._evaluate()

    def _evaluate(self):
        out = []
        # echo amplification
        for v in sorted(self.init_from, key=value_sort_key):
            if v not in self.echo_sent and len(self.init_from[v]) >= self.t + 1:
                self.echo_sent.add(v)
                out.append(Broadcast(Payload("ECHO", value=v), self.path))
        # most-frequent gap -> BOT echo
        if BOT not in self.echo_sent and self.init_from:
            top = max(len(s) for s in self.init_from.values())
            if len(self.init_seen) - top >= self.t + 1:
                self.echo_sent.add(BOT)
                out.append(Broadcast(Payload("ECHO", value=BOT), self.path))
        # completion (broadcasters only, once)
        if not self.completed and self.broadcast_done:
            for v in self.echo_from.values():
                if len(v) >= 2 * self.t + 1:
                    self.completed = True
                    out.append(Indicate("completed"))
                    break
        # validation: fires regardless of completion
        for v in sorted(self.echo_from, key=value_sort_key):
            if len(self.echo_from[v]) >= self.t + 1:
                x = self.default if v is BOT else v
                if x not in self.validated:
                    self.validated.add(x)
                    out.append(Indicate("validate", (x,)))
        return out


def make_validation_broadcast(n: int, t: int, default) -> Composite:
    return Composite(ValidationCore(n, t, default),
                     children={"rb": ReducingBroadcast(n, t)})
