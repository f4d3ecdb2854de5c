"""Validation broadcast: the safe-skip primitive of one view.

Composite of a core echo layer over an embedded reducing-broadcast child
(path segment "rb"). The core re-broadcasts the reduced value as INIT,
echoes values with t+1 INIT support (plus a most-frequent-gap BOT echo),
completes on a 2t+1 echo quorum (broadcasters only), and validates on t+1
echoes -- substituting this process's default value for BOT. Validation
indications keep firing after completion. Rules react to the `Tally` support
of the one value that moved.
"""

from __future__ import annotations

from .core import BOT, Payload, Tally
from .reducing_broadcast import ReducingBroadcast
from .runtime import (Automaton, Broadcast, Composite, Indicate,
                      MessageArrival, Request, ToChild)


class ValidationCore(Automaton):
    def __init__(self, t: int, default):
        super().__init__()
        self.t = t
        self.default = default
        self.broadcast_done = False
        self.init = Tally(first_only=True)
        self.echo_sent: set = set()
        self.echo = Tally()
        self.completed = False
        self.validated: set = set()

    def on_event(self, event):
        if type(event) is MessageArrival:
            return self._receive(event.sender, event.payload)
        if event.name == "broadcast":
            self.broadcast_done = True
            return [ToChild("rb", Request("broadcast", event.args))]
        # rb's one indication: its reduced value (possibly BOT) -> INIT
        return [Broadcast(Payload("INIT", value=event.args[1]), self.path)]

    def _receive(self, sender, payload):
        v = payload.value
        out = []
        if payload.kind == "INIT":
            support = self.init.add(sender, v)
            if not support:
                return []
            # echo amplification
            if support >= self.t + 1 and v not in self.echo_sent:
                self.echo_sent.add(v)
                out.append(Broadcast(Payload("ECHO", value=v), self.path))
            # most-frequent gap -> BOT echo
            if BOT not in self.echo_sent \
                    and self.init.total - self.init.top >= self.t + 1:
                self.echo_sent.add(BOT)
                out.append(Broadcast(Payload("ECHO", value=BOT), self.path))
        elif payload.kind == "ECHO":
            support = self.echo.add(sender, v)
        else:
            return []
        # completion (broadcasters only, once); `broadcast` enables it
        # without an evaluation, so even a repeated ECHO re-checks it
        if not self.completed and self.broadcast_done \
                and self.echo.top >= 2 * self.t + 1:
            self.completed = True
            out.append(Indicate("completed"))
        # validation: fires regardless of completion
        x = self.default if v is BOT else v
        if payload.kind == "ECHO" and support >= self.t + 1 \
                and x not in self.validated:
            self.validated.add(x)
            out.append(Indicate("validate", (x,)))
        return out


def make_validation_broadcast(t: int, default) -> Composite:
    return Composite(ValidationCore(t, default),
                     children={"rb": ReducingBroadcast(t)})
