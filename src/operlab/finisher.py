"""Halting primitive: one correct decision becomes all-correct decisions.

to_finish broadcasts FINISH once; t+1 matching FINISH messages from others
trigger an adopt-and-broadcast (unless already started); 2t+1 trigger the
finish indication. Both react to the `Tally` support of the value that moved.
"""

from __future__ import annotations

from .core import BOT, Payload, Tally
from .runtime import Automaton, Broadcast, Indicate, MessageArrival


class Finisher(Automaton):
    def __init__(self, t: int):
        super().__init__()
        self.t = t
        self.started = False
        self.finished = False
        self.finish_from = Tally()

    def on_event(self, event):
        if type(event) is MessageArrival:
            p = event.payload
            if p.kind != "FINISH" or p.value is BOT:
                return []
            return self._evaluate(
                p.value, self.finish_from.add(event.sender, p.value))
        return self._to_finish(event.args[0])   # to_finish, the one request

    def _to_finish(self, v):
        if self.started:
            return []
        self.started = True
        return [Broadcast(Payload("FINISH", value=v), self.path)]

    def _evaluate(self, v, support):
        """Thresholds crossed as value v's support grew to `support`."""
        out = []
        if not self.started and support >= self.t + 1:
            self.started = True
            out.append(Broadcast(Payload("FINISH", value=v), self.path))
        if not self.finished and support >= 2 * self.t + 1:
            self.finished = True
            out.append(Indicate("finish", (v,)))
        return out
