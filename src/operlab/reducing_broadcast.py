"""Asynchronous reducer of the candidate-value multiset (RB inside the
validation broadcast).

Echo/deliver rules follow the rebuilding-broadcast rule set specialized to
raw values: echo a value seen in t+1 INITs, deliver BOT on evidence that the
broadcasters were not unanimous, deliver a value on a 2t+1 support quorum.
Only the first INIT per sender is processed; delivery requires a prior
broadcast by this process. Rules react to the `Tally` support of the one
value that moved; only the broadcast, which fixes own, scans every value.
"""

from __future__ import annotations

from .core import BOT, Payload, Tally
from .runtime import Automaton, Broadcast, Indicate, MessageArrival


class ReducingBroadcast(Automaton):
    def __init__(self, t: int):
        super().__init__()
        self.t = t
        self.own = None                      # None until the broadcast
        self.init = Tally(first_only=True)   # first INIT per sender wins
        self.support = Tally()               # counted INITs and all ECHOs
        self.delivered = False

    def on_event(self, event):
        if type(event) is MessageArrival:
            return self._receive(event.sender, event.payload)
        return self._broadcast(event.args[0])   # broadcast, the one request

    def _broadcast(self, v):
        self.own = v
        out = [Broadcast(Payload("INIT", value=v), self.path)]
        # the one full scan: conflicts are judged against own, known from here
        if any(w != v and self.support.count(w) >= self.t + 1
               for w in self.support.backers):
            return out + self._deliver(BOT)
        return out + self._delivery(v)

    def _receive(self, sender, payload):
        v = payload.value
        out = []
        if payload.kind == "INIT" and v is not BOT:
            support = self.init.add(sender, v)
            if not support:
                return []
            self.support.add(sender, v)
            # echo amplification: t+1 INITs for a value other than our own
            if support == self.t + 1 and v != self.own:
                out.append(Broadcast(Payload("ECHO", value=v), self.path))
        elif payload.kind != "ECHO" or not self.support.add(sender, v):
            return []
        return out + self._delivery(v)

    def _delivery(self, v):
        """Delivery rules once v's support grew (v is own at the broadcast)."""
        if self.own is None or self.delivered:
            return []
        # conflicting-value evidence: t+1 supporters of a non-own value
        if v != self.own and self.support.count(v) >= self.t + 1:
            return self._deliver(BOT)
        # quorum delivery; a non-own value at 2t+1 is a conflict above
        if v is not BOT and self.support.count(v) >= 2 * self.t + 1:
            return self._deliver(v)
        # most-frequent gap rule
        if self.init.total - self.init.top >= self.t + 1:
            return self._deliver(BOT)
        return []

    def _deliver(self, x):
        self.delivered = True
        return [Indicate("deliver", (x,))]
