"""View-based partially synchronous agreement built from per-view agreement
cores and a finisher.

Each view V runs its own agreement core (child tag "crux@V", spawned lazily,
with messages buffered until this process has proposed). Completing a view
broadcasts START-VIEW for the next one; t+1 matching START-VIEW messages are
amplified once per view (as that view's `Tally` support crosses t+1); a
2t+1 quorum for a higher view triggers the move — but only after a value
from the preceding view has been validated, which is what that value is
then proposed with. A decision from the current view's core feeds the
finisher; the finisher's finish indication is the protocol decision, after
which the process halts.
"""

from __future__ import annotations

from collections import deque

from .core import DEFAULT_VALUE_WIDTH, Payload, Tally, ValidityPredicate
from .crux import CruxParams, make_crux
from .finisher import Finisher
from .runtime import (Automaton, Broadcast, Composite, Halt, Indicate,
                      MessageArrival, Request, ToChild)

CRUX_TAG_PREFIX = "crux@"

# Messages buffered per view tag before the proposal; the oldest is dropped
# first.
BUFFER_CAP = 256


def crux_tag(view: int) -> str:
    return CRUX_TAG_PREFIX + str(view)


def _tag_view(tag):
    """View v >= 1 if tag is exactly crux_tag(v), else None: aliases that
    int() accepts ("crux@01", "crux@+1", "crux@1_0") and non-string path
    segments are not view tags."""
    if not isinstance(tag, str):
        return None
    try:
        v = int(tag[len(CRUX_TAG_PREFIX):])
    except ValueError:
        return None
    return v if v >= 1 and tag == crux_tag(v) else None


class OperCore(Automaton):
    def __init__(self, t: int):
        super().__init__()
        self.t = t
        self.own = None
        self.view = 1
        self.start_view_from = Tally()   # START-VIEW support per view
        self.validated: dict = {}         # view -> first validated value
        self.pending_target = 1           # highest 2t+1 quorum view; 1: none

    def on_event(self, event):
        if type(event) is MessageArrival:
            p = event.payload
            if p.kind == "START-VIEW":
                return self._start_view(event.sender, p.view)
            return []
        return self._request(event)   # it sets no timer

    def _request(self, event):
        name, args = event.name, event.args
        if name == "propose":
            self.own = args[0]
            return [Indicate("enter-view", (1,)),
                    ToChild(crux_tag(1), Request("propose", (args[0],)))]
        # tagged child indications. Only a proposed, unabandoned view completes
        # or decides: the current one. A validation may come from a higher one
        if name == "completed":
            return [Broadcast(Payload("START-VIEW", view=self.view + 1),
                              self.path)]
        if name == "validate":
            w = _tag_view(args[0])
            if w not in self.validated:
                self.validated[w] = args[1]
                return self._try_advance()
            return []
        if name == "decide":
            return [ToChild("fin", Request("to_finish", (args[1],)))]
        # the finisher's finish, once; the Halt ends every later event
        return [Indicate("decide", (args[1],)),
                ToChild(crux_tag(self.view), Request("abandon")),
                Halt()]

    def _start_view(self, sender, v):
        if v < 2:
            return []
        support = self.start_view_from.add(sender, v)
        out = []
        if support == self.t + 1:   # amplified once per view
            out.append(Broadcast(Payload("START-VIEW", view=v), self.path))
        if support >= 2 * self.t + 1 and v > self.view:
            self.pending_target = max(self.pending_target, v)
            out.extend(self._try_advance())
        return out

    def _try_advance(self):
        out = []
        if (self.pending_target > self.view
                and self.pending_target - 1 in self.validated
                and self.own is not None):
            target = self.pending_target
            value = self.validated[target - 1]
            out.append(ToChild(crux_tag(self.view), Request("abandon")))
            self.view = target
            out.append(Indicate("enter-view", (target,)))
            out.append(ToChild(crux_tag(target), Request("propose", (value,))))
        return out


class Oper(Composite):
    """Top-level composite: finisher plus lazily spawned per-view cores.
    It alone spawns children: see `_route_unknown`. Its `on_event` is
    `Composite.on_event`, held as its own class entry (see `runtime`)."""

    def __init__(self, n: int, t: int, delta: int,
                 value_width: int = DEFAULT_VALUE_WIDTH,
                 pred: ValidityPredicate | None = None, pid: int = 0):
        self.params = CruxParams(n=n, t=t, delta=delta,
                                 value_width=value_width)
        self.pred = pred or ValidityPredicate.always_true()
        self.pid = pid
        self.pending: dict[str, deque] = {}   # view tag -> buffered events
        super().__init__(OperCore(t), children={"fin": Finisher(t)})

    def _route_unknown(self, tag, event) -> list:
        """Spawn view `tag` after the proposal; before it, buffer the event
        (up to BUFFER_CAP, oldest dropped), to be replayed in arrival order
        when the proposal spawns the buffered views in view order. A tag
        that names no view, or a view it holds (a path below it that the
        route table lacks), is misrouted."""
        if _tag_view(tag) is None or tag in self.children:
            return super()._route_unknown(tag, event)
        if self.core.own is not None:
            return self._spawn_view(tag, event)
        buf = self.pending.setdefault(tag, deque(maxlen=BUFFER_CAP))
        if len(buf) == BUFFER_CAP:
            self.buffer_dropped += 1
        buf.append(event)
        return []

    def _spawn_view(self, tag, *events) -> list:
        """Attach view `tag`; replay its buffered events, then `events`, a
        request to the view, a message or timer through the route table.
        Spawning view 1 ends the proposal; the other buffered views follow."""
        view = make_crux(self.params, self.pid, default=self.core.own,
                         pred=self.pred)
        self.children[tag] = view
        view.attach((tag,), self)
        out = []
        for e in (*self.pending.pop(tag, ()), *events):
            out.extend(self._lift(tag, view.step(e)) if isinstance(e, Request)
                       else self.on_event(e))
        if tag == crux_tag(1):   # each spawn pops its tag from the buffer
            while self.pending:
                out.extend(self._spawn_view(min(self.pending, key=_tag_view)))
        return out

    on_event = Composite.on_event


def make_oper(n: int, t: int, delta: int, pid: int,
              value_width: int = DEFAULT_VALUE_WIDTH,
              pred: ValidityPredicate | None = None) -> Oper:
    return Oper(n, t, delta, value_width=value_width, pred=pred, pid=pid)
